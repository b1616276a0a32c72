"""The repository benchmark: paper-geometry workloads through public entry points.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-serial --seed 1 --seconds 15 --trace 0

It builds nothing but byte code (``compileall`` over ``src/repro``), runs one
workload, checks its outputs, and prints information lines followed by one
JSON object as the last line of standard output.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` is a separate run
that reports the per-layer metrics and writes its spans as JSONL under
``perfbench/out/``.  See ``perfbench/README.md``.

This file stays on the standard library: set-up time is measured from the
start of each workload process, which must not wait on this one's imports.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

WORKLOADS = ("sweep-serial", "sweep-pool", "greedy-plan", "place-service")
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Every process of a run must be gone this many seconds after it starts.
RUN_LIMIT_S = 170.0
#: One BLAS thread per process: the host has few cores, and the pool
#: workers and the server are processes of their own.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
READY = "PERFBENCH-READY"
HERE = Path(__file__).resolve().parent


def _become_subreaper() -> None:
    """Adopt orphaned descendants (the resource tracker, a server whose
    client died) so they can be waited for, not left to init."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _stop_group(proc: subprocess.Popen, grace: float) -> None:
    """Wait until every process of ``proc``'s group has ended (kill after
    ``grace`` seconds), reaping any that were re-parented to us."""
    deadline = time.monotonic() + grace
    killed = False
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        if not killed and time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            killed = True
            deadline = time.monotonic() + 5.0
        elif killed and time.monotonic() > deadline:
            return
        time.sleep(0.02)


def _child(args, mode: str, scratch: Path, out: Path, env: dict, limit: float):
    """Start one workload process; returns ``(setup seconds, exit code)``.

    Set-up runs from the moment the process is started until it reports
    ready (after its warm-up unit).
    """
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
        "--scratch", str(scratch), "--out", str(out),
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=env, start_new_session=True
    )
    overran = threading.Event()

    def overrun():
        overran.set()
        os.killpg(proc.pid, signal.SIGKILL)

    watchdog = threading.Timer(max(0.0, limit - time.monotonic()), overrun)
    watchdog.start()
    setup_s = None
    try:
        for line in proc.stdout:
            if setup_s is None and line.strip() == READY:
                setup_s = time.perf_counter() - start
            else:
                sys.stderr.write(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        _stop_group(proc, grace=5.0)
    return setup_s, None if overran.is_set() else code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    limit = time.monotonic() + RUN_LIMIT_S
    # A shell that starts a command in the background starts it with SIGINT
    # ignored, which every process it starts would inherit; the placement
    # server stops on SIGINT.  A handler (unlike SIG_IGN) resets on exec.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: {src / 'repro'} not found; run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )
    build = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(src / "repro")], env=env
    )
    if build.returncode != 0:
        print("perfbench: byte-compiling src/repro failed", file=sys.stderr)
        return 2

    _become_subreaper()
    out_root = HERE / "out"
    out_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=out_root))
    result_path = scratch / "result.json"
    try:
        setups = []
        modes = ["trace"] if args.trace else ["setup"] * (SETUP_REPEATS - 1) + ["run"]
        code = 0
        for i, mode in enumerate(modes):
            # Its own directory per process: a set-up must not resume the
            # journal an earlier one wrote.
            work = scratch / f"{i}-{mode}"
            work.mkdir()
            setup_s, code = _child(args, mode, work, result_path, env, limit)
            if setup_s is None or code != 0:
                break
            setups.append(setup_s)
        if code is None:
            print("perfbench: the workload overran its time limit", file=sys.stderr)
            return 1
        if not result_path.is_file():
            print(f"perfbench: the workload failed (exit {code})", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text())
        # The traced workload's spans and those of each layer probe.
        for spans in sorted(scratch.rglob("*.spans.jsonl")):
            name = spans.name.removesuffix(".spans.jsonl")
            tail = "" if name == "result" else f".{name}"
            kept = out_root / f"trace-{args.workload}-{args.seed}{tail}.jsonl"
            shutil.move(spans, kept)
            result["info"].append(f"spans written to {kept.relative_to(root)}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = result["metrics"]
    if not args.trace:
        own_kib = _own_peak_kib()
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = (result["rss_kib"] + own_kib) / 1024.0
        result["info"].append("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))
    result["info"].append(
        "threads: " + " ".join(f"{k}={v}" for k, v in THREAD_ENV.items())
        + f"; nproc {len(os.sched_getaffinity(0))}"
    )
    units = _units()
    for line in result["info"]:
        print(f"[{args.workload}] {line}")
    for line in result["errors"]:
        print(f"[{args.workload}] CHECK FAILED: {line}")
    for name in sorted(metrics):
        print(f"[{args.workload}] {name} = {metrics[name]!r} {units.get(name, '')}")
    bad = [n for n, v in metrics.items() if not isinstance(v, (int, float)) or v != v
           or v in (float("inf"), float("-inf"))]
    if bad:
        print(f"perfbench: no finite value for {', '.join(bad)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 1 if result["errors"] else 0


def _own_peak_kib() -> int:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _units() -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
