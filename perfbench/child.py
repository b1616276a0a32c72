"""One workload process of the benchmark, started by ``perfbench/run.py``.

Modes:

* ``setup`` — set the workload up, report ready on stdout, tear it down;
* ``run`` — set up, time the workload for ``--seconds``, check outputs;
* ``trace`` — set up, then untraced and traced groups in turn for
  ``--seconds`` (their rates give the tracing overhead), an in-process
  replay of work done in other processes, a probe of the layers the
  workload does not run, per-layer metrics from the spans, and the output
  checks.

Results go to the JSON file named by ``--out``.  Module-level imports stay
on the standard library, because spawned pool workers re-import this file
as their main module.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

READY = "PERFBENCH-READY"


def percentile(values, q: float) -> float:
    """Linear-interpolated quantile; a failed unit (inf) is a missed limit."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = (len(ordered) - 1) * q
    lo, hi = math.floor(pos), math.ceil(pos)
    if lo == hi or math.isinf(ordered[hi]):
        return ordered[hi]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_phase(workload, seed: int, seconds: float):
    """Run whole groups until ``seconds`` have passed and the phase holds
    ``workload.min_units`` units.

    Returns ``(units, rates, wall)``: every unit, each group's completed
    units per second spent in its units (a failed unit's infinite latency
    makes its group's rate 0), and the phase's wall time.
    """
    from workloads import group_rate

    units, rates = [], []
    start = time.perf_counter()
    for group in workload.groups(seed):
        done = workload.run_group(group)
        units += done
        rates.append(group_rate(done))
        if time.perf_counter() - start >= seconds and len(units) >= workload.min_units:
            break
    return units, rates, time.perf_counter() - start


def end_to_end(workload, units, rates, wall: float) -> tuple[dict, list[str]]:
    """The end-to-end metrics measured in the child, plus information lines.

    ``units_per_s`` is the median of the groups' rates, so a stall of the
    shared host that slows one group barely moves it.
    """
    latencies = [u.seconds * 1e3 for u in units]
    completed = sum(1 for u in units if u.ok)
    metrics = {
        "units_per_s": statistics.median(rates),
        "unit_p50_ms": percentile(latencies, 0.5),
    }
    info = [f"units {len(units)} in {len(rates)} groups, {wall:.3f} s "
            f"({completed / wall:.4f} units/s over the whole phase), "
            f"{len(units) - completed} failed "
            f"(failed_frac {(len(units) - completed) / len(units):.6f})"]
    if workload.tail:
        metrics["unit_p90_ms"] = percentile(latencies, 0.9)
    else:
        metrics["unit_p90_ms"] = metrics["unit_p50_ms"]
        info.append("too few unit latencies for a 90th percentile: "
                    "unit_p90_ms reports unit_p50_ms")
    for cls in ("new", "extend", "repeat"):
        if cls in workload.classes:
            in_class = [u.seconds * 1e3 for u in units if u.cls == cls]
            metrics[f"{cls}_p50_ms"] = percentile(in_class, 0.5)
            info.append(f"{cls}: {len(in_class)} units")
        else:
            metrics[f"{cls}_p50_ms"] = metrics["unit_p50_ms"]
    if not workload.classes:
        info.append("one unit class: new/extend/repeat_p50_ms report unit_p50_ms")
    if workload.name.startswith("sweep"):
        cells = 1000 * workload.cells_per_pass
        full = cells / metrics["units_per_s"]
        info.append(
            f"full grid at 1000 fields per density ({cells} cells): "
            f"{full:.0f} s = {full / 3600:.2f} h (extrapolated)"
        )
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    import layers
    import tracing
    from workloads import WORKLOADS, vm_hwm_kib

    recorder = tracing.Recorder() if args.mode == "trace" else None
    workload = WORKLOADS[args.workload](args.scratch, recorder)
    result: dict = {"info": []}
    errors: list[str] = []
    try:
        workload.setup()
        print(READY, flush=True)
        if args.mode == "setup":
            return 0
        if args.mode == "run":
            units, rates, wall = run_phase(workload, args.seed, args.seconds)
            # Read before the checks, whose work is not the workload's.
            result["rss_kib"] = vm_hwm_kib(os.getpid()) + workload.child_rss_kib()
            result["metrics"], result["info"] = end_to_end(workload, units, rates, wall)
        else:
            units, result["metrics"] = layers.traced_run(workload, args.seed, args.seconds)
            result["info"] = layers.report(recorder, workload, result["metrics"])
            recorder.dump(args.out.with_suffix(".spans.jsonl"))
        result["attempted"] = len(units)
        result["failed"] = sum(1 for u in units if not u.ok)
        errors = workload.check()
    finally:
        workload.close()
    result["info"] += workload.info
    if args.mode == "trace":
        # Once the traced workload's pool or server (and the service's CPU
        # pinning) are gone, so they do not skew the probes.
        result["info"] += layers.probe(result["metrics"], workload.name, args.seed, args.scratch)
    result["errors"] = errors
    args.out.write_text(json.dumps(result))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
