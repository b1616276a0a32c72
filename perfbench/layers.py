"""Per-layer metrics of the traced run.

Each metric is timed at one public call of one layer (see README.md for the
table of which end-to-end metric each should move).  A layer the workload
does not run is timed by a probe: one small traced group of another
workload, run in the same process after the traced run.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import tracing
from workloads import NUM_GRIDS, RADIO_RANGE, SIDE, WORKLOADS, group_rate

#: Every per-layer metric, in the order ``BENCHMARK.json`` lists them.
PER_LAYER = tuple(
    m["name"]
    for m in json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())[
        "per_layer"
    ]
)

IN_PROCESS = ("traced", "replay")


class Tracer:
    """Runs a workload's calls with the span wrappers installed and the
    ``repro.obs`` registry enabled, and gathers the counters."""

    def __init__(self, workload) -> None:
        from repro.obs import MetricsRegistry

        self.workload = workload
        self.patches = tracing.Patches(workload.recorder)
        self.registry = MetricsRegistry()
        self.status = workload.cache_status()

    def run(self, phase: str, fn, *args):
        from repro.obs import disable_metrics, enable_metrics

        self.patches.install()
        enable_metrics(self.registry)
        self.workload.phase = phase
        try:
            return fn(*args)
        finally:
            self.workload.phase = "untraced"
            disable_metrics()
            self.patches.uninstall()

    def metrics(self) -> dict:
        """Per-layer metrics from the recorder's spans and the counters."""
        counters = {
            "chunks": self.registry.counter("executor.pool.batches").value,
            "bytes": self.registry.counter("executor.pool.bytes_shipped").value,
        }
        if self.status is not None:
            hits, lookups = (b - a for a, b in zip(self.status, self.workload.cache_status()))
            counters["cache_hit_ratio"] = hits / lookups
        return compute(self.workload.recorder.spans, self.workload, counters)


def traced_run(workload, seed: int, seconds: float):
    """Untraced and traced groups in turn until ``seconds`` have passed,
    then the replay; returns ``(traced units, per-layer metrics)``.

    The traced groups run on ``seed``, the untraced ones on ``seed + 1``:
    the same unit sequence on fresh fields, so neither meets a cache the
    other filled.  Taking them in turn puts each pair under the same host
    load; the median ratio of the pairs' rates is the tracing overhead.
    """
    tracer = Tracer(workload)
    units, pairs = [], []
    start = time.perf_counter()
    for plain, group in zip(workload.groups(seed + 1), workload.groups(seed)):
        base = group_rate(workload.run_group(plain))
        done = tracer.run("traced", workload.run_group, group)
        units += done
        pairs.append((base, group_rate(done)))
        if time.perf_counter() - start >= seconds:
            break
    tracer.run("replay", workload.replay)
    metrics = tracer.metrics()
    metrics["bench.trace_overhead_frac"] = 1.0 - statistics.median(
        traced / base for base, traced in pairs
    )
    workload.info.append(
        "group rates, untraced / traced: "
        + ", ".join(f"{base:.3f}/{traced:.3f}" for base, traced in pairs)
    )
    return units, metrics


#: Workloads whose probe groups time the layers another workload does not
#: run, cheapest first.
PROBES = ("sweep-serial", "greedy-plan", "place-service", "sweep-pool")


def probe(metrics: dict, traced: str, seed: int, scratch: Path) -> list[str]:
    """Fill the per-layer metrics the traced workload left unmeasured from
    one traced ``probe_group`` of each other workload, whose spans go to
    ``scratch/probe-<name>.spans.jsonl``; returns info lines."""
    info = []
    for name in PROBES:
        missing = [m for m in PER_LAYER if m not in metrics]
        if name == traced or not missing:
            continue
        workload = WORKLOADS[name](scratch / f"probe-{name}", tracing.Recorder())
        workload.out.mkdir()
        try:
            workload.setup()
            tracer = Tracer(workload)
            tracer.run("traced", workload.run_group, workload.probe_group(seed))
            tracer.run("replay", workload.replay)
            found = {m: v for m, v in tracer.metrics().items() if m in missing}
        finally:
            workload.close()
        workload.recorder.dump(scratch / f"probe-{name}.spans.jsonl")
        metrics.update(found)
        if found:
            info.append(f"timed by a {name} probe group: " + ", ".join(sorted(found)))
    unmeasured = [m for m in PER_LAYER if m not in metrics]
    for name in unmeasured:
        metrics[name] = 0.0
    if unmeasured:
        info.append("not measured (reads 0): " + ", ".join(unmeasured))
    return info


def _sum_attr(spans, key):
    return sum(s["attrs"][key] for s in spans)


def compute(spans, workload, counters) -> dict:
    """The per-layer metrics the spans and counters measure (no others)."""
    in_process = tracing.under_units(spans, IN_PROCESS)
    traced = tracing.under_units(spans, ("traced",))
    replayed = tracing.under_units(spans, ("replay",))

    def calls(name, among=in_process):
        return [s for s in among if s["name"] == name]

    out = {}
    worlds = [s for s in calls("radio.connectivity") if s["attrs"]["beacons"] > 1]
    out["radio.connectivity_ms"] = tracing.mean_ms(worlds)
    if worlds:
        links = sum(s["attrs"]["points"] * s["attrs"]["beacons"] for s in worlds)
        out["radio.mlinks_per_s"] = links / tracing.total_s(worlds) / 1e6
    warmed = calls("radio.warm_worlds")
    if _sum_attr(warmed, "worlds"):
        out["radio.batched_ms_per_world"] = (
            1e3 * tracing.total_s(warmed) / _sum_attr(warmed, "worlds")
        )
    columns = calls("radio.candidate_columns")
    if columns:
        out["radio.candidate_columns_ms"] = (
            1e3 * 256 * tracing.total_s(columns) / _sum_attr(columns, "candidates")
        )
    maps = calls("localization.errors")
    if maps:
        centroid = calls("localization.centroid_state") + calls("localization.estimates")
        out["localization.centroid_ms"] = (
            1e3 * (tracing.total_s(centroid) + tracing.total_s(maps)) / len(maps)
        )
    out["localization.reduce_ms"] = tracing.mean_ms(calls("localization.reduce"))
    out["sim.build_world_ms"] = tracing.mean_ms(calls("sim.build_world"))
    out["sim.evaluate_candidate_ms"] = tracing.mean_ms(calls("sim.evaluate_candidate"))
    out["sim.aggregate_ms"] = tracing.mean_ms(calls("sim.aggregate"))
    for algorithm in ("grid", "max", "random"):
        out[f"placement.propose_ms.{algorithm}"] = tracing.mean_ms(
            calls(f"placement.propose.{algorithm}")
        )
    out["geometry.masks_s"] = first_masks_seconds()
    out["incremental.build_ms"] = tracing.mean_ms(calls("incremental.build"))
    scans = calls("incremental.scan")
    if scans:
        out["incremental.scan_us_per_candidate"] = (
            1e6 * tracing.total_s(scans) / _sum_attr(scans, "candidates")
        )
    out["incremental.commit_ms"] = tracing.mean_ms(calls("incremental.commit"))
    out["incremental.fingerprint_ms"] = tracing.mean_ms(calls("incremental.fingerprint"))
    lookups = calls("incremental.cache_get")
    if "cache_hit_ratio" in counters:
        out["incremental.cache_hit_ratio"] = counters["cache_hit_ratio"]
    elif lookups:
        out["incremental.cache_hit_ratio"] = sum(s["attrs"]["hit"] for s in lookups) / len(lookups)

    out["executors.spawn_s"] = workload.spawn_s
    out["executors.shm_publish_ms"] = tracing.mean_ms(
        calls("executors.shm_publish", traced)
    )
    if counters["chunks"]:
        out["executors.chunks"] = float(counters["chunks"])
        out["executors.bytes_per_chunk"] = counters["bytes"] / counters["chunks"]
        # Worker compute comes from the in-process replay of the same calls
        # (same cell functions and batch planners): the workers' own
        # ``sweep.cell.seconds`` leaves out the batch planning pass, which
        # is most of a batched cell's work.
        replays = units_of(spans, "replay")
        pooled = units_of(spans, "traced")[-len(replays):]
        out["executors.worker_busy_frac"] = tracing.total_s(replays) / (
            workload.pool.workers * tracing.total_s(pooled)
        )
    journals = getattr(workload, "journals", {}).get("traced")
    if journals:
        out.update(journal_replay(sorted(journals), workload.out))

    if workload.name == "place-service":
        out.update(service_split(spans, traced))
        out["serve.encode_array_ms"] = tracing.mean_ms(calls("serve.encode_array", replayed))
    out["bench.unattributed_frac"] = tracing.unattributed_fraction(spans, "traced")
    return {name: value for name, value in out.items() if value is not None}


def units_of(spans, phase) -> list[dict]:
    return [s for s in spans if s["name"] == "unit" and s["attrs"]["phase"] == phase]


def first_masks_seconds() -> float:
    """The first ``membership_masks`` call on a fresh layout (it builds)."""
    from repro.geometry import MeasurementGrid, OverlappingGridLayout

    layout = OverlappingGridLayout.for_radio_range(SIDE, RADIO_RANGE, NUM_GRIDS)
    grid = MeasurementGrid(SIDE, 1.0)
    start = time.perf_counter()
    layout.membership_masks(grid)
    return time.perf_counter() - start


def journal_replay(paths, scratch) -> dict:
    """``SweepJournal.record`` replayed on the run's journaled cells."""
    from repro.sim import SweepJournal

    cells = size = 0
    seconds = 0.0
    for i, path in enumerate(paths):
        size += path.stat().st_size
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        header, records = lines[0], [r for r in lines[1:] if r.get("kind") == "cell"]
        copy = SweepJournal.open(scratch / f"journal-replay-{i}.jsonl", header["fingerprint"])
        with copy:
            for r in records:
                start = time.perf_counter()
                copy.record(
                    r["key"], ok=r["ok"], value=r.get("value"),
                    attempts=r["attempts"], error=r.get("error"),
                )
                seconds += time.perf_counter() - start
        cells += len(records)
    if not cells:
        return {}
    return {
        "resilient.journal_us_per_cell": 1e6 * seconds / cells,
        "resilient.journal_bytes_per_cell": size / cells,
    }


def service_split(spans, traced) -> dict:
    """Server time (the result frame's ``seconds``) and the wire remainder."""
    server: dict[str, list[float]] = {}
    wire: list[float] = []
    sizes: list[int] = []
    frames = [s for s in traced if s["name"] == "serve.recv_frame"
              and s["attrs"].get("type") == "result"]
    for frame in frames:
        place = spans[frame["parent"]]
        unit = spans[place["parent"]]
        cls, seconds = unit["attrs"]["cls"], frame["attrs"]["seconds"]
        server.setdefault(cls, []).append(1e3 * seconds)
        sizes.append(frame["attrs"]["bytes"])
        if cls == "repeat":
            wire.append(1e3 * (place["end"] - place["start"] - seconds))
    out = {f"serve.server_ms.{cls}": statistics.median(v) for cls, v in server.items()}
    decodes = [s for s in traced if s["name"] == "serve.decode_array"]
    out["serve.decode_array_ms"] = tracing.mean_ms(decodes)
    if wire:
        out["serve.wire_ms.repeat"] = statistics.median(wire)
    if sizes:
        out["serve.result_bytes"] = statistics.fmean(sizes)
    return out


def report(recorder, workload, metrics) -> list[str]:
    """Per-layer self time of the traced phase, counts and coverage."""
    spans = recorder.spans
    traced = {s["id"] for s in units_of(spans, "traced")}
    unit_time = sum(spans[i]["end"] - spans[i]["start"] for i in traced)
    lines = [f"traced phase: {len(traced)} unit spans, {unit_time:.3f} s"]
    lines += _layer_lines(spans, traced, unit_time, "self time")
    replayed = {s["id"] for s in units_of(spans, "replay")}
    if replayed:
        replay_time = sum(spans[i]["end"] - spans[i]["start"] for i in replayed)
        lines.append(f"replay in-process: {len(replayed)} unit spans, {replay_time:.3f} s")
        lines += _layer_lines(spans, replayed, replay_time, "replay self time")
    lines.append(f"unattributed {metrics['bench.unattributed_frac']:.2%}, "
                 f"tracing overhead {metrics['bench.trace_overhead_frac']:.2%}")
    idle = [name for name in PER_LAYER if name not in metrics]
    if idle:
        lines.append(f"not run by {workload.name}: " + ", ".join(idle))
    return lines


def _layer_lines(spans, units, unit_time, label) -> list[str]:
    """Self time, share and call count per layer under the given units."""
    by_layer: dict[str, list] = {}
    roots = tracing.roots(spans)
    for name, selfs in tracing.self_times(
        [s for s, root in zip(spans, roots) if root in units]
    ).items():
        if name == "unit":
            continue
        row = by_layer.setdefault(name.split(".")[0], [0, 0.0])
        row[0] += len(selfs)
        row[1] += sum(selfs)
    lines = []
    for layer, (count, seconds) in sorted(by_layer.items(), key=lambda kv: -kv[1][1]):
        share = seconds / unit_time if unit_time else 0.0
        lines.append(f"{label} {layer:<13} {seconds:9.3f} s {share:7.2%}  {count} calls")
    return lines
