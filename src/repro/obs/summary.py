"""Rendering observability artifacts for humans.

One run directory (the CLI's ``--trace DIR``) holds:

* ``trace.jsonl`` — span/event records (:mod:`repro.obs.trace`),
* ``metrics.json`` — the final registry snapshot
  (:meth:`repro.obs.MetricsRegistry.snapshot`),
* ``profile.txt`` — the ``--profile`` breakdown, when requested.

:func:`summarize_run_dir` renders whichever of those exist into the report
behind ``beaconplace obs``: top spans by cumulative time, counters (retries,
timeouts, messages lost …), gauges and duration histograms.

The sweep journal helpers live here too because ``beaconplace journal``
(the ROADMAP inspection/compaction tool) shares this module's rendering.
They parse journal JSONL with the journal's own loader,
:func:`repro.obs.trace.read_jsonl`, without importing the sim layer (obs
sits below everything it instruments, so it must not import upward).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .metrics import BUCKET_BOUNDS
from .trace import read_jsonl, read_trace

__all__ = [
    "summarize_spans",
    "format_trace_summary",
    "format_metrics_snapshot",
    "summarize_run_dir",
    "TraceStitch",
    "stitch_trace",
    "format_trace_tree",
    "JournalSummary",
    "JournalMergeStats",
    "inspect_journal",
    "compact_journal",
    "merge_journals",
    "format_journal_summary",
]

TRACE_FILENAME = "trace.jsonl"
METRICS_FILENAME = "metrics.json"
PROFILE_FILENAME = "profile.txt"


# -- Trace ------------------------------------------------------------------


def summarize_spans(records: list[dict]) -> list[tuple]:
    """Aggregate span records by name.

    Returns:
        ``(name, count, total s, mean s, max s)`` rows, by cumulative time
        descending.
    """
    totals: dict[str, list] = {}
    for record in records:
        if record.get("kind") != "span":
            continue
        entry = totals.setdefault(record["name"], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += record.get("dur", 0.0)
        entry[2] = max(entry[2], record.get("dur", 0.0))
    rows = [
        (name, count, total, total / count, peak)
        for name, (count, total, peak) in totals.items()
    ]
    rows.sort(key=lambda r: r[2], reverse=True)
    return rows


def format_trace_summary(path, *, top: int = 12) -> str:
    """Render the top spans (and event count) of one trace file."""
    from ..viz import format_table

    _, records = read_trace(path)
    spans = summarize_spans(records)
    events = sum(1 for r in records if r.get("kind") == "event")
    lines = [f"trace: {len(records)} record(s), {len(spans)} span name(s), {events} event(s)"]
    if spans:
        rows = [
            (name, count, f"{total:.3f}", f"{mean * 1e3:.2f}", f"{peak * 1e3:.2f}")
            for name, count, total, mean, peak in spans[:top]
        ]
        lines.append(
            format_table(
                ("span", "count", "total (s)", "mean (ms)", "max (ms)"), rows
            )
        )
    return "\n".join(lines)


# -- Trace stitching --------------------------------------------------------


@dataclass(frozen=True)
class TraceStitch:
    """One distributed trace reassembled from span records.

    Attributes:
        spans: every span record carrying a ``span`` id.
        roots: spans with no parent — normally the driver's top-level
            section(s) (``sweep.run_cells``).
        children: parent span id → child records, dispatch order preserved.
        orphans: spans naming a parent that no record defines — a stitching
            failure (lost context, or a trace file truncated mid-run).
        legacy: span records without ids (pre-v2 traces); they cannot be
            placed in the tree.
        traces: distinct trace ids seen.
    """

    spans: list[dict]
    roots: list[dict]
    children: dict[str, list[dict]]
    orphans: list[dict]
    legacy: list[dict]
    traces: list[str]


def stitch_trace(records: list[dict]) -> TraceStitch:
    """Reassemble span records into a driver → worker → cell tree.

    Worker-side spans ship home with the driver's span id as their
    ``parent`` (:func:`repro.obs.trace.span_record`), so one socket or pool
    sweep stitches into a single tree no matter how many processes and
    machines produced the spans.
    """
    spans = [r for r in records if r.get("kind") == "span" and "span" in r]
    legacy = [r for r in records if r.get("kind") == "span" and "span" not in r]
    by_id = {r["span"]: r for r in spans}
    roots: list[dict] = []
    orphans: list[dict] = []
    children: dict[str, list[dict]] = {}
    for record in spans:
        parent = record.get("parent")
        if parent is None:
            roots.append(record)
        elif parent in by_id:
            children.setdefault(parent, []).append(record)
        else:
            orphans.append(record)
    traces = sorted({r["trace"] for r in spans if "trace" in r})
    return TraceStitch(
        spans=spans,
        roots=roots,
        children=children,
        orphans=orphans,
        legacy=legacy,
        traces=traces,
    )


def _span_origin(record: dict) -> str:
    origin = record.get("worker") or f"pid {record.get('pid', '?')}"
    host = record.get("host")
    return f"{origin}@{host}" if host else str(origin)


def _render_subtree(record: dict, children: dict, lines: list[str],
                    prefix: str, last: bool, max_children: int) -> None:
    connector = "└─ " if last else "├─ "
    attrs = record.get("attrs") or {}
    key = attrs.get("key")
    label = f"{record['name']}{' ' + _fmt_stitch_key(key) if key is not None else ''}"
    lines.append(
        f"{prefix}{connector}{label}  {record.get('dur', 0.0):.3f}s"
        f"  [{_span_origin(record)}]"
    )
    kids = children.get(record["span"], [])
    shown = kids[:max_children]
    child_prefix = prefix + ("   " if last else "│  ")
    for i, kid in enumerate(shown):
        kid_last = i == len(shown) - 1 and len(kids) <= max_children
        _render_subtree(kid, children, lines, child_prefix, kid_last, max_children)
    if len(kids) > max_children:
        lines.append(f"{child_prefix}└─ … {len(kids) - max_children} more")


def _fmt_stitch_key(key) -> str:
    if isinstance(key, list):
        return "(" + ", ".join(str(k) for k in key) + ")"
    return str(key)


def format_trace_tree(path, *, max_children: int = 8) -> str:
    """Render the stitched trace tree of one trace file."""
    _, records = read_trace(path)
    stitch = stitch_trace(records)
    if not stitch.spans:
        return "trace tree: no id-carrying spans (trace predates stitching?)"
    trace_label = ", ".join(stitch.traces) if stitch.traces else "?"
    lines = [
        f"trace {trace_label} — {len(stitch.spans)} span(s), "
        f"{len(stitch.roots)} root(s), {len(stitch.orphans)} orphan(s)"
        + (f", {len(stitch.legacy)} legacy" if stitch.legacy else "")
    ]
    for i, root in enumerate(stitch.roots):
        _render_subtree(
            root, stitch.children, lines, "", i == len(stitch.roots) - 1, max_children
        )
    for orphan in stitch.orphans:
        lines.append(
            f"?? orphan {orphan['name']} (parent {orphan.get('parent')!r} missing)"
            f"  [{_span_origin(orphan)}]"
        )
    return "\n".join(lines)


# -- Metrics ----------------------------------------------------------------


def _quantile_from_buckets(buckets: list[int], q: float) -> float | None:
    """Approximate the q-quantile from log-bucket counts (upper bound)."""
    total = sum(buckets)
    if total == 0:
        return None
    target = q * total
    seen = 0
    for i, count in enumerate(buckets):
        seen += count
        if seen >= target:
            return BUCKET_BOUNDS[i] if i < len(BUCKET_BOUNDS) else math.inf
    return BUCKET_BOUNDS[-1]


def format_metrics_snapshot(snapshot: dict) -> str:
    """Render one registry snapshot (counters, gauges, histograms)."""
    from ..viz import format_table

    sections = []
    counters = snapshot.get("counters", {})
    if counters:
        rows = [(name, counters[name]) for name in sorted(counters)]
        sections.append("counters:\n" + format_table(("name", "total"), rows))
    gauges = snapshot.get("gauges", {})
    if gauges:
        rows = [(name, f"{gauges[name]:g}") for name in sorted(gauges)]
        sections.append("gauges:\n" + format_table(("name", "value"), rows))
    histograms = snapshot.get("histograms", {})
    if histograms:
        rows = []
        for name in sorted(histograms):
            h = histograms[name]
            count = h["count"]
            mean = h["sum"] / count if count else 0.0
            p95 = _quantile_from_buckets(h["buckets"], 0.95)
            rows.append(
                (
                    name,
                    count,
                    f"{mean * 1e3:.2f}",
                    f"{(p95 or 0.0) * 1e3:.2f}",
                    f"{(h['max'] or 0.0) * 1e3:.2f}",
                )
            )
        sections.append(
            "histograms (seconds-scale):\n"
            + format_table(
                ("name", "count", "mean (ms)", "~p95 (ms)", "max (ms)"), rows
            )
        )
    if not sections:
        return "metrics: empty snapshot"
    return "\n\n".join(sections)


def summarize_run_dir(run_dir) -> str:
    """Render every observability artifact present in ``run_dir``.

    Raises:
        FileNotFoundError: if the directory holds none of the artifacts.
    """
    run_dir = Path(run_dir)
    sections = []
    trace_path = run_dir / TRACE_FILENAME
    if trace_path.exists():
        sections.append(format_trace_summary(trace_path))
        _, records = read_trace(trace_path)
        stitch = stitch_trace(records)
        if stitch.spans:
            hosts = {r.get("host") for r in stitch.spans} - {None}
            pids = {r.get("pid") for r in stitch.spans} - {None}
            sections.append(
                f"stitched trace: {len(stitch.spans)} span(s) across "
                f"{len(pids)} process(es) on {len(hosts)} host(s), "
                f"{len(stitch.roots)} root(s), {len(stitch.orphans)} orphan(s)"
            )
    metrics_path = run_dir / METRICS_FILENAME
    if metrics_path.exists():
        with metrics_path.open() as handle:
            sections.append(format_metrics_snapshot(json.load(handle)))
    profile_path = run_dir / PROFILE_FILENAME
    if profile_path.exists():
        sections.append(f"profile breakdown: see {profile_path}")
    if not sections:
        raise FileNotFoundError(
            f"no observability artifacts in {run_dir} "
            f"(expected {TRACE_FILENAME} and/or {METRICS_FILENAME}; "
            "produce them with --trace/--profile)"
        )
    return "\n\n".join(sections)


# -- Sweep journals ---------------------------------------------------------


@dataclass(frozen=True)
class JournalSummary:
    """What ``beaconplace journal`` reports about one sweep journal.

    Attributes:
        path: the journal file.
        fingerprint: sweep identity from the header.
        total_lines: cell lines in the file (including superseded ones).
        done: keys whose latest entry succeeded with a finite value.
        nan: keys whose latest entry succeeded with a NaN/None value.
        failed: keys whose latest entry is a failure (degrades to NaN).
        superseded: stale lines for keys that have a later entry —
            exactly what ``--compact`` drops.
        attempts: total attempts recorded across latest entries.
    """

    path: Path
    fingerprint: str
    total_lines: int
    done: int
    nan: int
    failed: int
    superseded: int
    attempts: int


def _load_journal_lines(path: Path) -> tuple[dict, list[dict]]:
    records = read_jsonl(path)
    if not records or records[0].get("kind") != "header":
        raise ValueError(f"journal {path} has no header line")
    return records[0], [r for r in records[1:] if r.get("kind") == "cell"]


def _latest_entries(cells: list[dict]) -> dict:
    latest: dict = {}
    for record in cells:
        latest[tuple(record["key"])] = record
    return latest


def inspect_journal(path) -> JournalSummary:
    """Summarize a sweep journal without touching it."""
    path = Path(path)
    header, cells = _load_journal_lines(path)
    latest = _latest_entries(cells)
    done = nan = failed = attempts = 0
    for entry in latest.values():
        attempts += int(entry.get("attempts", 1))
        if not entry.get("ok"):
            failed += 1
        else:
            value = entry.get("value")
            if value is None or (isinstance(value, float) and math.isnan(value)):
                nan += 1
            else:
                done += 1
    return JournalSummary(
        path=path,
        fingerprint=str(header.get("fingerprint", "")),
        total_lines=len(cells),
        done=done,
        nan=nan,
        failed=failed,
        superseded=len(cells) - len(latest),
        attempts=attempts,
    )


def compact_journal(path) -> tuple[int, int]:
    """Drop superseded lines from a journal, in place (atomic replace).

    A line is superseded when a later line exists for the same cell key —
    the retry bookkeeping of resumed runs.  The surviving lines keep their
    original order of last occurrence, so a compacted journal loads to the
    same state as the original.

    Returns:
        ``(kept, dropped)`` cell-line counts.
    """
    path = Path(path)
    header, cells = _load_journal_lines(path)
    latest = _latest_entries(cells)
    kept = [entry for entry in cells if latest[tuple(entry["key"])] is entry]
    tmp = path.with_suffix(path.suffix + ".compact")
    with tmp.open("w") as handle:
        handle.write(json.dumps(header) + "\n")
        for entry in kept:
            handle.write(json.dumps(entry) + "\n")
    tmp.replace(path)
    return len(kept), len(cells) - len(kept)


@dataclass(frozen=True)
class JournalMergeStats:
    """What :func:`merge_journals` did.

    Attributes:
        out: the merged journal path.
        fingerprint: the (single) sweep identity all inputs shared.
        inputs: number of input journals read.
        cells: distinct cell keys in the merged journal.
        superseded: input cell lines dropped because a later input (or a
            later line in the same input) recorded the same key —
            last-writer-wins, in the order the inputs were given.
    """

    out: Path
    fingerprint: str
    inputs: int
    cells: int
    superseded: int


def merge_journals(out, inputs) -> JournalMergeStats:
    """Merge sharded/distributed sweep journals into one.

    The shards of one sweep — separate machines each running a slice of the
    cells, or interrupted runs of the same sweep — share a fingerprint;
    merging journals from *different* sweeps is refused.  Duplicate cell
    keys resolve last-writer-wins across the concatenation of the inputs in
    the order given, matching how a single journal resolves its own
    superseded lines; the merged file is compact (one line per key, in
    order of last occurrence) and atomically replaces ``out`` (which may
    itself be one of the inputs).

    Args:
        out: destination path for the merged journal.
        inputs: one or more journal paths to merge.

    Raises:
        ValueError: no inputs, or the inputs' fingerprints disagree.
        FileNotFoundError: an input journal does not exist.
    """
    paths = [Path(p) for p in inputs]
    if not paths:
        raise ValueError("merge needs at least one input journal")
    loaded = []
    for path in paths:
        if not path.exists():
            raise FileNotFoundError(f"no journal at {path}")
        loaded.append((path, *_load_journal_lines(path)))
    fingerprints = {str(header.get("fingerprint", "")) for _, header, _ in loaded}
    if len(fingerprints) != 1:
        detail = ", ".join(
            f"{path}: {header.get('fingerprint')!r}" for path, header, _ in loaded
        )
        raise ValueError(
            f"journals belong to different sweeps ({detail}); "
            "only shards of one sweep can merge"
        )
    header = loaded[0][1]
    combined = [record for _, _, cells in loaded for record in cells]
    latest = _latest_entries(combined)
    kept = [entry for entry in combined if latest[tuple(entry["key"])] is entry]
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_suffix(out.suffix + ".merge")
    with tmp.open("w") as handle:
        handle.write(json.dumps(header) + "\n")
        for entry in kept:
            handle.write(json.dumps(entry) + "\n")
    tmp.replace(out)
    return JournalMergeStats(
        out=out,
        fingerprint=fingerprints.pop(),
        inputs=len(paths),
        cells=len(kept),
        superseded=len(combined) - len(kept),
    )


def format_journal_summary(summary: JournalSummary, *, keys: bool = False) -> str:
    """Render one :class:`JournalSummary` (optionally listing cell keys)."""
    from ..viz import format_table

    cells = summary.done + summary.nan + summary.failed
    rows = [
        ("fingerprint", summary.fingerprint),
        ("cells recorded", cells),
        ("done", summary.done),
        ("NaN-valued", summary.nan),
        ("failed (degrade to NaN)", summary.failed),
        ("superseded lines", summary.superseded),
        ("attempts (latest entries)", summary.attempts),
    ]
    text = f"journal {summary.path}\n" + format_table(("field", "value"), rows)
    if keys:
        _, records = _load_journal_lines(summary.path)
        lines = []
        for key, entry in sorted(_latest_entries(records).items()):
            status = "ok" if entry.get("ok") else f"FAILED ({entry.get('error', '?')})"
            lines.append(f"  {list(key)}: {status} after {entry.get('attempts', 1)} attempt(s)")
        text += "\ncells:\n" + "\n".join(lines)
    return text
