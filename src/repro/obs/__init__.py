"""repro.obs — dependency-free observability: metrics, tracing, profiling.

The measurement substrate under every perf claim in this repo.  Three
instruments, all off by default behind no-op singletons so the tier-1
pipeline stays byte-identical and within a <3% overhead budget
(``benchmarks/bench_obs_overhead.py`` enforces it):

* :mod:`repro.obs.metrics` — process-local counters/gauges/histograms with
  a picklable snapshot/merge protocol, so spawn-pool workers ship their
  numbers back to the sweep parent;
* :mod:`repro.obs.trace` — span tracing to append-only JSONL, same
  conventions as the sweep journal (flushed lines, tolerated partial tail);
* :mod:`repro.obs.profiling` — opt-in cProfile behind the CLI's
  ``--profile``, beside a stage table summed from the command's spans.

:class:`ObsSession` bundles them for the CLI: ``--trace DIR`` routes spans
to ``DIR/trace.jsonl`` and the final metrics snapshot to
``DIR/metrics.json``; ``beaconplace obs DIR`` renders the result
(:mod:`repro.obs.summary`).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from .live import (
    LiveStatus,
    NULL_LIVE,
    STATUS_FILENAME,
    disable_live,
    enable_live,
    format_status,
    get_live,
    live_enabled,
    read_status,
    write_json_atomic,
    write_text_atomic,
)
from .metrics import (
    BUCKET_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    disable_metrics,
    enable_metrics,
    get_metrics,
    metrics_enabled,
    snapshot_to_prometheus,
)
from .profiling import ProfileSession
from .summary import (
    JournalMergeStats,
    JournalSummary,
    METRICS_FILENAME,
    PROFILE_FILENAME,
    TRACE_FILENAME,
    TraceStitch,
    compact_journal,
    format_journal_summary,
    format_metrics_snapshot,
    format_trace_summary,
    format_trace_tree,
    inspect_journal,
    merge_journals,
    stitch_trace,
    summarize_run_dir,
    summarize_spans,
)
from .trace import (
    NULL_TRACER,
    Tracer,
    clear_trace_context,
    current_trace_context,
    disable_tracing,
    enable_tracing,
    get_tracer,
    open_jsonl_append,
    process_metadata,
    read_jsonl,
    read_trace,
    set_trace_context,
    set_worker_id,
    span_record,
    tracing_enabled,
)

__all__ = [
    "BUCKET_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "get_metrics",
    "enable_metrics",
    "disable_metrics",
    "metrics_enabled",
    "Tracer",
    "NULL_TRACER",
    "get_tracer",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "read_jsonl",
    "open_jsonl_append",
    "read_trace",
    "ProfileSession",
    "LiveStatus",
    "NULL_LIVE",
    "STATUS_FILENAME",
    "get_live",
    "enable_live",
    "disable_live",
    "live_enabled",
    "read_status",
    "format_status",
    "write_json_atomic",
    "write_text_atomic",
    "snapshot_to_prometheus",
    "set_trace_context",
    "clear_trace_context",
    "current_trace_context",
    "set_worker_id",
    "process_metadata",
    "span_record",
    "TraceStitch",
    "stitch_trace",
    "format_trace_tree",
    "summarize_spans",
    "summarize_run_dir",
    "format_trace_summary",
    "format_metrics_snapshot",
    "JournalSummary",
    "JournalMergeStats",
    "inspect_journal",
    "compact_journal",
    "merge_journals",
    "format_journal_summary",
    "TRACE_FILENAME",
    "METRICS_FILENAME",
    "PROFILE_FILENAME",
    "ObsSession",
]


class ObsSession:
    """One observed CLI command: metrics + trace + optional profile.

    With neither a run directory nor profiling requested the session is a
    complete no-op — enter/exit install nothing, which is the default CLI
    path.

    Args:
        run_dir: directory for artifacts (``trace.jsonl``,
            ``metrics.json``, and ``profile.txt`` under ``--profile``);
            created on demand.  ``None`` keeps trace/metrics off unless
            profiling alone is requested (spans then go to a temporary
            directory, removed at exit).
        profile: capture a :class:`ProfileSession` and render it with
            this session's spans (available as :attr:`profile_report`).
    """

    def __init__(self, run_dir=None, *, profile: bool = False):
        self.run_dir = Path(run_dir) if run_dir is not None else None
        self.profile = bool(profile)
        self.profile_report: str | None = None
        self._session: ProfileSession | None = None

    @property
    def active(self) -> bool:
        """Whether this session installs any instrumentation at all."""
        return self.run_dir is not None or self.profile

    def __enter__(self) -> "ObsSession":
        if not self.active:
            return self
        enable_metrics()
        if self.run_dir is not None:
            self.run_dir.mkdir(parents=True, exist_ok=True)
            trace_dir = self.run_dir
        else:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-profile-")
            trace_dir = Path(self._tmpdir.name)
        self._tracer = enable_tracing(trace_dir / TRACE_FILENAME)
        if self.profile:
            self._session = ProfileSession()
            self._session.start()
        return self

    def __exit__(self, *exc) -> None:
        if not self.active:
            return
        if self._session is not None:
            self._session.stop()
        snapshot = get_metrics().snapshot()
        disable_tracing()
        disable_metrics()
        if self._session is not None:
            # An appended trace file also holds earlier sessions' spans.
            _, records = read_trace(self._tracer.path)
            mine = [r for r in records if r.get("trace") == self._tracer.trace_id]
            self.profile_report = self._session.render(summarize_spans(mine))
        if self.run_dir is None:
            self._tmpdir.cleanup()
        else:
            # Atomic so a live `top`/`status --prom` never reads a torn file.
            write_json_atomic(self.run_dir / METRICS_FILENAME, snapshot)
            if self.profile_report is not None:
                write_text_atomic(
                    self.run_dir / PROFILE_FILENAME, self.profile_report + "\n"
                )
