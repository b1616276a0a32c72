"""Unit tests for repro.obs (metrics, tracing, profiling, summaries)."""

import json
import math
import os
import pickle
import time

import pytest

from repro.obs import (
    BUCKET_BOUNDS,
    MetricsRegistry,
    NULL_REGISTRY,
    NULL_TRACER,
    ObsSession,
    ProfileSession,
    compact_journal,
    disable_metrics,
    disable_tracing,
    enable_metrics,
    enable_tracing,
    format_journal_summary,
    format_metrics_snapshot,
    get_metrics,
    get_tracer,
    inspect_journal,
    metrics_enabled,
    read_trace,
    summarize_run_dir,
    summarize_spans,
)
from repro.sim import (
    PoolExecutor,
    RetryPolicy,
    SweepJournal,
    mean_error_curve,
    run_cells,
)
from repro.sim.executors.base import run_one_cell


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends with observability fully off."""
    disable_metrics()
    disable_tracing()
    yield
    disable_metrics()
    disable_tracing()


class TestInstruments:
    def test_counter(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.counter("c") is counter

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge(self):
        gauge = MetricsRegistry().gauge("g")
        assert gauge.value is None
        gauge.set(3.5)
        assert gauge.value == 3.5

    def test_histogram_stats(self):
        hist = MetricsRegistry().histogram("h")
        for value in (0.001, 0.01, 0.1):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == pytest.approx(0.111)
        assert hist.min == pytest.approx(0.001)
        assert hist.max == pytest.approx(0.1)
        assert hist.mean == pytest.approx(0.111 / 3)
        assert sum(hist.counts) == 3

    def test_histogram_bucket_edges(self):
        hist = MetricsRegistry().histogram("h")
        hist.observe(0.0)  # below every bound -> first bucket
        hist.observe(1e9)  # above every bound -> overflow bucket
        assert hist.counts[0] == 1
        assert hist.counts[-1] == 1
        assert len(hist.counts) == len(BUCKET_BOUNDS) + 1

    def test_histogram_timer(self):
        hist = MetricsRegistry().histogram("h")
        with hist.time():
            pass
        assert hist.count == 1
        assert hist.max >= 0.0


class TestSnapshotMerge:
    def _registry(self, counter=0, gauge=None, samples=()):
        registry = MetricsRegistry()
        if counter:
            registry.counter("c").inc(counter)
        if gauge is not None:
            registry.gauge("g").set(gauge)
        for s in samples:
            registry.histogram("h").observe(s)
        return registry

    def test_snapshot_pickles_and_json_round_trips(self):
        snap = self._registry(counter=3, gauge=1.5, samples=[0.01, 0.2]).snapshot()
        assert pickle.loads(pickle.dumps(snap)) == snap
        assert json.loads(json.dumps(snap)) == snap

    def test_merge_adds_counters_and_histograms(self):
        a = self._registry(counter=2, samples=[0.01])
        b = self._registry(counter=5, samples=[0.1, 1.0])
        a.merge(b.snapshot())
        assert a.counter("c").value == 7
        hist = a.histogram("h")
        assert hist.count == 3
        assert hist.min == pytest.approx(0.01)
        assert hist.max == pytest.approx(1.0)

    def test_merge_gauges_take_max(self):
        a = self._registry(gauge=0.25)
        a.merge(self._registry(gauge=0.75).snapshot())
        a.merge(self._registry(gauge=0.5).snapshot())
        assert a.gauge("g").value == 0.75

    def test_merge_associative_through_pickle(self):
        """(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c), with snapshots shipped via pickle."""
        parts = [
            self._registry(counter=1, gauge=0.1, samples=[0.001]),
            self._registry(counter=10, gauge=0.9, samples=[0.5, 2.0]),
            self._registry(counter=100, samples=[30.0]),
        ]
        snaps = [pickle.loads(pickle.dumps(r.snapshot())) for r in parts]

        left = MetricsRegistry()
        left.merge(snaps[0])
        left.merge(snaps[1])
        left.merge(snaps[2])

        inner = MetricsRegistry()
        inner.merge(snaps[1])
        inner.merge(snaps[2])
        right = MetricsRegistry()
        right.merge(snaps[0])
        right.merge(inner.snapshot())

        assert left.snapshot() == right.snapshot()

    def test_merge_rejects_unknown_version(self):
        with pytest.raises(ValueError, match="version"):
            MetricsRegistry().merge({"version": 999})

    def test_merge_rejects_incompatible_buckets(self):
        snap = self._registry(samples=[0.1]).snapshot()
        snap["histograms"]["h"]["buckets"] = [1, 2, 3]
        with pytest.raises(ValueError, match="buckets"):
            MetricsRegistry().merge(snap)


class TestNullDefaults:
    def test_default_registry_is_null(self):
        assert get_metrics() is NULL_REGISTRY
        assert not metrics_enabled()

    def test_null_instruments_record_nothing(self):
        registry = get_metrics()
        registry.counter("x").inc(100)
        registry.gauge("y").set(5.0)
        registry.histogram("z").observe(1.0)
        snap = registry.snapshot()
        assert snap["counters"] == {} and snap["histograms"] == {}

    def test_null_instruments_are_shared_singletons(self):
        registry = get_metrics()
        assert registry.counter("a") is registry.counter("b")

    def test_enable_disable(self):
        registry = enable_metrics()
        assert metrics_enabled() and get_metrics() is registry
        disable_metrics()
        assert not metrics_enabled()

    def test_default_tracer_is_null(self):
        assert get_tracer() is NULL_TRACER
        with get_tracer().span("anything", attr=1):
            pass  # must be a no-op, no file anywhere


class TestRunOneCellInstrument:
    """An instrumented cell runs under a private registry (the worker side
    of the snapshot/merge protocol) and leaves the caller's in place."""

    def test_wraps_value_and_ships_snapshot(self):
        result = run_one_cell(_count_and_double, 21, instrument=True)
        assert result["ok"] and result["value"] == 42
        assert result["seconds"] >= 0.0
        assert result["metrics"]["counters"]["test.calls"] == 1
        assert result["metrics"]["histograms"]["sweep.cell.seconds"]["count"] == 1

    def test_restores_previous_registry(self):
        mine = enable_metrics()
        run_one_cell(_count_and_double, 1, instrument=True)
        assert get_metrics() is mine
        assert mine.counter("test.calls").value == 0

    def test_restores_null_when_disabled(self):
        run_one_cell(_count_and_double, 1, instrument=True)
        assert not metrics_enabled()


def _count_and_double(args):
    get_metrics().counter("test.calls").inc()
    return args * 2


class TestWorkerMerge:
    def test_pool_cells_ship_metrics_to_parent(self):
        """Per-worker registries merge into the parent across a spawn pool."""
        registry = enable_metrics()
        jobs = [((i,), i) for i in range(4)]
        with PoolExecutor(workers=2) as pool:
            results = run_cells(
                jobs,
                _count_and_double,
                policy=RetryPolicy(max_attempts=1, timeout=60.0, backoff=0.0),
                executor=pool,
            )
        assert results == {(i,): i * 2 for i in range(4)}
        assert registry.counter("test.calls").value == 4
        assert registry.histogram("sweep.cell.seconds").count == 4
        assert registry.counter("sweep.cells.completed").value == 4

    def test_serial_cells_use_parent_registry_directly(self):
        registry = enable_metrics()
        run_cells([((i,), i) for i in range(3)], _count_and_double)
        assert registry.counter("test.calls").value == 3
        assert registry.histogram("sweep.cell.seconds").count == 3


def _die_or_wait(args):
    if args == "die":
        os._exit(1)
    value, marker = args
    if os.path.exists(marker):  # retried attempt, after the pool rebuild
        return value * 3
    # First attempt: leave a marker and stay in flight until the pool
    # rebuild terminates this worker.  Any fixed sleep races — worker-death
    # detection can be delayed arbitrarily on a loaded host, and this cell
    # must still be outstanding when the pool breaks to be requeued as
    # innocent.  The 600 s cap is a failsafe; the policy timeout rebuilds
    # the pool long before it expires.
    with open(marker, "w"):
        pass
    time.sleep(600.0)
    return value * 3


class TestPoolRebuildSurfacing:
    def test_innocent_requeues_counted_and_reported(self, tmp_path):
        """A pool death surfaces how many batch-mates were requeued."""
        registry = enable_metrics()
        marker = tmp_path / "attempted"
        messages = []
        with PoolExecutor(workers=2) as pool:
            results = run_cells(
                [(("die",), "die"), (("ok",), (5, str(marker)))],
                _die_or_wait,
                policy=RetryPolicy(max_attempts=2, timeout=60.0, backoff=0.0),
                progress=messages.append,
                executor=pool,
            )
        assert results[("die",)] is None
        assert results[("ok",)] == 15
        assert registry.counter("sweep.pool.rebuilds").value >= 1
        assert registry.counter("sweep.cells.requeued_innocent").value >= 1
        assert registry.counter("sweep.cells.worker_death").value >= 1
        assert any("innocent" in m for m in messages)


class TestTracer:
    def test_spans_and_events_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = enable_tracing(path)
        with tracer.span("outer", label="x"):
            with tracer.span("inner"):
                pass
        tracer.event("tick", n=3)
        tracer.record_span("remote", 1.25, key=[0, 8])
        disable_tracing()

        header, records = read_trace(path)
        assert header["format"] == "repro-trace"
        kinds = [(r["kind"], r["name"]) for r in records]
        # Inner closes before outer; spans are written on exit.
        assert kinds == [
            ("span", "inner"),
            ("span", "outer"),
            ("event", "tick"),
            ("span", "remote"),
        ]
        outer = records[1]
        assert outer["dur"] >= 0.0
        assert outer["attrs"] == {"label": "x"}
        assert records[0]["depth"] == 1 and outer["depth"] == 0
        assert records[3]["dur"] == 1.25

    def test_partial_trailing_line_tolerated(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = enable_tracing(path)
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        disable_tracing()
        text = path.read_text()
        path.write_text(text[:-9])  # chop the final line mid-record
        _, records = read_trace(path)
        assert [r["name"] for r in records] == ["a"]

    def test_tracing_after_torn_tail_keeps_new_records(self, tmp_path):
        """A tracer reopening a killed run's file drops the partial last
        line instead of gluing its first record onto it."""
        path = tmp_path / "trace.jsonl"
        tracer = enable_tracing(path)
        for name in ("a", "b"):
            with tracer.span(name):
                pass
        disable_tracing()
        text = path.read_text()
        path.write_text(text[:-10])
        tracer = enable_tracing(path)
        for name in ("c", "d"):
            with tracer.span(name):
                pass
        disable_tracing()
        _, records = read_trace(path)
        assert [r["name"] for r in records] == ["a", "c", "d"]

    def test_non_trace_file_rejected(self, tmp_path):
        path = tmp_path / "not_a_trace.jsonl"
        path.write_text('{"kind": "cell", "key": [0]}\n')
        with pytest.raises(ValueError, match="header"):
            read_trace(path)

    def test_append_preserves_existing_records(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = enable_tracing(path)
        tracer.event("first")
        disable_tracing()
        tracer = enable_tracing(path)
        tracer.event("second")
        disable_tracing()
        _, records = read_trace(path)
        assert [r["name"] for r in records] == ["first", "second"]

    def test_error_span_tagged(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = enable_tracing(path)
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        disable_tracing()
        _, records = read_trace(path)
        assert records[0]["attrs"]["error"] == "RuntimeError"


class TestProfileSession:
    def test_sections_and_render(self):
        session = ProfileSession()
        session.start()
        sum(range(1000))
        session.stop()
        stages = summarize_spans(
            [
                {"kind": "span", "name": "stage.a", "dur": 0.002},
                {"kind": "span", "name": "stage.a", "dur": 0.001},
                {"kind": "span", "name": "stage.b", "dur": 0.0005},
            ]
        )
        report = session.render(stages)
        assert session.wall_seconds > 0.0
        assert "profiled wall time" in report
        table = report.split("top 15 functions")[0]
        row_a = next(line for line in table.splitlines() if "stage.a" in line)
        assert row_a.split()[1:4] == ["2", "0.003", "1.50"]  # count, total s, mean ms
        assert table.index("stage.a") < table.index("stage.b")
        assert "cumulative" in report
        assert "stage" not in session.render().split("top 15 functions")[0]


class TestSummaries:
    def test_summarize_spans_orders_by_cumulative(self):
        records = [
            {"kind": "span", "name": "small", "dur": 0.1},
            {"kind": "span", "name": "big", "dur": 2.0},
            {"kind": "span", "name": "big", "dur": 3.0},
            {"kind": "event", "name": "ignored"},
        ]
        rows = summarize_spans(records)
        assert [r[0] for r in rows] == ["big", "small"]
        assert rows[0][1] == 2 and rows[0][2] == pytest.approx(5.0)

    def test_format_metrics_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("sweep.cells.completed").inc(7)
        registry.gauge("protocol.collision_rate").set(0.25)
        registry.histogram("sweep.cell.seconds").observe(0.05)
        text = format_metrics_snapshot(registry.snapshot())
        assert "sweep.cells.completed" in text
        assert "protocol.collision_rate" in text
        assert "sweep.cell.seconds" in text

    def test_empty_run_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="observability artifacts"):
            summarize_run_dir(tmp_path)

    def test_obs_session_writes_artifacts(self, tmp_path):
        run_dir = tmp_path / "run"
        with ObsSession(run_dir, profile=True):
            get_metrics().counter("demo").inc()
            with get_tracer().span("demo.span"):
                pass
        assert not metrics_enabled()
        snapshot = json.loads((run_dir / "metrics.json").read_text())
        assert snapshot["counters"]["demo"] == 1
        _, records = read_trace(run_dir / "trace.jsonl")
        assert records[0]["name"] == "demo.span"
        assert "demo.span" in (run_dir / "profile.txt").read_text()
        text = summarize_run_dir(run_dir)
        assert "demo.span" in text and "demo" in text

    def test_inactive_session_is_noop(self, tmp_path):
        with ObsSession(None, profile=False):
            assert not metrics_enabled()
        assert list(tmp_path.iterdir()) == []

    def test_profile_without_run_dir_tables_its_spans_and_leaves_no_trace(self):
        """``--profile`` alone traces into a temporary directory: the stage
        table holds exactly the spans opened inside the session, and the
        trace file is gone afterwards."""
        session = ObsSession(None, profile=True)
        with session:
            trace_path = get_tracer().path
            for _ in range(3):
                with get_tracer().span("demo.stage"):
                    pass
        assert not trace_path.exists() and not trace_path.parent.exists()
        assert get_tracer() is NULL_TRACER and not metrics_enabled()
        table = session.profile_report.split("top 15 functions")[0]
        rows = [line.split() for line in table.splitlines() if "demo." in line]
        assert [row[:2] for row in rows] == [["demo.stage", "3"]]

    def test_profile_table_skips_earlier_sessions_in_the_same_trace(self, tmp_path):
        run_dir = tmp_path / "run"
        with ObsSession(run_dir):
            with get_tracer().span("earlier.stage"):
                pass
        session = ObsSession(run_dir, profile=True)
        with session:
            with get_tracer().span("later.stage"):
                pass
        _, records = read_trace(run_dir / "trace.jsonl")
        assert {r["name"] for r in records} == {"earlier.stage", "later.stage"}
        assert "later.stage" in session.profile_report
        assert "earlier.stage" not in session.profile_report


class TestJournalTools:
    def _journal_with_history(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with SweepJournal.open(path, "fp") as journal:
            journal.record((0.0, 8, 0), ok=False, attempts=3, error="flake")
            journal.record((0.0, 8, 1), ok=True, value=1.5, attempts=1)
            journal.record((0.0, 8, 0), ok=True, value=2.5, attempts=2)  # retry won
            journal.record((0.0, 8, 2), ok=False, attempts=3, error="dead")
            journal.record((0.0, 8, 3), ok=True, value=float("nan"), attempts=1)
        return path

    def test_inspect_counts(self, tmp_path):
        summary = inspect_journal(self._journal_with_history(tmp_path))
        assert summary.fingerprint == "fp"
        assert summary.total_lines == 5
        assert summary.done == 2
        assert summary.failed == 1
        assert summary.nan == 1
        assert summary.superseded == 1

    def test_inspect_tolerates_partial_tail(self, tmp_path):
        path = self._journal_with_history(tmp_path)
        path.write_text(path.read_text()[:-7])
        summary = inspect_journal(path)
        assert summary.total_lines == 4

    def test_compact_drops_superseded_only(self, tmp_path):
        path = self._journal_with_history(tmp_path)
        before = SweepJournal._load(path)[1]
        kept, dropped = compact_journal(path)
        assert (kept, dropped) == (4, 1)
        header, after = SweepJournal._load(path)
        assert header["fingerprint"] == "fp"
        assert after == before  # loader state unchanged by compaction
        assert inspect_journal(path).superseded == 0

    def test_compact_is_idempotent(self, tmp_path):
        path = self._journal_with_history(tmp_path)
        compact_journal(path)
        assert compact_journal(path) == (4, 0)

    def test_format_summary_lists_cells(self, tmp_path):
        summary = inspect_journal(self._journal_with_history(tmp_path))
        text = format_journal_summary(summary, keys=True)
        assert "fingerprint" in text
        assert "[0.0, 8, 2]: FAILED" in text

    def test_headerless_journal_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "cell", "key": [0], "ok": true}\n')
        with pytest.raises(ValueError, match="header"):
            inspect_journal(path)


class TestByteIdentical:
    def test_curve_identical_with_obs_on_and_off(self, tiny_config, tmp_path):
        """Instrumentation must never perturb the numeric pipeline."""
        plain = mean_error_curve(tiny_config, 0.3)
        with ObsSession(tmp_path / "run", profile=True):
            observed = mean_error_curve(tiny_config, 0.3)
        assert observed.values == plain.values
        assert observed.ci_half_widths == plain.ci_half_widths

    def test_nan_value_survives_snapshot_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.gauge("g").set(1.0)
        snap = registry.snapshot()
        assert not any(
            isinstance(v, float) and math.isnan(v) for v in snap["gauges"].values()
        )
