"""Process-local metrics: counters, gauges, log-bucket histograms.

The sweep/protocol/placement stack is instrumented with *instruments* —
counters (monotonic totals: cells completed, retries, messages lost),
gauges (last/peak values: duty fraction, collision rate) and histograms
(durations, with fixed log-scale buckets so merging never re-bins).  All
instruments live in a :class:`MetricsRegistry`.

Two registries exist at any time conceptually:

* the **null registry** (:data:`NULL_REGISTRY`) — the default.  Every
  instrument it hands out is a shared no-op singleton, so instrumented
  code pays one attribute call per record site and nothing else.  This is
  what keeps tier-1 results byte-identical with observability off.
* an **active registry**, installed with :func:`enable_metrics` (the CLI's
  ``--trace``/``--profile`` session does this).  Instrumented code always
  fetches the current one via :func:`get_metrics`.

Worker processes cannot share the parent's registry (sweeps use ``spawn``
pools), so registries support a snapshot/merge protocol: a worker runs its
cell under a private registry (:func:`repro.sim.executors.base.run_one_cell`
with ``instrument``), ships back a picklable plain-dict
:func:`MetricsRegistry.snapshot`, and the parent folds it in with
:func:`MetricsRegistry.merge`.  Merge is associative and commutative
(counters and histogram fields add, gauges take the max), so aggregation
order across workers never changes the result.
"""

from __future__ import annotations

import re
import threading
import time
from typing import Callable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "get_metrics",
    "enable_metrics",
    "disable_metrics",
    "metrics_enabled",
    "snapshot_to_prometheus",
]

SNAPSHOT_VERSION = 1

# Histogram bucket upper bounds: 4 buckets per decade, 1e-6 .. 1e3 (seconds
# scale for durations, but unit-agnostic).  Fixed so that snapshots from any
# process merge bucket-for-bucket.
BUCKET_BOUNDS: tuple[float, ...] = tuple(10.0 ** (k / 4.0) for k in range(-24, 13))


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be non-negative) to the total."""
        if n < 0:
            raise ValueError(f"counters only go up, got {n}")
        self.value += n


class Gauge:
    """A point-in-time value (merge takes the maximum across processes)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float | None = None

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)


class Histogram:
    """Sample distribution over fixed log-scale buckets.

    ``counts[i]`` counts samples ``<= BUCKET_BOUNDS[i]`` (and above the
    previous bound); the final slot is the overflow bucket.  Count, sum,
    min and max are tracked exactly, so means are exact and only quantiles
    are bucket-resolution approximations.
    """

    __slots__ = ("count", "total", "min", "max", "counts")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.counts = [0] * (len(BUCKET_BOUNDS) + 1)

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.counts[_bucket_index(value)] += 1

    @property
    def mean(self) -> float:
        """Exact sample mean (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def time(self) -> "_HistogramTimer":
        """Context manager observing the wall-clock duration of its body."""
        return _HistogramTimer(self)


def _bucket_index(value: float) -> int:
    lo, hi = 0, len(BUCKET_BOUNDS)
    while lo < hi:
        mid = (lo + hi) // 2
        if value <= BUCKET_BOUNDS[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo


class _HistogramTimer:
    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: Histogram):
        self._histogram = histogram

    def __enter__(self) -> "_HistogramTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._histogram.observe(time.perf_counter() - self._start)


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, n: int = 1) -> None:  # noqa: D102 — deliberate no-op
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:  # noqa: D102 — deliberate no-op
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:  # noqa: D102 — deliberate no-op
        pass


class MetricsRegistry:
    """Named instruments plus the snapshot/merge protocol.

    Instrument accessors create on first use and are thread-safe; the
    instruments themselves are plain attribute updates (atomic enough for
    CPython counters, and sweeps only write from one thread per process).
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()
        # Baselines for snapshot_delta(): name -> last-shipped value.
        self._delta_counters: dict[str, int] = {}
        self._delta_gauges: dict[str, float] = {}
        self._delta_histograms: dict[str, tuple] = {}

    @property
    def enabled(self) -> bool:
        """Whether records are retained (False only for the null registry)."""
        return True

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        return self._get(self._counters, name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        return self._get(self._gauges, name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name`` (created on first use)."""
        return self._get(self._histograms, name, Histogram)

    def _get(self, table: dict, name: str, factory: Callable):
        instrument = table.get(name)
        if instrument is None:
            with self._lock:
                instrument = table.setdefault(name, factory())
        return instrument

    def snapshot(self) -> dict:
        """A picklable, JSON-able plain-dict copy of every instrument."""
        return {
            "version": SNAPSHOT_VERSION,
            "counters": {n: c.value for n, c in self._counters.items()},
            "gauges": {
                n: g.value for n, g in self._gauges.items() if g.value is not None
            },
            "histograms": {
                n: {
                    "count": h.count,
                    "sum": h.total,
                    "min": h.min,
                    "max": h.max,
                    "buckets": list(h.counts),
                }
                for n, h in self._histograms.items()
            },
        }

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker) into this registry.

        Counters and histogram fields add; gauges keep the maximum.  The
        operation is associative and commutative, so per-worker snapshots
        may arrive (and be merged) in any order.
        """
        version = snapshot.get("version", SNAPSHOT_VERSION)
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported metrics snapshot version {version!r}")
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).value += value
        for name, value in snapshot.get("gauges", {}).items():
            gauge = self.gauge(name)
            if gauge.value is None or value > gauge.value:
                gauge.value = value
        for name, data in snapshot.get("histograms", {}).items():
            hist = self.histogram(name)
            buckets = data["buckets"]
            if len(buckets) != len(hist.counts):
                raise ValueError(
                    f"histogram {name!r} has {len(buckets)} buckets, "
                    f"expected {len(hist.counts)} — snapshot from an "
                    "incompatible build"
                )
            hist.count += data["count"]
            hist.total += data["sum"]
            for bound in ("min", "max"):
                other = data[bound]
                if other is None:
                    continue
                mine = getattr(hist, bound)
                pick = min if bound == "min" else max
                setattr(hist, bound, other if mine is None else pick(mine, other))
            for i, n in enumerate(buckets):
                hist.counts[i] += n

    def snapshot_delta(self) -> dict:
        """Increments since the previous ``snapshot_delta`` call.

        The delta has the same shape as :meth:`snapshot` and is consumed by
        the same :meth:`merge`, but only carries what changed: counter and
        histogram fields hold the *increase* since the last call, gauges
        ship their current value only when it changed (merge keeps the max,
        so a stream of deltas yields the max-over-time on the receiver).
        Merging every delta a registry ever emitted reproduces its full
        snapshot exactly for counters and histogram counts/sums/buckets —
        the property that makes streaming telemetry (heartbeat frames,
        chunk results) equivalent to the old ship-once-at-exit protocol.

        Values read concurrently with writer threads are never lost: each
        baseline stores exactly the value that was shipped, so an increment
        racing this call lands in the *next* delta.
        """
        delta: dict = {
            "version": SNAPSHOT_VERSION,
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for name, counter in list(self._counters.items()):
            current = counter.value
            previous = self._delta_counters.get(name, 0)
            if current != previous:
                delta["counters"][name] = current - previous
                self._delta_counters[name] = current
        for name, gauge in list(self._gauges.items()):
            current = gauge.value
            if current is not None and current != self._delta_gauges.get(name):
                delta["gauges"][name] = current
                self._delta_gauges[name] = current
        for name, hist in list(self._histograms.items()):
            count = hist.count
            total = hist.total
            buckets = list(hist.counts)
            prev_count, prev_total, prev_buckets = self._delta_histograms.get(
                name, (0, 0.0, None)
            )
            if count != prev_count:
                delta["histograms"][name] = {
                    "count": count - prev_count,
                    "sum": total - prev_total,
                    "min": hist.min,
                    "max": hist.max,
                    "buckets": [
                        n - (prev_buckets[i] if prev_buckets else 0)
                        for i, n in enumerate(buckets)
                    ],
                }
                self._delta_histograms[name] = (count, total, buckets)
        return delta

    def to_prometheus(self, *, prefix: str = "beaconplace_") -> str:
        """Render the current state in Prometheus text exposition format."""
        return snapshot_to_prometheus(self.snapshot(), prefix=prefix)


def _prom_name(name: str, prefix: str) -> str:
    return prefix + re.sub(r"[^a-zA-Z0-9_:]", "_", name)


def snapshot_to_prometheus(snapshot: dict, *, prefix: str = "beaconplace_") -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict as Prometheus text.

    Counters become ``<prefix><name>_total``, gauges map directly, and
    histograms expand to the conventional cumulative ``_bucket{le=...}`` /
    ``_sum`` / ``_count`` series over :data:`BUCKET_BOUNDS`.
    """
    lines: list[str] = []
    for name in sorted(snapshot.get("counters", {})):
        metric = _prom_name(name, prefix) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {snapshot['counters'][name]}")
    for name in sorted(snapshot.get("gauges", {})):
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {snapshot['gauges'][name]}")
    for name in sorted(snapshot.get("histograms", {})):
        data = snapshot["histograms"][name]
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(BUCKET_BOUNDS, data["buckets"]):
            cumulative += count
            lines.append(f'{metric}_bucket{{le="{bound:.6g}"}} {cumulative}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {data["count"]}')
        lines.append(f"{metric}_sum {data['sum']}")
        lines.append(f"{metric}_count {data['count']}")
    return "\n".join(lines) + "\n" if lines else ""


class _NullRegistry(MetricsRegistry):
    """The do-nothing registry installed by default.

    Hands out shared no-op instruments so instrumented code never branches
    on "is observability on?" — the fast path is one method call returning
    a singleton.
    """

    _COUNTER = _NullCounter()
    _GAUGE = _NullGauge()
    _HISTOGRAM = _NullHistogram()

    @property
    def enabled(self) -> bool:
        return False

    def counter(self, name: str) -> Counter:
        return self._COUNTER

    def gauge(self, name: str) -> Gauge:
        return self._GAUGE

    def histogram(self, name: str) -> Histogram:
        return self._HISTOGRAM

    def snapshot(self) -> dict:
        return {"version": SNAPSHOT_VERSION, "counters": {}, "gauges": {}, "histograms": {}}

    def snapshot_delta(self) -> dict:
        return self.snapshot()

    def merge(self, snapshot: dict) -> None:
        pass


NULL_REGISTRY = _NullRegistry()
_active: MetricsRegistry = NULL_REGISTRY


def get_metrics() -> MetricsRegistry:
    """The currently installed registry (the null registry by default)."""
    return _active


def metrics_enabled() -> bool:
    """Whether a real (recording) registry is installed."""
    return _active.enabled


def enable_metrics(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Install ``registry`` (or a fresh one) as the process registry."""
    global _active
    _active = registry if registry is not None else MetricsRegistry()
    return _active


def disable_metrics() -> None:
    """Restore the no-op null registry."""
    global _active
    _active = NULL_REGISTRY
