"""The Figures 4–9 sweep drivers and their resilient cell execution.

:func:`mean_error_curve` (Figures 4 and 6) and
:func:`placement_improvement_curves` (Figures 5, 7–9) split the §4 grid
into independent ``(count, field)`` cells and run them through
:func:`run_cells`, in-process or on any executor backend, with the same
curves either way.  Paper-fidelity sweeps are hours of work; a single stuck
or crashing worker must not discard them, so every sweep runs under three
layers of protection:

* **Checkpoint journal** (:class:`SweepJournal`) — an append-only JSONL file
  next to the CSV outputs.  Every completed cell is one flushed line, so a
  killed sweep resumes from the journal and recomputes only missing cells.
  Cells are pure functions of the config seed, so a resumed sweep is
  *identical* to an uninterrupted one.  The journal header carries a
  fingerprint of (sweep kind, config, algorithms); resuming against a
  journal written for different parameters is refused loudly.
* **Bounded retry with backoff** (:class:`RetryPolicy`) — a cell that
  raises is retried up to ``max_attempts`` times with exponential backoff;
  in pool mode a per-cell ``timeout`` additionally catches stuck workers
  (the tainted pool is discarded and rebuilt, pending cells are requeued).
* **Degraded aggregation** — a cell that exhausts its retries degrades to
  NaN instead of aborting the sweep.  :meth:`Curve.from_samples` drops NaNs
  and records per-point sample coverage in ``Curve.meta["coverage"]``; the
  returned curve sets record the failed-cell count in their ``meta``.

*Where* cells run is delegated to :mod:`repro.sim.executors`: in-process
(:class:`~repro.sim.executors.SerialExecutor`), on a local spawn pool
(:class:`~repro.sim.executors.PoolExecutor`), or across machines over TCP
(:class:`~repro.sim.executors.SocketExecutor`).  Every backend reports cell
outcomes through the same ``emit`` callback, so journal and retry semantics
are identical regardless of backend.  Timeouts are enforced per in-flight
batch deadline, collected in completion order — a stuck worker is detected
within ``timeout × batch`` of *its own* deadline, not after every earlier
batch has been awaited (the old batch-ordered collection delayed detection
by up to ``workers × timeout``).
"""

from __future__ import annotations

import contextlib
import enum
import hashlib
import json
import time as _time
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..obs import (
    STATUS_FILENAME,
    disable_live,
    enable_live,
    get_live,
    get_metrics,
    get_tracer,
    open_jsonl_append,
    read_jsonl,
)
from ..placement import PlacementAlgorithm
from .config import ExperimentConfig
from .executors import CellExecutor, SerialExecutor, register_batch_planner
from .executors.shm import publish_for_executor
from .kernels import DEFAULT_BLOCK_ELEMENTS, batch_surface_stats, warm_worlds
from .results import Curve, CurveSet
from .rng import derive_rng
from .sweep import build_world
from .trial import run_placement_trial

__all__ = [
    "RetryPolicy",
    "SweepJournal",
    "run_cells",
    "sweep_fingerprint",
    "mean_error_curve",
    "placement_improvement_curves",
    "resilient_mean_error_curve",
    "resilient_placement_improvement_curves",
]

ProgressFn = Callable[[str], None]


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try before degrading a cell to NaN.

    Attributes:
        max_attempts: total tries per cell (1 = no retry).
        timeout: per-cell wall-clock limit in seconds (pool mode only; the
            serial path cannot preempt a running cell).  ``None`` disables.
        backoff: sleep before retry k is ``backoff · 2^(k-1)`` seconds
            (0 disables sleeping — used by tests).
    """

    max_attempts: int = 3
    timeout: float | None = None
    backoff: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be non-negative, got {self.backoff}")

    def sleep_before(self, attempt: int) -> None:
        """Back off before retry ``attempt`` (2, 3, …)."""
        if self.backoff > 0:
            _time.sleep(self.backoff * 2 ** (attempt - 2))


def _canon_key(key) -> tuple:
    """Canonicalize a cell key for dict lookup and JSON round-tripping."""
    out = []
    for part in key:
        if isinstance(part, bool):
            raise TypeError("cell keys must be str/int/float")
        if isinstance(part, (int, np.integer)):
            out.append(int(part))
        elif isinstance(part, (float, np.floating)):
            out.append(float(part))
        elif isinstance(part, str):
            out.append(part)
        else:
            raise TypeError(f"unsupported cell-key part {part!r}")
    return tuple(out)


def _canon_json(obj, where: str):
    """Validate/convert a fingerprint payload to JSON-canonical values.

    The old ``json.dumps(..., default=str)`` escape hatch silently hashed
    ``str(obj)`` for unknown objects — anything whose ``str()`` embeds a
    memory address fingerprinted differently every run, defeating journal
    resume without any error.  Canonicalization is now explicit: enums
    stringify (matching what ``default=str`` produced, so existing journal
    fingerprints survive), numpy scalars narrow to Python numbers, and
    anything else raises instead of degrading.
    """
    if obj is None or isinstance(obj, (str, bool)):
        return obj
    if isinstance(obj, enum.Enum):
        return str(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (list, tuple)):
        return [_canon_json(x, where) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _canon_json(v, where) for k, v in obj.items()}
    raise TypeError(
        f"sweep_fingerprint: {where} contains non-JSON-canonical value {obj!r} "
        f"({type(obj).__name__}); pass plain str/int/float/bool/list/dict — "
        "for fault models, their spec()"
    )


def sweep_fingerprint(kind: str, config: ExperimentConfig, extra=None) -> str:
    """A stable identity for one sweep's parameter set.

    Two runs share a journal iff their fingerprints match — same kind of
    sweep, same config (seed included), same extras (e.g. algorithm names).

    Raises:
        TypeError: if ``extra`` (or the config) holds a value with no
            JSON-canonical form — an unstable ``str()`` would silently
            produce a fresh fingerprint every process.
    """
    payload = {
        "kind": kind,
        "config": _canon_json(asdict(config), "config"),
        "extra": _canon_json(extra, "extra"),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class _TruncatedHeader(Exception):
    """The journal's first line never made it to disk intact (killed run)."""


class SweepJournal:
    """Append-only JSONL checkpoint journal for sweep cells.

    Line 1 is a header ``{"kind": "header", "fingerprint": …, "version": 1}``;
    every further line is one cell:
    ``{"kind": "cell", "key": [...], "ok": true, "attempts": 1, "value": …}``
    (failed cells carry ``"ok": false`` and an ``"error"`` string instead of
    a value).  Lines are flushed as written, so a crashed run loses at most
    the line being written; a trailing partial line is ignored on load.  A
    run killed *during creation* leaves a truncated (or empty) header line —
    there is nothing to resume, so :meth:`open` recreates the journal with a
    warning instead of refusing the path forever.

    Use :meth:`open` — it validates the fingerprint of an existing journal
    and creates a fresh one otherwise.
    """

    VERSION = 1

    def __init__(self, path: Path, fingerprint: str, entries: dict):
        self.path = path
        self.fingerprint = fingerprint
        self._entries = entries
        self._handle = None

    @classmethod
    def open(cls, path, fingerprint: str) -> "SweepJournal":
        """Open (resuming), create, or recreate the journal at ``path``.

        Raises:
            ValueError: if an existing journal's fingerprint does not match
                — the journal belongs to a different sweep; delete it or
                pick another path.
        """
        p = Path(path)
        entries: dict = {}
        if p.exists():
            try:
                header, cells = cls._load(p)
            except _TruncatedHeader:
                warnings.warn(
                    f"journal {p} has a truncated header (the creating run "
                    "was killed mid-write); no cells are recoverable — "
                    "starting a fresh journal at this path",
                    RuntimeWarning,
                    stacklevel=2,
                )
                cls._create(p, fingerprint)
            else:
                if header.get("fingerprint") != fingerprint:
                    raise ValueError(
                        f"journal {p} was written for a different sweep "
                        f"(fingerprint {header.get('fingerprint')!r} != {fingerprint!r}); "
                        "delete it or choose another --journal path"
                    )
                entries = cells
        else:
            cls._create(p, fingerprint)
        return cls(p, fingerprint, entries)

    @classmethod
    def _create(cls, p: Path, fingerprint: str) -> None:
        p.parent.mkdir(parents=True, exist_ok=True)
        with p.open("w") as handle:
            handle.write(
                json.dumps(
                    {"kind": "header", "fingerprint": fingerprint, "version": cls.VERSION}
                )
                + "\n"
            )

    @staticmethod
    def _load(path: Path) -> tuple[dict, dict]:
        records = read_jsonl(path)
        if not records:
            raise _TruncatedHeader(path)  # killed before the header was whole
        if records[0].get("kind") != "header":
            raise ValueError(f"journal {path} has no header line")
        cells = {_canon_key(r["key"]): r for r in records[1:] if r.get("kind") == "cell"}
        return records[0], cells

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def num_completed(self) -> int:
        """Cells recorded with a usable value."""
        return sum(1 for e in self._entries.values() if e["ok"])

    def entry(self, key) -> dict | None:
        """The recorded entry for ``key``, or None."""
        return self._entries.get(_canon_key(key))

    def record(self, key, *, ok: bool, value=None, attempts: int, error: str | None = None) -> None:
        """Append one cell outcome (flushed immediately)."""
        k = _canon_key(key)
        entry = {"kind": "cell", "key": list(k), "ok": bool(ok), "attempts": int(attempts)}
        if ok:
            entry["value"] = value
        else:
            entry["error"] = error or "unknown"
        if self._handle is None:
            self._handle = open_jsonl_append(self.path)
        self._handle.write(json.dumps(entry) + "\n")
        self._handle.flush()
        self._entries[k] = entry

    def close(self) -> None:
        """Close the append handle (reopened on the next record)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_cells(
    jobs: Sequence[tuple],
    fn: Callable,
    *,
    policy: RetryPolicy | None = None,
    journal: SweepJournal | None = None,
    progress: ProgressFn | None = None,
    executor: CellExecutor | None = None,
) -> dict:
    """Execute ``fn(args)`` for every ``(key, args)`` job, resiliently.

    Journaled cells with a recorded value are returned without recomputation
    (previously *failed* cells are retried — a resumed run gets a fresh
    chance).  Cells that exhaust :class:`RetryPolicy` map to ``None``.

    Args:
        jobs: ``(key, args)`` pairs; keys must be unique tuples of
            str/int/float.
        fn: the cell function; must be picklable (module-level) for pool
            mode and importable by reference for socket workers.
        policy: retry/timeout policy (default :class:`RetryPolicy`).
        journal: optional checkpoint journal.
        progress: optional callback for per-cell status lines.
        executor: the :class:`~repro.sim.executors.CellExecutor` to run
            cells on; ``None`` runs them in-process on a
            :class:`~repro.sim.executors.SerialExecutor` (no timeouts).  The
            caller keeps ownership (it is not closed here), so one executor
            — a warm pool, connected socket workers — can serve several
            sweeps.

    Returns:
        ``{canonical key: value or None}`` for every job.
    """
    policy = policy or RetryPolicy()
    results: dict = {}
    pending: list[tuple] = []
    seen = set()
    for key, args in jobs:
        k = _canon_key(key)
        if k in seen:
            raise ValueError(f"duplicate cell key {k}")
        seen.add(k)
        entry = journal.entry(k) if journal is not None else None
        if entry is not None and entry["ok"]:
            results[k] = entry["value"]
        else:
            pending.append((k, args))
    if journal is not None and results:
        get_metrics().counter("sweep.cells.resumed").inc(len(results))
        if progress is not None:
            progress(f"resumed {len(results)} cell(s) from {journal.path}")
    # A journaled run keeps a live status ledger (status.json beside the
    # journal) so `beaconplace top`/`status` can watch progress.  Nested
    # run_cells calls (one CLI command sweeping several panels) reuse the
    # outer ledger rather than fight over the file.
    live = None
    if journal is not None and not get_live().enabled:
        live = enable_live(
            journal.path.parent / STATUS_FILENAME,
            fingerprint=journal.fingerprint,
            total=len(jobs),
        )
        for k, value in results.items():
            live.note_outcome(k, ok=True, value=value, resumed=True)
    if not pending:
        if live is not None:
            disable_live()
        return results

    def emit(key, *, ok, value=None, attempts, error=None):
        _note_outcome(
            results, journal, progress, key,
            ok=ok, value=value, attempts=attempts, error=error,
        )

    if executor is None:
        executor = SerialExecutor()
    try:
        with get_tracer().span(
            "sweep.run_cells", cells=len(pending), executor=type(executor).__name__
        ):
            executor.execute(
                pending, fn,
                policy=policy, emit=emit, progress=progress,
                fingerprint=journal.fingerprint if journal is not None else None,
            )
    finally:
        if live is not None:
            disable_live()
    return results


def _note_outcome(results, journal, progress, key, *, ok, value=None, attempts, error=None):
    results[key] = value if ok else None
    get_metrics().counter("sweep.cells.completed" if ok else "sweep.cells.failed").inc()
    get_live().note_outcome(key, ok=ok, value=value)
    if journal is not None:
        journal.record(key, ok=ok, value=value, attempts=attempts, error=error)
    if progress is not None and not ok:
        progress(f"cell {key} FAILED after {attempts} attempt(s): {error}")


# -- Sweep drivers ----------------------------------------------------------


def _mean_error_cell(args) -> float:
    config, noise, count, index, faults, fault_time = args
    world = build_world(config, noise, count, index, faults=faults, fault_time=fault_time)
    return world.error_surface().mean_error()


def _placement_trial(world, args) -> dict:
    """``{algorithm: (mean gain, median gain)}`` of one improvement cell's world."""
    config, noise, count, index, _, _, algorithms = args

    def rng_for(name: str):
        return derive_rng(config.seed, "alg", name, noise, count, index)

    outcomes = run_placement_trial(world, list(algorithms), rng_for)
    return {
        o.algorithm: (o.improvement_mean, o.improvement_median) for o in outcomes
    }


def _improvement_cell(args) -> dict:
    config, noise, count, index, faults, fault_time, _ = args
    world = build_world(config, noise, count, index, faults=faults, fault_time=fault_time)
    return _placement_trial(world, args)


def _mean_error_cells_planner(args_list):
    """Batch plan for :func:`_mean_error_cell`: one kernel pass per block.

    Worlds are built the normal way (field/realization caches make that
    cheap), pre-warmed through the batched kernels, reduced with
    :func:`batch_surface_stats`, and *dropped* — the returned thunks close
    over plain floats, so planning a chunk retains no arrays.  A block
    closes at :data:`DEFAULT_BLOCK_ELEMENTS` lattice-beacon links and where
    the beacon count changes: worlds of different counts never share a
    kernel pass, so holding one count's warmed worlds through the next
    count's pass would only raise the peak.  A cell whose world fails to
    build gets no thunk (``None``); the executor's scalar path recomputes
    it and surfaces the error with per-cell attribution.
    """
    thunks: list = [None] * len(args_list)
    worlds: list = []
    slots: list = []
    elements = 0

    def flush():
        nonlocal elements
        if not worlds:
            return
        warm_worlds(worlds)
        means, _ = batch_surface_stats(worlds, medians=False)
        for slot, mean in zip(slots, means):
            value = float(mean)
            thunks[slot] = lambda _v=value: _v
        worlds.clear()
        slots.clear()
        elements = 0

    block_count = None
    for i, args in enumerate(args_list):
        config, noise, count, index, faults, fault_time = args
        try:
            world = build_world(
                config, noise, count, index, faults=faults, fault_time=fault_time
            )
        except Exception:  # noqa: BLE001 — scalar path owns the failure
            continue
        if count != block_count:
            flush()
            block_count = count
        worlds.append(world)
        slots.append(i)
        elements += world.points().shape[0] * max(len(world.field), 1)
        if elements >= DEFAULT_BLOCK_ELEMENTS:
            flush()
    flush()
    return thunks


class _WarmOnFirstTake:
    """Cold worlds that one kernel pass warms when the first is taken.

    :meth:`take` hands a world out and drops this block's reference to it,
    so each world is freed once its trial has run.
    """

    def __init__(self) -> None:
        self.worlds: list = []
        self.elements = 0
        self.warmed = False

    def add(self, world) -> int:
        self.worlds.append(world)
        self.elements += world.points().shape[0] * max(len(world.field), 1)
        return len(self.worlds) - 1

    def take(self, slot: int):
        if not self.warmed:
            self.warmed = True
            warm_worlds([w for w in self.worlds if w is not None])
        world, self.worlds[slot] = self.worlds[slot], None
        return world


def _improvement_cells_planner(args_list):
    """Batch plan for :func:`_improvement_cell`: warm lazily, defer trials.

    The placement trial itself is order-sensitive, survey-driven scalar code
    — only the *initial* world evaluation (connectivity, centroid state, the
    base error surface) batches.  Worlds are built up front (a field and a
    realization seed, both cached) and split into sub-blocks that close
    where :func:`_mean_error_cells_planner`'s blocks do: at
    :data:`DEFAULT_BLOCK_ELEMENTS` lattice-beacon links and where the beacon
    count changes.  A sub-block is warmed when its first thunk runs, so
    cells run in order hold at most one sub-block of warmed, not-yet-run
    worlds.  Each thunk runs the unchanged :func:`run_placement_trial` with
    the RNG substreams :func:`_improvement_cell` would derive.
    """
    thunks: list = [None] * len(args_list)
    block = _WarmOnFirstTake()
    block_count = None
    for i, args in enumerate(args_list):
        config, noise, count, index, faults, fault_time, _ = args
        try:
            world = build_world(
                config, noise, count, index, faults=faults, fault_time=fault_time
            )
        except Exception:  # noqa: BLE001 — scalar path owns the failure
            continue
        if block.elements >= DEFAULT_BLOCK_ELEMENTS or count != block_count:
            block, block_count = _WarmOnFirstTake(), count
        slot = block.add(world)
        thunks[i] = lambda b=block, s=slot, a=args: _placement_trial(b.take(s), a)
    return thunks


register_batch_planner(_mean_error_cell, _mean_error_cells_planner)
register_batch_planner(_improvement_cell, _improvement_cells_planner)


@contextlib.contextmanager
def _journal_at(journal_path, fingerprint):
    """The journal at ``journal_path`` (``None`` for no path), closed on exit."""
    if journal_path is None:
        yield None
        return
    with SweepJournal.open(journal_path, fingerprint) as journal:
        yield journal


def _stable_describe(obj):
    """A run-independent JSON-able description of a parameter object.

    ``repr`` would embed object addresses for nested models (breaking
    fingerprint stability across processes); this recurses into ``__dict__``
    instead.
    """
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if isinstance(obj, (list, tuple)):
        return [_stable_describe(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _stable_describe(v) for k, v in obj.items()}
    if getattr(obj, "__dict__", None):
        described = {k: _stable_describe(v) for k, v in vars(obj).items()}
        return {"__type__": type(obj).__name__, **described}
    return f"{type(obj).__name__}()"


def _fault_extra(faults, fault_time) -> dict | None:
    if faults is None:
        return None
    described = faults.spec() if hasattr(faults, "spec") else _stable_describe(faults)
    return {"faults": described, "time": fault_time}


def _run_sweep(
    fn, fingerprint, config, noise, tail, *,
    journal_path, policy, progress, executor,
) -> list[list]:
    """Run one curve's ``(count, field)`` cells; values grouped by count.

    Cell ``(count, index)`` calls ``fn((config, noise, count, index,
    *tail))``; a failed cell's value is ``None``.  The journal and the world
    state published on ``executor`` are released before returning; the
    executor itself stays open.
    """
    jobs = [
        ((noise, count, index), (config, noise, count, index, *tail))
        for count in config.beacon_counts
        for index in range(config.fields_per_density)
    ]
    with _journal_at(journal_path, fingerprint) as journal:
        shared = publish_for_executor(executor, config, noises=[noise])
        try:
            cells = run_cells(
                jobs, fn,
                policy=policy, journal=journal, progress=progress, executor=executor,
            )
        finally:
            if shared is not None:
                executor.shared_handle = None
                shared.unlink()
    return [
        [
            cells[_canon_key((noise, count, index))]
            for index in range(config.fields_per_density)
        ]
        for count in config.beacon_counts
    ]


def mean_error_curve(
    config: ExperimentConfig,
    noise: float,
    *,
    journal_path=None,
    policy: RetryPolicy | None = None,
    label: str | None = None,
    faults=None,
    fault_time: float = 0.0,
    progress: ProgressFn | None = None,
    executor: CellExecutor | None = None,
) -> Curve:
    """Mean localization error vs beacon density (Figures 4 and 6).

    Every ``(count, field)`` cell runs through :func:`run_cells` —
    in-process by default, on ``executor`` otherwise — and the curve is
    identical on every backend.  A journal makes the sweep resumable to the
    same curve; a cell that exhausts ``policy`` degrades to NaN, and
    ``meta["failed_cells"]`` counts such cells.

    Args:
        config: experiment parameters (counts, replications, seed …).
        noise: the model's noise level for every cell.
        journal_path: JSONL checkpoint path (next to your CSV output);
            ``None`` disables checkpointing.
        policy: per-cell retry/timeout policy.
        label: series label; defaults to ``"Noise=x"`` / ``"Ideal"``.
        faults: optional :class:`repro.faults.FaultModel` degrading every
            world (see :func:`repro.sim.build_world`).
        fault_time: snapshot time for ``faults``.
        progress: optional status callback: one line per beacon count, plus
            resume and failure notices.
        executor: run cells on this backend (see :mod:`repro.sim.executors`);
            it stays open for the caller to reuse.  ``None`` runs them
            in-process.
    """
    if label is None:
        label = "Ideal" if noise == 0.0 else f"Noise={noise:g}"
    per_count = _run_sweep(
        _mean_error_cell,
        sweep_fingerprint("mean-error", config, _fault_extra(faults, fault_time)),
        config, noise, (faults, fault_time),
        journal_path=journal_path, policy=policy,
        progress=progress, executor=executor,
    )
    samples_per_count = []
    for count, values in zip(config.beacon_counts, per_count):
        samples = np.array([np.nan if v is None else v for v in values], dtype=float)
        samples_per_count.append(samples)
        if progress is not None:
            progress(f"{label}: count={count} mean={samples.mean():.2f} m")
    curve = Curve.from_samples(
        label,
        config.beacon_counts,
        config.densities(),
        samples_per_count,
        confidence=config.confidence,
    )
    curve.meta["failed_cells"] = sum(v is None for values in per_count for v in values)
    return curve


def placement_improvement_curves(
    config: ExperimentConfig,
    noise: float,
    algorithms: Sequence[PlacementAlgorithm],
    *,
    journal_path=None,
    policy: RetryPolicy | None = None,
    faults=None,
    fault_time: float = 0.0,
    progress: ProgressFn | None = None,
    executor: CellExecutor | None = None,
) -> tuple[CurveSet, CurveSet]:
    """Improvement in mean and median error vs density (Figures 5, 7–9).

    Every algorithm sees the same worlds and the same surveys; each draws
    decisions from its own named RNG substream.  A failed cell degrades
    that replication to NaN for *every* algorithm (the comparison stays
    paired); per-point coverage lands in each curve's ``meta["coverage"]``
    and the failed-cell total in the curve sets' ``meta["failed_cells"]``.
    See :func:`mean_error_curve` for the other arguments.

    Returns:
        ``(mean_improvements, median_improvements)`` — two curve sets with
        one series per algorithm.
    """
    names = [a.name for a in algorithms]
    if len(set(names)) != len(names):
        raise ValueError(f"algorithm names must be unique, got {names}")
    per_count = _run_sweep(
        _improvement_cell,
        sweep_fingerprint(
            "improvement", config,
            {"algorithms": names, **(_fault_extra(faults, fault_time) or {})},
        ),
        config, noise, (faults, fault_time, tuple(algorithms)),
        journal_path=journal_path, policy=policy,
        progress=progress, executor=executor,
    )
    mean_samples = {n: [] for n in names}
    median_samples = {n: [] for n in names}
    for count, values in zip(config.beacon_counts, per_count):
        for n in names:
            pairs = [(np.nan, np.nan) if v is None else v[n] for v in values]
            mean_samples[n].append(np.array([p[0] for p in pairs], dtype=float))
            median_samples[n].append(np.array([p[1] for p in pairs], dtype=float))
        if progress is not None:
            gains = ", ".join(f"{n}={mean_samples[n][-1].mean():.3f}" for n in names)
            progress(f"noise={noise:g} count={count}: mean gains {gains} m")
    failed = sum(v is None for values in per_count for v in values)

    def to_set(samples: dict, metric: str) -> CurveSet:
        curves = [
            Curve.from_samples(
                n,
                config.beacon_counts,
                config.densities(),
                samples[n],
                confidence=config.confidence,
            )
            for n in names
        ]
        return CurveSet(
            title=f"Improvement in {metric} error (noise={noise:g})",
            curves=curves,
            meta={
                "noise": noise,
                "fields_per_density": config.fields_per_density,
                "metric": metric,
                "failed_cells": failed,
            },
        )

    return to_set(mean_samples, "mean"), to_set(median_samples, "median")


#: Second names of the two drivers, kept because callers import them.
resilient_mean_error_curve = mean_error_curve
resilient_placement_improvement_curves = placement_improvement_curves
