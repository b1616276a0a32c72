"""Incremental LE delta-engine: O(affected-region) beacon add/remove/move.

Every candidate scan in the placement loop — Max/Grid refinement, the
fault-aware variants, greedy-k, the selfheal repair search — asks the same
question over and over: *what does the expected-LE field become if this one
beacon appears / disappears / moves?*  Answering it by rebuilding a
:class:`~repro.sim.TrialWorld` pays the full O(P·N) per-link noise
evaluation (the hash-keyed connectivity of :mod:`repro.radio.hashrand`,
which dominates the build at paper fidelity) for a perturbation that only
touches one beacon's column.

:class:`FieldState` is the engine: a :class:`~repro.sim.TrialWorld` (whose
error field, survey, candidate peeks, scans and ``with_beacon`` it uses
unchanged) that also applies :class:`AddBeacon` / :class:`RemoveBeacon` /
:class:`MoveBeacon` deltas and jumps to an arbitrary field
(:meth:`FieldState.advance_to`).  Each recomputes **only the affected
beacons' columns** — the O(affected-region) part, since a beacon's column is
exactly its connectivity disk — and splices the rest from the current
matrix.  The localization stage downstream of connectivity (one BLAS
mat-vec plus elementwise policy/error arithmetic, ~2% of a full build) is
re-run whole rather than row-subset.

Bit-identity contract
---------------------
``state.apply(delta).errors()`` — and ``world.with_beacon(p).errors()`` on
either class — is **byte-identical** to a fresh
:class:`~repro.sim.TrialWorld` built on the resulting field, for every
supported localizer, noise model and fault mask.  Two empirical facts
(pinned by ``tests/test_sim_incremental.py``) make this work:

* connectivity is *column-subset invariant*: every per-link quantity
  (hash-keyed noise, the two-term distance, the threshold comparison) is
  elementwise over ``(P, N)``, so a beacon's column computed alone equals
  its slice of the full matrix, byte for byte;
* BLAS reductions are **not** row-subset invariant on this toolchain
  (``(W @ pos)[rows] != W[rows] @ pos`` in the last ulp for some rows), so
  a committed world re-runs the cheap full-shape reduction on its spliced
  connectivity instead of patching rows of a cached result.  Only the
  candidate peek adds a column to cached sums (and, under a pointwise
  policy, recomputes just the points the candidate reaches, with the O(P)
  chain's elementwise arithmetic), so it may differ from the committed
  world in the last ulp.

Non-centroid localizers have no incremental sum structure; their
connectivity is still maintained incrementally but the error field falls
back to a full re-estimate, counting ``incremental.fallback.full`` — never
silently diverging.

:class:`FieldCache` adds the memoization layer: an LRU of expected-LE maps
keyed by :func:`field_fingerprint` — a canonical sha256 over the beacon
ids/positions, the realization's identity and the grid/localizer parameters
(same conventions as :func:`repro.sim.sweep_fingerprint`).  The cache is
process-local by design: spawn-pool workers build their own (they must not
silently share driver-side state), which ``tests/test_sim_incremental.py``
pins.

Observability: every delta bumps ``sweep.delta_applied`` inside an
``incremental.delta`` span, and full builds run under the world's
``world.connectivity`` span (counted as ``incremental.full_builds``) —
``beaconplace obs --tree`` shows the delta-vs-rebuild time split.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from ..field import Beacon, BeaconField
from ..geometry import MeasurementGrid, Point, as_point
from ..localization import CentroidLocalizer, Localizer
from ..obs import get_metrics, get_tracer
from ..radio import PropagationRealization
from ..radio.kernels import batch_params_from_realization
from .trial import TrialWorld

__all__ = [
    "AddBeacon",
    "RemoveBeacon",
    "MoveBeacon",
    "FieldState",
    "FieldCache",
    "field_fingerprint",
    "expected_le_field",
    "default_field_cache",
]


@dataclass(frozen=True)
class AddBeacon:
    """Delta: deploy one new beacon at ``position``.

    The beacon receives the field's ``next_beacon_id`` — the same identity
    (and therefore the same static noise) it would get from
    :meth:`~repro.field.BeaconField.with_beacon_at`.
    """

    position: tuple

    def describe(self) -> str:
        return "add"


@dataclass(frozen=True)
class RemoveBeacon:
    """Delta: beacon ``beacon_id`` disappears (crash, battery, fault mask)."""

    beacon_id: int

    def describe(self) -> str:
        return "remove"


@dataclass(frozen=True)
class MoveBeacon:
    """Delta: beacon ``beacon_id`` relocates to ``position`` (drift, redeploy)."""

    beacon_id: int
    position: tuple

    def describe(self) -> str:
        return "move"


class FieldState(TrialWorld):
    """A :class:`~repro.sim.TrialWorld` that also applies deltas.

    The world protocol placement algorithms and the selfheal controller
    consume (errors, survey, candidate peeks and scans, ``with_beacon``)
    is :class:`~repro.sim.TrialWorld`'s; this class adds beacon removal,
    moves and jumps to an arbitrary field, each of which recomputes only
    the connectivity columns that changed.
    """

    # -- Construction --------------------------------------------------------

    @classmethod
    def build(
        cls,
        field: BeaconField,
        realization: PropagationRealization,
        grid: MeasurementGrid,
        layout=None,
        localizer: Localizer | None = None,
    ) -> "FieldState":
        """Full canonical build — the reference every delta chain must match."""
        if localizer is None:
            raise ValueError("FieldState needs a localizer")
        state = cls(field, realization, grid, layout, localizer)
        state.connectivity()
        return state

    @classmethod
    def from_world(cls, world: TrialWorld) -> "FieldState":
        """Continue ``world`` as an engine state.

        The state shares the world's column cache and adopts its
        connectivity, sums and errors: every cache a world holds equals
        what a fresh build of its field computes.
        """
        state = cls(
            world.field, world.realization, world.grid, world.layout, world.localizer
        )
        state._columns = world._columns
        state.prewarm(
            conn=world.connectivity(), state=world._state, errors=world._errors
        )
        return state

    # -- Deltas --------------------------------------------------------------

    def _index_of(self, beacon_id: int) -> int:
        try:
            return self.field.beacon_ids.index(int(beacon_id))
        except ValueError:
            raise KeyError(f"beacon id {beacon_id} not in field") from None

    def apply(self, delta) -> "FieldState":
        """A new state with one delta applied — the input state untouched.

        Only the affected beacon's connectivity column is (re)computed; the
        remaining columns are spliced from the current matrix.  The error
        field re-derives lazily from the new connectivity through the same
        arithmetic a full build runs, which is what makes the result
        byte-identical to a fresh :meth:`build` of the resulting field.
        """
        metrics = get_metrics()
        with get_tracer().span("incremental.delta", kind=delta.describe()):
            metrics.counter("sweep.delta_applied").inc()
            if isinstance(delta, AddBeacon):
                return super().with_beacon(delta.position)
            conn = self.connectivity()
            beacons = list(self.field.beacons)
            if isinstance(delta, RemoveBeacon):
                idx = self._index_of(delta.beacon_id)
                del beacons[idx]
                new_conn = np.ascontiguousarray(np.delete(conn, idx, axis=1))
            elif isinstance(delta, MoveBeacon):
                idx = self._index_of(delta.beacon_id)
                p = as_point(delta.position)
                beacons[idx] = Beacon(int(delta.beacon_id), p)
                new_conn = conn.copy()
                new_conn[:, idx] = self._column_for(delta.beacon_id, p)
            else:
                raise TypeError(f"unknown delta {delta!r}")
            new_field = BeaconField(beacons, next_id=self.field.next_beacon_id)
        return self._successor(new_field, new_conn)

    def apply_many(self, deltas) -> "FieldState":
        """Fold several deltas left to right."""
        state = self
        for delta in deltas:
            state = state.apply(delta)
        return state

    def advance_to(self, new_field: BeaconField) -> "FieldState":
        """Jump to an arbitrary target field, reusing every unchanged column.

        The workhorse of the selfheal controller: successive fault-timeline
        snapshots differ by a few dead/revived/drifted beacons, so the walk
        pays per-link noise evaluation only for the columns that actually
        changed.  Ids are matched exactly and positions byte-compared, so a
        drifted beacon (same id, new coordinates) recomputes while an
        untouched survivor splices.
        """
        metrics = get_metrics()
        with get_tracer().span(
            "incremental.delta", kind="advance", beacons=len(new_field)
        ):
            metrics.counter("sweep.delta_applied").inc()
            conn = self.connectivity()
            old_index = {
                beacon_id: i for i, beacon_id in enumerate(self.field.beacon_ids)
            }
            old_positions = self.field.positions()
            columns = []
            reused = 0
            for beacon_id, position in zip(
                new_field.beacon_ids, new_field.positions()
            ):
                i = old_index.get(beacon_id)
                if i is not None and np.array_equal(old_positions[i], position):
                    columns.append(conn[:, i])
                    reused += 1
                else:
                    columns.append(
                        self._column_for(
                            beacon_id, Point(float(position[0]), float(position[1]))
                        )
                    )
            if columns:
                new_conn = np.column_stack(columns)
            else:
                new_conn = np.zeros((self.points().shape[0], 0), dtype=bool)
            metrics.counter("incremental.columns.reused").inc(reused)
            metrics.counter("incremental.columns.recomputed").inc(
                len(columns) - reused
            )
        return self._successor(new_field, new_conn)

    def with_beacon(self, position) -> "FieldState":
        """:meth:`TrialWorld.with_beacon` as an :class:`AddBeacon` delta."""
        p = as_point(position)
        return self.apply(AddBeacon((float(p.x), float(p.y))))


# -- Fingerprint-keyed expected-LE cache --------------------------------------


def _realization_token(realization) -> list | None:
    """Canonical identity of a propagation realization, or None.

    Only realizations whose parameters are fully observable (currently the
    paper's :class:`~repro.radio.BeaconNoiseRealization` family, via
    :func:`repro.radio.kernels.batch_params_from_realization`) are
    fingerprintable; anything else is uncacheable rather than wrongly keyed.
    """
    params = batch_params_from_realization(realization)
    if params is None:
        return None
    return ["beacon-noise", int(realization.seed), list(params.key())]


def field_fingerprint(
    field: BeaconField,
    realization,
    grid: MeasurementGrid,
    localizer: Localizer,
) -> str | None:
    """Canonical identity of one expected-LE map, 16 hex chars (or None).

    Same conventions as :func:`repro.sim.sweep_fingerprint`: a sha256 over a
    JSON-canonical payload, stable across processes and machines.  The
    payload covers everything the error field depends on — beacon ids,
    position bytes, the realization's drawn identity, the lattice and the
    localizer's parameters.  Returns None when the realization (or the
    localizer) has no canonical form; callers must then skip the cache.
    """
    token = _realization_token(realization)
    if token is None:
        return None
    if isinstance(localizer, CentroidLocalizer):
        loc = [
            type(localizer).__name__,
            float(localizer.terrain_side),
            str(localizer.policy),
        ]
    else:
        return None
    payload = {
        "ids": [int(i) for i in field.beacon_ids],
        "positions": hashlib.sha256(
            np.ascontiguousarray(field.positions()).tobytes()
        ).hexdigest(),
        "realization": token,
        "grid": [float(grid.side), float(grid.step)],
        "localizer": loc,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class FieldCache:
    """LRU cache of expected-LE maps keyed by the canonical field fingerprint.

    Process-local on purpose: spawn-pool workers each hold their own (a
    driver-side cache silently shared through fork/pickle would serve stale
    or double-counted entries).  Counters: ``cache.le_field.hits`` /
    ``misses`` / ``evictions`` / ``uncacheable``, visible through
    ``beaconplace obs``.

    Args:
        capacity: maximum number of cached error maps (each is one float64
            array of lattice size — ~80 kB at paper fidelity).
    """

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def fingerprints(self) -> list[str]:
        """Cached keys, least- to most-recently used (for tests/inspection)."""
        return list(self._entries)

    def get(self, fingerprint: str) -> np.ndarray | None:
        """The cached error map for ``fingerprint``, refreshing recency."""
        entry = self._entries.get(fingerprint)
        if entry is None:
            get_metrics().counter("cache.le_field.misses").inc()
            return None
        get_metrics().counter("cache.le_field.hits").inc()
        # LRU refresh: insertion order doubles as recency order.
        del self._entries[fingerprint]
        self._entries[fingerprint] = entry
        return entry

    def put(self, fingerprint: str, errors: np.ndarray) -> np.ndarray:
        """Insert (or refresh) one error map, evicting the stalest at capacity.

        Returns the stored (read-only) array, so callers can hand out the
        cached view immediately.
        """
        if fingerprint in self._entries:
            del self._entries[fingerprint]
        elif len(self._entries) >= self.capacity:
            del self._entries[next(iter(self._entries))]
            get_metrics().counter("cache.le_field.evictions").inc()
        value = np.asarray(errors).copy()
        value.setflags(write=False)
        self._entries[fingerprint] = value
        return value

    def clear(self) -> None:
        """Drop every entry (tests; config changes)."""
        self._entries.clear()


#: The process-default cache (one per worker process — see class docstring).
_default_cache = FieldCache()


def default_field_cache() -> FieldCache:
    """This process's default :class:`FieldCache`."""
    return _default_cache


def expected_le_field(
    field: BeaconField,
    realization,
    grid: MeasurementGrid,
    localizer: Localizer,
    *,
    cache: FieldCache | None = None,
) -> np.ndarray:
    """The expected-LE map of ``field``, served through the fingerprint cache.

    On a hit the stored (read-only) array returns without touching the
    radio model; on a miss the map builds through :class:`FieldState` and is
    cached.  Fields whose realization/localizer has no canonical
    fingerprint compute uncached (``cache.le_field.uncacheable``).
    """
    cache = _default_cache if cache is None else cache
    fingerprint = field_fingerprint(field, realization, grid, localizer)
    if fingerprint is None:
        get_metrics().counter("cache.le_field.uncacheable").inc()
        return FieldState.build(
            field, realization, grid, localizer=localizer
        ).errors()
    cached = cache.get(fingerprint)
    if cached is not None:
        return cached
    errors = FieldState.build(
        field, realization, grid, localizer=localizer
    ).errors()
    return cache.put(fingerprint, errors)


# -- Sweep cell (module-level: picklable for pool mode, importable by
# reference for socket workers) -----------------------------------------------


def _greedyk_cell(args) -> dict:
    """One ``beaconplace greedyk`` cell: greedy-k on one generated field.

    Returns a plain-JSON dict so every executor backend (serial, spawn
    pool, socket) can journal and ship it; bit-identical across backends
    because the engine scan is deterministic and the named RNG streams
    derive identically in every process.
    """
    config, noise, count, index, k, subsample = args
    from ..placement.greedy import GreedyKPlacement
    from .rng import derive_rng
    from .sweep import build_world

    algorithm = GreedyKPlacement(k=int(k), subsample=int(subsample))
    state = FieldState.from_world(build_world(config, noise, count, index))
    base_mean, _ = state.base_stats()
    rng = derive_rng(config.seed, "alg", algorithm.name, noise, count, index)
    picks = algorithm.plan(state.survey(), rng, state)
    final = state.apply_many(AddBeacon((p.x, p.y)) for p in picks)
    final_mean, _ = final.base_stats()
    return {
        "base_mean": float(base_mean),
        "final_mean": float(final_mean),
        "picks": [[float(p.x), float(p.y)] for p in picks],
    }
