"""Single placement trials: one world, one survey, one added beacon.

:class:`TrialWorld` bundles everything one simulated deployment consists of
— the beacon field, the (static) propagation realization, the measurement
lattice, the overlapping-grid layout and the localizer — and owns the world
protocol every experiment and placement algorithm is built from:

* :meth:`TrialWorld.survey` — the complete, noise-free terrain survey of
  §3.1 (the error surface over the lattice),
* :meth:`TrialWorld.evaluate_candidate` — the counterfactual: what would the
  mean/median error become if a beacon were added at a given point?
  :meth:`TrialWorld.scan_add_candidates` asks it of many candidates at once,
  and
* :meth:`TrialWorld.with_beacon` — the world with that beacon deployed.

Candidate evaluation is the hot loop of every figure.  For the paper's
centroid localizer the world caches the per-point connected-coordinate sums
(:class:`~repro.localization.CentroidState`), and a candidate beacon changes
the sums and counts only at the lattice points that hear it — about 855 of
10,201 at paper geometry.  Under a pointwise unlocalized policy (see
:attr:`~repro.localization.UnlocalizedPolicy.pointwise`) the peek therefore
recomputes the estimate and LE on those points alone and keeps the world's
errors everywhere else: one connectivity column plus work proportional to
its connected points, with the O(P) chain's elementwise arithmetic, so the
same bytes.  ``NEAREST_BEACON`` takes that O(P) chain
(:meth:`CentroidState.with_beacon <repro.localization.CentroidState.with_beacon>`
→ estimates → LE), because a new beacon can be the nearest one of unheard
points anywhere; non-centroid localizers fall back to a full re-estimate.

A committed beacon is exact instead: :meth:`TrialWorld.with_beacon` splices
the beacon's column onto the cached connectivity and re-derives the sums
and errors from it, so the new world is byte-identical to a fresh one built
on the extended field.  :class:`repro.sim.incremental.FieldState` is a
world that also removes and moves beacons the same way.

:func:`run_placement_trial` glues it together for a set of algorithms
sharing one world, exactly like the paper evaluates Random/Max/Grid on the
same 1000 fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exploration import Survey
from ..field import Beacon, BeaconField
from ..geometry import (
    MeasurementGrid,
    OverlappingGridLayout,
    Point,
    as_point,
    as_point_array,
)
from ..localization import (
    CentroidLocalizer,
    CentroidState,
    ErrorSurface,
    Localizer,
    localization_errors,
)
from ..obs import get_metrics, get_tracer
from ..placement import PlacementAlgorithm
from ..radio import PropagationRealization
from .kernels import candidate_columns

__all__ = ["TrialWorld", "TrialOutcome", "run_placement_trial"]

#: Cap on a lineage's column cache (re-adds of intermittent beacons hit it;
#: anything past this is a pathological churn pattern, evict oldest).
_MAX_CACHED_COLUMNS = 4096

#: Candidates a scan peeks at once: the rows of its LE stack (32 × 10,201
#: float64, 2.6 MB, at paper geometry).
_SCAN_ROWS = 32


@dataclass(frozen=True)
class TrialOutcome:
    """Result of adding one beacon with one algorithm on one world.

    Attributes:
        algorithm: the placement algorithm's name.
        pick: where the beacon was placed.
        base_mean: mean LE before placement (meters).
        base_median: median LE before placement (meters).
        improvement_mean: §4.1 metric — mean LE before − after.
        improvement_median: §4.1 metric — median LE before − after.
    """

    algorithm: str
    pick: Point
    base_mean: float
    base_median: float
    improvement_mean: float
    improvement_median: float


class TrialWorld:
    """One simulated deployment, with cached evaluation state.

    Args:
        field: the existing beacon field.
        realization: the static propagation world.
        grid: the measurement lattice.
        layout: the overlapping-grid decomposition (for Grid/Oracle).
        localizer: the localization algorithm under study.
    """

    def __init__(
        self,
        field: BeaconField,
        realization: PropagationRealization,
        grid: MeasurementGrid,
        layout: OverlappingGridLayout,
        localizer: Localizer,
    ):
        self.field = field
        self.realization = realization
        self.grid = grid
        self.layout = layout
        self.localizer = localizer
        self._conn: np.ndarray | None = None
        self._state: CentroidState | None = None
        self._errors: np.ndarray | None = None
        self._base_stats: tuple[float, float] | None = None  # of _errors
        # Shared along a with_beacon/delta lineage: a column depends only on
        # (beacon id, position), never on the rest of the field.
        self._columns: dict = {}

    # -- Basic views --------------------------------------------------------

    @property
    def terrain_side(self) -> float:
        """Side of the terrain square."""
        return self.grid.side

    def points(self) -> np.ndarray:
        """The measurement lattice points ``(P_T, 2)``."""
        return self.grid.points()

    def connectivity(self) -> np.ndarray:
        """Cached ``(P_T, N)`` connectivity of the current field."""
        if self._conn is None:
            get_metrics().counter("incremental.full_builds").inc()
            with get_tracer().span("world.connectivity"):
                self._conn = self.realization.connectivity(self.grid, self.field)
        return self._conn

    def prewarm(
        self,
        *,
        conn: np.ndarray | None = None,
        state: CentroidState | None = None,
        errors: np.ndarray | None = None,
    ) -> None:
        """Fill the evaluation caches with externally computed values.

        The batched kernels (:mod:`repro.sim.kernels`) evaluate many worlds
        in one array pass and hand each world its slice here; committed
        beacons and deltas hand a successor world its spliced connectivity.
        Afterwards :meth:`connectivity`, :meth:`errors` and the candidate
        counterfactuals are cache hits.  Callers own the bit-identity
        contract: the supplied arrays must equal what the world would have
        computed itself.
        """
        if conn is not None:
            self._conn = conn
        if state is not None:
            self._state = state
        if errors is not None:
            self._errors = errors
            self._base_stats = None

    def _successor(self, field: BeaconField, conn: np.ndarray):
        """A world of this class on ``field`` whose connectivity is ``conn``.

        It shares this world's column cache; its sums and errors re-derive
        from ``conn`` through the arithmetic a fresh build runs.
        """
        world = type(self)(
            field, self.realization, self.grid, self.layout, self.localizer
        )
        world._columns = self._columns
        world.prewarm(conn=conn)
        return world

    # -- Error evaluation ----------------------------------------------------

    def centroid_state(self) -> CentroidState:
        """The per-point connected-sum/count arrays the centroid localizer
        estimates from."""
        if self._state is None:
            self._state = CentroidState.from_connectivity(
                self.connectivity(), self.field.positions()
            )
        return self._state

    def _localize(self, positions, *, state=None, conn=None) -> np.ndarray:
        """Per-lattice-point LE of the beacons at ``positions``.

        The centroid localizer estimates from ``state``, their per-point
        sums.  Any other localizer has no such structure and re-estimates
        from ``conn``, their ``(P, N)`` connectivity, counted as
        ``incremental.fallback.full``.
        """
        pts = self.points()
        localizer = self.localizer
        if state is not None:
            estimates = state.estimates(
                localizer.policy,
                points=pts,
                beacon_positions=positions,
                terrain_side=localizer.terrain_side,
            )
        else:
            get_metrics().counter("incremental.fallback.full").inc()
            estimates = localizer.estimate(conn, positions, pts)
        return localization_errors(estimates, pts)

    def errors(self) -> np.ndarray:
        """Per-lattice-point localization error of the current field."""
        if self._errors is None:
            positions = self.field.positions()
            if isinstance(self.localizer, CentroidLocalizer):
                self._errors = self._localize(positions, state=self.centroid_state())
            else:
                self._errors = self._localize(positions, conn=self.connectivity())
        return self._errors

    def error_surface(self) -> ErrorSurface:
        """The error field as an :class:`~repro.localization.ErrorSurface`."""
        return ErrorSurface(self.grid, self.errors())

    def survey(self) -> Survey:
        """The paper's complete, noise-free survey of this world."""
        return Survey.from_error_surface(self.error_surface())

    def base_stats(self) -> tuple[float, float]:
        """(mean, median) LE of the current field, reduced once."""
        if self._base_stats is None:
            surface = self.error_surface()
            self._base_stats = (surface.mean_error(), surface.median_error())
        return self._base_stats

    # -- Counterfactuals -----------------------------------------------------

    def _column_for(self, beacon_id: int, position: Point) -> np.ndarray:
        """The ``(P_T,)`` connectivity column of one beacon, cached by identity.

        Connectivity is elementwise over (point, beacon) pairs, so a column
        computed alone is byte-identical to its slice of any full matrix
        containing the beacon, and cached columns are safe to splice.
        """
        key = (int(beacon_id), float(position.x), float(position.y))
        cached = self._columns.get(key)
        metrics = get_metrics()
        if cached is not None:
            metrics.counter("incremental.column.hits").inc()
            return cached
        metrics.counter("incremental.column.misses").inc()
        column = self.realization.connectivity(
            self.grid, [Beacon(int(beacon_id), position)]
        )[:, 0]
        column.setflags(write=False)
        if len(self._columns) >= _MAX_CACHED_COLUMNS:
            del self._columns[next(iter(self._columns))]
        self._columns[key] = column
        return column

    def candidate_column(self, position) -> np.ndarray:
        """Connectivity column a beacon at ``position`` would have, ``(P_T,)``.

        The candidate is evaluated under the id it would actually receive
        (``field.next_beacon_id``), so the chosen candidate's noise is
        identical when the beacon is really added.
        """
        return self._column_for(self.field.next_beacon_id, as_point(position))

    def _peek_rows(self, columns, candidates, out) -> None:
        """Per-point LE with one more beacon, one candidate per row of
        ``out``; this world is left as it is.

        Row ``j`` of ``out`` becomes the LE with a beacon at
        ``candidates[j]`` whose connectivity is ``columns[j]`` (``(k, P)``
        bool, ``(k, 2)`` coordinates, ``(k, P)`` float).  Under the centroid
        localizer with a pointwise policy each row is this world's errors
        with the candidate's connected points recomputed: there the sums
        gain the candidate's position (the O(P) path adds ``1.0·p``, the
        same value) and the counts gain one, so every point is heard and
        no policy applies.  Elsewhere each row is the O(P) chain.
        """
        localizer = self.localizer
        if isinstance(localizer, CentroidLocalizer) and localizer.policy.pointwise:
            out[:] = self.errors()
            # flatnonzero and take: 2-D nonzero and fancy row indexing
            # cost several times more here.
            heard = np.flatnonzero(columns)
            row, idx = np.divmod(heard, columns.shape[1])
            state = self.centroid_state()
            est = np.take(state.coord_sums, idx, axis=0)
            est += np.take(candidates, row, axis=0)
            est /= (state.counts[idx] + 1).astype(float)[:, None]
            diff = est - np.take(self.points(), idx, axis=0)
            out.put(heard, np.sqrt(np.einsum("pk,pk->p", diff, diff)))
            return
        field_positions = self.field.positions()
        for errors, column, p in zip(out, columns, candidates):
            positions = np.vstack([field_positions, p])
            if isinstance(localizer, CentroidLocalizer):
                state = self.centroid_state().with_beacon(column, p)
                errors[:] = self._localize(positions, state=state)
            else:
                conn = np.column_stack([self.connectivity(), column])
                errors[:] = self._localize(positions, conn=conn)

    def errors_with_candidate(self, position) -> np.ndarray:
        """Per-point LE if a beacon were added at ``position`` (no mutation).

        The candidate's column comes from :meth:`candidate_column`, and the
        peek recomputes only the points it reaches where that is exact (see
        the module docstring).  It adds the column to the cached sums, so
        it can differ from the committed :meth:`with_beacon` world's errors
        in the last ulp, because a committed world re-derives its sums from
        connectivity.
        """
        p = as_point(position)
        out = np.empty((1, self.points().shape[0]))
        self._peek_rows(self.candidate_column(p)[None, :], p.as_array()[None, :], out)
        return out[0]

    def evaluate_candidate(self, position) -> tuple[float, float]:
        """§4.1 improvement metrics for a candidate beacon at ``position``.

        Returns:
            ``(improvement_in_mean, improvement_in_median)`` — before minus
            after; positive is better.
        """
        base_mean, base_median = self.base_stats()
        after = ErrorSurface(self.grid, self.errors_with_candidate(position))
        return base_mean - after.mean_error(), base_median - after.median_error()

    def scan_add_candidates(self, positions, *, chunk: int = 256) -> np.ndarray:
        """Mean LE after adding a beacon at each candidate, ``(K,)``.

        One windowed connectivity pass per ``chunk`` candidates (each column
        equals :meth:`candidate_column`'s: every candidate probes under the
        id the added beacon would receive), then one peek per candidate,
        :data:`_SCAN_ROWS` LE rows at a time: one base field and K cheap
        counterfactuals instead of K rebuilds.  Each mean is
        ``float(np.nanmean(errors))`` of that candidate's
        :meth:`errors_with_candidate`, NaN where every point is excluded.
        """
        candidates = as_point_array(positions)
        means = np.empty(candidates.shape[0])
        rows = np.empty((min(_SCAN_ROWS, candidates.shape[0]), self.points().shape[0]))
        metrics = get_metrics()
        with get_tracer().span(
            "incremental.scan", candidates=int(candidates.shape[0])
        ):
            for start in range(0, candidates.shape[0], chunk):
                block = candidates[start : start + chunk]
                columns = candidate_columns(
                    self.realization, self.grid, self.field.next_beacon_id, block
                ).T
                metrics.counter("incremental.scan.candidates").inc(block.shape[0])
                for first in range(0, block.shape[0], _SCAN_ROWS):
                    last = min(first + _SCAN_ROWS, block.shape[0])
                    stack = rows[: last - first]
                    self._peek_rows(columns[first:last], block[first:last], stack)
                    means[start + first : start + last] = _row_means(stack)
        return means

    def with_beacon(self, position) -> "TrialWorld":
        """A new world with a beacon deployed at ``position``.

        Its connectivity is this world's with the beacon's column spliced
        on, and its sums and errors re-derive from that matrix, so it is
        byte-identical to a fresh world built on the extended field.
        """
        p = as_point(position)
        conn = np.column_stack([self.connectivity(), self.candidate_column(p)])
        return self._successor(self.field.with_beacon_at(p), conn)


def _row_means(rows: np.ndarray) -> np.ndarray:
    """``float(np.nanmean(row))`` of each row of a C-contiguous stack, NaN
    (and no warning) for an all-NaN row.

    A row without NaN reduces through ``np.mean``: NumPy sums a contiguous
    row with the 1-D call's pairwise summation, and ``nanmean`` of a
    NaN-free row is that sum over the row length, so the bytes are equal
    without ``nanmean``'s masked copy.  A row holding an excluded (NaN)
    point takes the 1-D ``nanmean`` itself.
    """
    means = np.mean(rows, axis=1)
    for j in np.flatnonzero(np.isnan(means)):
        if not np.isnan(rows[j]).all():
            means[j] = np.nanmean(rows[j])
    return means


def run_placement_trial(
    world: TrialWorld,
    algorithms: "list[PlacementAlgorithm]",
    rng_for: "callable",
) -> list[TrialOutcome]:
    """Evaluate several placement algorithms on one shared world.

    Args:
        world: the deployment under study; its survey is computed once and
            shared (all algorithms see identical measurements, as in §4.1).
        algorithms: the algorithms to compare.
        rng_for: ``rng_for(algorithm_name) -> Generator`` supplying each
            algorithm an independent decision stream.

    Returns:
        One :class:`TrialOutcome` per algorithm, in input order.
    """
    tracer = get_tracer()
    metrics = get_metrics()
    with tracer.span("trial.survey"):
        survey = world.survey()
        base_mean, base_median = world.base_stats()
    outcomes = []
    for algorithm in algorithms:
        rng = rng_for(algorithm.name)
        with tracer.span("placement.propose", algorithm=algorithm.name), \
                metrics.histogram(f"placement.propose.seconds.{algorithm.name}").time():
            pick = algorithm.propose(
                survey, rng, world if algorithm.requires_world else None
            )
        with tracer.span("placement.evaluate", algorithm=algorithm.name):
            gain_mean, gain_median = world.evaluate_candidate(pick)
        metrics.counter("placement.proposals").inc()
        outcomes.append(
            TrialOutcome(
                algorithm=algorithm.name,
                pick=pick,
                base_mean=base_mean,
                base_median=base_median,
                improvement_mean=gain_mean,
                improvement_median=gain_median,
            )
        )
    return outcomes
