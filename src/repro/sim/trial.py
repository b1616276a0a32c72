"""Single placement trials: one world, one survey, one added beacon.

:class:`TrialWorld` bundles everything one simulated deployment consists of
— the beacon field, the (static) propagation realization, the measurement
lattice, the overlapping-grid layout and the localizer — and owns the two
operations every experiment is built from:

* :meth:`TrialWorld.survey` — the complete, noise-free terrain survey of
  §3.1 (the error surface over the lattice), and
* :meth:`TrialWorld.evaluate_candidate` — the counterfactual: what would the
  mean/median error become if a beacon were added at a given point?

Candidate evaluation is the hot loop of every figure.  For the paper's
centroid localizer it runs incrementally: the world caches the per-point
connected-coordinate sums (:class:`~repro.localization.CentroidState`), so a
candidate costs one ``(P,)`` connectivity column plus O(P) arithmetic — not
a fresh ``(P × N)`` pass.  Non-centroid localizers fall back to a full
re-estimate, trading speed for generality.

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

__all__ = ["TrialWorld", "TrialOutcome", "run_placement_trial"]


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
            with get_tracer().span("world.connectivity"):
                self._conn = self.realization.connectivity(self.points(), self.field)
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
        in one array pass and hand each world its slice here; afterwards
        :meth:`connectivity`, :meth:`errors` and the candidate counterfactuals
        are cache hits.  Callers own the bit-identity contract: the supplied
        arrays must equal what the world would have computed itself.
        """
        if conn is not None:
            self._conn = conn
        if state is not None:
            self._state = state
        if errors is not None:
            self._errors = errors

    # -- Error evaluation ----------------------------------------------------

    def _centroid_state(self) -> CentroidState:
        if self._state is None:
            self._state = CentroidState.from_connectivity(
                self.connectivity(), self.field.positions()
            )
        return self._state

    def _errors_for_state(self, state: CentroidState, positions: np.ndarray) -> np.ndarray:
        localizer = self.localizer
        estimates = state.estimates(
            localizer.policy,
            points=self.points(),
            beacon_positions=positions,
            terrain_side=localizer.terrain_side,
        )
        return localization_errors(estimates, self.points())

    def errors(self) -> np.ndarray:
        """Per-lattice-point localization error of the current field."""
        if self._errors is None:
            if isinstance(self.localizer, CentroidLocalizer):
                self._errors = self._errors_for_state(
                    self._centroid_state(), self.field.positions()
                )
            else:
                estimates = self.localizer.estimate(
                    self.connectivity(), self.field.positions(), self.points()
                )
                self._errors = localization_errors(estimates, self.points())
        return self._errors

    def error_surface(self) -> ErrorSurface:
        """The error field as an :class:`~repro.localization.ErrorSurface`."""
        return ErrorSurface(self.grid, self.errors())

    def survey(self) -> Survey:
        """The paper's complete, noise-free survey of this world."""
        return Survey.from_error_surface(self.error_surface())

    def base_stats(self) -> tuple[float, float]:
        """(mean, median) LE of the current field."""
        surface = self.error_surface()
        return surface.mean_error(), surface.median_error()

    # -- Counterfactuals -----------------------------------------------------

    def candidate_column(self, position) -> np.ndarray:
        """Connectivity column a beacon at ``position`` would have, ``(P_T,)``.

        The candidate is evaluated under the id it would actually receive
        (``field.next_beacon_id``), so the chosen candidate's noise is
        identical when the beacon is really added.
        """
        p = as_point(position)
        candidate = Beacon(self.field.next_beacon_id, p)
        return self.realization.connectivity(self.points(), [candidate])[:, 0]

    def errors_with_candidate(self, position) -> np.ndarray:
        """Per-point LE if a beacon were added at ``position`` (no mutation)."""
        p = as_point(position)
        column = self.candidate_column(p)
        if isinstance(self.localizer, CentroidLocalizer):
            state = self._centroid_state().with_beacon(column, p)
            positions = np.vstack([self.field.positions(), [p.as_array()]])
            return self._errors_for_state(state, positions)
        extended = self.field.with_beacon_at(p)
        conn = np.column_stack([self.connectivity(), column])
        estimates = self.localizer.estimate(conn, extended.positions(), self.points())
        return localization_errors(estimates, self.points())

    def evaluate_candidate(self, position) -> tuple[float, float]:
        """§4.1 improvement metrics for a candidate beacon at ``position``.

        Returns:
            ``(improvement_in_mean, improvement_in_median)`` — before minus
            after; positive is better.
        """
        base_mean, base_median = self.base_stats()
        after = ErrorSurface(self.grid, self.errors_with_candidate(position))
        return base_mean - after.mean_error(), base_median - after.median_error()

    def with_beacon(self, position) -> "TrialWorld":
        """A new world with the beacon actually deployed (caches reused)."""
        p = as_point(position)
        column = self.candidate_column(p)
        new_world = TrialWorld(
            self.field.with_beacon_at(p),
            self.realization,
            self.grid,
            self.layout,
            self.localizer,
        )
        if self._conn is not None:
            new_world._conn = np.column_stack([self._conn, column])
        if self._state is not None and isinstance(self.localizer, CentroidLocalizer):
            new_world._state = self._state.with_beacon(column, p)
        return new_world


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
