"""Fault-aware placement: survivability-weighted Max and Grid.

The paper's Max/Grid score candidate points by *measured* localization
error — a snapshot that silently assumes every beacon serving a point today
will keep serving it.  Under a declared :class:`~repro.faults.FaultModel`
that assumption is wrong in a quantifiable way: each existing beacon will
still be up at the planning horizon only with the survival probability
:func:`repro.selfheal.survival.survival_probability` derives from the model
(crash/battery hazard, intermittent duty factor).

These variants re-score every surveyed point by its **expected post-failure
error**.  For a point ``p`` served by connected beacons ``C(p)`` with
survival weights ``q_i``::

    orphan(p) = ∏_{i ∈ C(p)} (1 − q_i)          # P(all of p's beacons die)
    score(p)  = (1 − orphan(p)) · err(p) + orphan(p) · penalty

``penalty`` is the error assigned to a point with no surviving beacon
(default: half the terrain side, the centroid localizer's worst-case scale).
The weighting has exactly the issue's intended effect: a point whose low
error rests entirely on beacons that are about to die scores near the
orphan penalty, so the new beacon is pulled toward it instead of leaning on
the doomed coverage; a point backed by several long-lived beacons keeps its
measured score.  Points already uncovered (``C(p) = ∅``) have
``orphan = 1`` and score at the full penalty.

Both variants need per-point connectivity and therefore declare
``requires_world = True`` (like the oracle-type algorithms); with
``NoFaults`` every ``q_i = 1`` and covered points keep their measured
scores exactly — the only remaining difference from Max/Grid is that
orphaned points count the penalty instead of zero.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..exploration import Survey
from ..geometry import Point
from ..placement import GridPlacement, PlacementAlgorithm
from .survival import survival_probability

__all__ = ["FaultAwareMax", "FaultAwareGrid"]

# Survival weights are clipped just below 1 so the orphan log-sum never
# multiplies 0 (unconnected) by -inf (immortal beacon) into NaN; the
# resulting orphan probability floor (~1e-12 per beacon) is far below any
# score difference that could change an argmax.
_MAX_SURVIVAL = 1.0 - 1e-12


class _SurvivabilityScorer:
    """Shared expected-post-failure scoring for the fault-aware variants."""

    def __init__(
        self,
        fault_model,
        horizon: float,
        *,
        penalty: float | None = None,
        ages=None,
    ):
        if horizon < 0.0:
            raise ValueError(f"horizon must be non-negative, got {horizon}")
        if penalty is not None and penalty < 0.0:
            raise ValueError(f"penalty must be non-negative, got {penalty}")
        self.fault_model = fault_model
        self.horizon = float(horizon)
        self.penalty = None if penalty is None else float(penalty)
        self.ages = ages

    def _age_of(self, beacon_id: int) -> float:
        ages = self.ages
        if ages is None:
            return 0.0
        if isinstance(ages, Mapping):
            return float(ages.get(beacon_id, 0.0))
        return float(ages)

    def survival_weights(self, field) -> np.ndarray:
        """Per-beacon ``P(still up at horizon | up now)``, in field order."""
        weights = np.empty(len(field))
        cache: dict[float, float] = {}
        for i, beacon_id in enumerate(field.beacon_ids):
            age = self._age_of(beacon_id)
            if age not in cache:
                cache[age] = survival_probability(
                    self.fault_model, age, self.horizon
                )
            weights[i] = cache[age]
        return weights

    def _connectivity(self, survey: Survey, world) -> np.ndarray:
        if (
            survey.is_complete
            and world.grid is survey.grid
        ):
            return world.connectivity()
        return world.realization.connectivity(survey.points, world.field)

    def expected_errors(self, survey: Survey, world) -> np.ndarray:
        """``score(p)`` over the survey points — the re-weighted error field."""
        if world is None:
            raise ValueError(
                "fault-aware placement needs the trial world for connectivity "
                "(requires_world algorithms receive it from run_placement_trial)"
            )
        penalty = (
            self.penalty if self.penalty is not None else world.terrain_side / 2.0
        )
        errors = np.where(np.isnan(survey.errors), penalty, survey.errors)
        if len(world.field) == 0:
            return np.full(survey.num_points, penalty)
        conn = self._connectivity(survey, world).astype(float)
        q = np.clip(self.survival_weights(world.field), 0.0, _MAX_SURVIVAL)
        orphan = np.exp(conn @ np.log1p(-q))
        return (1.0 - orphan) * errors + orphan * penalty


class FaultAwareMax(PlacementAlgorithm):
    """Max placement over expected post-failure error.

    Args:
        fault_model: the declared failure statistics (a
            :class:`~repro.faults.FaultModel` or its spec dict).
        horizon: planning look-ahead in seconds — how far into the future
            the survivability weighting anticipates.
        penalty: error charged to an orphaned point (default: half the
            terrain side).
        ages: per-beacon elapsed service time used to condition survival —
            a ``{beacon_id: age}`` mapping (missing ids default to 0), a
            scalar applied to every beacon, or None for a fresh field.
        refine_k: when set, the top-k points by survival-weighted score are
            rescored by the world's candidate scan
            (:meth:`repro.sim.TrialWorld.scan_add_candidates`) by the mean
            LE a beacon there would actually produce, and the best one wins.
    """

    name = "fa-max"
    requires_world = True

    def __init__(
        self, fault_model, horizon: float, *, penalty=None, ages=None,
        refine_k: int | None = None,
    ):
        if refine_k is not None and refine_k < 1:
            raise ValueError(f"refine_k must be >= 1, got {refine_k}")
        self.refine_k = refine_k
        self._scorer = _SurvivabilityScorer(
            fault_model, horizon, penalty=penalty, ages=ages
        )

    def survival_weights(self, field) -> np.ndarray:
        """Per-beacon survival weights, in field order (for inspection)."""
        return self._scorer.survival_weights(field)

    def expected_errors(self, survey: Survey, world) -> np.ndarray:
        """The survivability-weighted error field this variant maximizes."""
        return self._scorer.expected_errors(survey, world)

    def propose(self, survey: Survey, rng: np.random.Generator, world=None) -> Point:
        if survey.num_points == 0:
            raise ValueError("survey has no measured points for fa-max placement")
        scores = self.expected_errors(survey, world)
        if self.refine_k is not None:
            order = np.argsort(-scores, kind="stable")[: self.refine_k]
            candidates = survey.points[order]
            means = world.scan_add_candidates(candidates)
            best = int(np.nanargmin(means))
            return Point(float(candidates[best, 0]), float(candidates[best, 1]))
        idx = int(np.argmax(scores))
        x, y = survey.points[idx]
        return Point(float(x), float(y))


class FaultAwareGrid(GridPlacement):
    """Grid placement whose cumulative scores use expected post-failure error.

    The overlapping-grid accumulation (Section 3.2.3) is inherited unchanged
    from :class:`~repro.placement.GridPlacement`; only the per-point error
    vector feeding it is replaced by the survivability-weighted scores.

    Args:
        layout: the overlapping-grid decomposition.
        fault_model: declared failure statistics.
        horizon: planning look-ahead in seconds.
        penalty: orphaned-point error (default: half the terrain side).
        ages: per-beacon service ages (see :class:`FaultAwareMax`).
        refine_k: when set, the top-k centers by survival-weighted
            cumulative score are rescored by the world's candidate scan and
            the best one wins (see :class:`FaultAwareMax`).
    """

    name = "fa-grid"
    requires_world = True

    def __init__(
        self, layout, fault_model, horizon: float, *, penalty=None, ages=None,
        refine_k: int | None = None,
    ):
        super().__init__(layout, refine_k=refine_k)
        self._scorer = _SurvivabilityScorer(
            fault_model, horizon, penalty=penalty, ages=ages
        )

    @classmethod
    def paper_configuration(
        cls,
        side: float,
        radio_range: float,
        fault_model,
        horizon: float,
        num_grids: int = 400,
        **kwargs,
    ) -> "FaultAwareGrid":
        """The §4 grid geometry (``gridSide = 2R``) with fault awareness."""
        base = GridPlacement.paper_configuration(side, radio_range, num_grids)
        return cls(base.layout, fault_model, horizon, **kwargs)

    def survival_weights(self, field) -> np.ndarray:
        """Per-beacon survival weights, in field order (for inspection)."""
        return self._scorer.survival_weights(field)

    def expected_errors(self, survey: Survey, world) -> np.ndarray:
        """The survivability-weighted error field this variant accumulates."""
        return self._scorer.expected_errors(survey, world)

    def propose(self, survey: Survey, rng: np.random.Generator, world=None) -> Point:
        if survey.num_points == 0:
            raise ValueError("survey has no measured points for fa-grid placement")
        weighted = self.expected_errors(survey, world)
        if self.refine_k is not None:
            candidates = self.top_candidates(survey, self.refine_k, errors=weighted)
            means = world.scan_add_candidates(candidates)
            best = int(np.nanargmin(means))
            return Point(float(candidates[best, 0]), float(candidates[best, 1]))
        scores = self.cumulative_errors(survey, errors=weighted)
        winner = int(np.argmax(scores))
        x, y = self.layout.centers()[winner]
        return Point(float(x), float(y))
