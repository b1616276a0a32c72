"""The Max placement algorithm (Section 3.2.2).

    Step 1  Divide the terrain into step × step squares.
    Step 2  Measure localization error at each square corner.
    Step 3  Add the new beacon at the point with the highest measured
            localization error among all points.

The algorithm assumes high-error points are spatially correlated; it is
cheap (linear in the number of measured points, O(P_T)) but *"sensitive to
local maxima"* — a single loud outlier attracts the beacon even if its
neighbourhood is fine, which is exactly the weakness the evaluation exposes
at low densities.  Ties break to the first point in survey order, which for
a complete lattice sweep means row-major order — deterministic.

The local-maxima weakness has a direct fix once candidate evaluation is
cheap: with ``refine_k`` set (and a world available), the top-k surveyed
points are rescored by the world's candidate scan
(:meth:`repro.sim.TrialWorld.scan_add_candidates`) by the mean LE a beacon
there would actually produce — one base field plus k cheap peeks — and the
best one wins.
``refine_k=None`` (the default) is the paper's exact argmax.
"""

from __future__ import annotations

import numpy as np

from ..exploration import Survey
from ..geometry import Point
from .base import PlacementAlgorithm

__all__ = ["MaxPlacement"]


class MaxPlacement(PlacementAlgorithm):
    """Place at the surveyed point with maximum localization error.

    Args:
        refine_k: when set, candidate scan width for the engine-backed
            refinement (see module docstring); None keeps the paper's
            survey-only behavior.
    """

    name = "max"

    def __init__(self, refine_k: int | None = None):
        if refine_k is not None and refine_k < 1:
            raise ValueError(f"refine_k must be >= 1, got {refine_k}")
        self.refine_k = refine_k
        self.requires_world = refine_k is not None

    def top_candidates(self, survey: Survey, k: int) -> np.ndarray:
        """The ``k`` highest-error surveyed points, ``(k', 2)``, best first.

        NaN measurements never qualify; fewer than ``k`` rows come back when
        the survey has fewer finite points.  Ties keep survey order.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        errors = survey.errors
        if errors.size == 0 or np.all(np.isnan(errors)):
            raise ValueError("survey has no measured points for Max placement")
        scores = np.where(np.isnan(errors), -np.inf, errors)
        order = np.argsort(-scores, kind="stable")
        order = order[np.isfinite(scores[order])]
        return survey.points[order[:k]]

    def propose(
        self,
        survey: Survey,
        rng: np.random.Generator,
        world=None,
    ) -> Point:
        if self.refine_k is not None and world is not None:
            candidates = self.top_candidates(survey, self.refine_k)
            means = world.scan_add_candidates(candidates)
            best = int(np.nanargmin(means))
            return Point(float(candidates[best, 0]), float(candidates[best, 1]))
        errors = survey.errors
        if errors.size == 0 or np.all(np.isnan(errors)):
            raise ValueError("survey has no measured points for Max placement")
        idx = int(np.nanargmax(errors))
        x, y = survey.points[idx]
        return Point(float(x), float(y))
