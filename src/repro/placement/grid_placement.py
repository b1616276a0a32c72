"""The Grid placement algorithm (Section 3.2.3).

    Steps 1–2  As Max: measure localization error on the lattice.
    Step 3     Divide the terrain into N_G partially overlapping grids of
               side gridSide = 2R (centers as per the paper's formula).
    Step 4     For each grid G(i, j), compute the cumulative localization
               error S(i, j) over the measured points inside it.
    Step 5     Add the new beacon at the center of the grid with maximum
               cumulative error.

The grid side of 2R means each grid *"encloses the radio reachability region
of its center"*: a beacon at the winning center reaches (roughly) every point
whose error contributed to its score, which is why Grid *"can improve many
points at once"* and wins at low densities.  The price is O(N_G·P_G) work.

Ties break to the lowest grid index (row-major over centers).

For complete lattice surveys the cumulative errors are a mat-vec with the
cached boolean masks, cast to float64 a block of rows at a time (see
:meth:`~repro.geometry.OverlappingGridLayout.cumulative_values`); for
partial surveys membership is computed directly from the surveyed points,
so the same algorithm runs on lawnmower or random-walk explorations.
"""

from __future__ import annotations

import numpy as np

from ..exploration import Survey
from ..geometry import OverlappingGridLayout, Point
from .base import PlacementAlgorithm

__all__ = ["GridPlacement"]


class GridPlacement(PlacementAlgorithm):
    """Place at the center of the overlapping grid with max cumulative error.

    Args:
        layout: the overlapping-grid decomposition (the paper uses
            ``N_G = 400`` grids of side 2R on the 100 m terrain).
        refine_k: when set, the top-k grid centers by cumulative error are
            rescored by the world's candidate scan
            (:meth:`repro.sim.TrialWorld.scan_add_candidates`) by the mean
            LE a beacon there would actually produce, and the best center
            wins; None keeps the paper's survey-only argmax.
    """

    name = "grid"

    def __init__(self, layout: OverlappingGridLayout, refine_k: int | None = None):
        if refine_k is not None and refine_k < 1:
            raise ValueError(f"refine_k must be >= 1, got {refine_k}")
        self.layout = layout
        self.refine_k = refine_k
        if refine_k is not None:
            self.requires_world = True

    @classmethod
    def paper_configuration(
        cls, side: float, radio_range: float, num_grids: int = 400
    ) -> "GridPlacement":
        """The §4 configuration: ``gridSide = 2R``, ``N_G = 400``."""
        return cls(OverlappingGridLayout.for_radio_range(side, radio_range, num_grids))

    def cumulative_errors(
        self, survey: Survey, errors: np.ndarray | None = None
    ) -> np.ndarray:
        """``S(i, j)`` for every grid, as an ``(N_G,)`` array.

        NaN error measurements (excluded points) contribute zero.

        Args:
            survey: the measured points (supplies geometry and, by default,
                the error values).
            errors: optional ``(P,)`` replacement for ``survey.errors`` over
                the same points — survivability-weighted variants
                (:mod:`repro.selfheal.placement`) rescore points while
                reusing the grid accumulation unchanged.
        """
        errors = survey.errors if errors is None else np.asarray(errors, dtype=float)
        if errors.shape != (survey.num_points,):
            raise ValueError(
                f"errors shape {errors.shape} does not match "
                f"{survey.num_points} survey points"
            )
        errors = np.nan_to_num(errors, nan=0.0)
        if survey.is_complete and abs(survey.grid.side - self.layout.side) < 1e-9:
            return self.layout.cumulative_values(survey.grid, errors)
        # Partial survey: direct membership test against surveyed points.
        centers = self.layout.centers()
        half = self.layout.grid_side / 2.0 + 1e-9
        dx = np.abs(survey.points[:, 0][None, :] - centers[:, 0][:, None])
        dy = np.abs(survey.points[:, 1][None, :] - centers[:, 1][:, None])
        masks = (dx <= half) & (dy <= half)
        return masks @ errors

    def top_candidates(
        self, survey: Survey, k: int, errors: np.ndarray | None = None
    ) -> np.ndarray:
        """The ``k`` grid centers with highest cumulative error, best first.

        Args:
            survey: the measured points.
            k: how many centers to return.
            errors: optional per-point rescoring (see
                :meth:`cumulative_errors`).
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        scores = self.cumulative_errors(survey, errors)
        order = np.argsort(-scores, kind="stable")
        return self.layout.centers()[order[:k]]

    def propose(
        self,
        survey: Survey,
        rng: np.random.Generator,
        world=None,
    ) -> Point:
        if survey.num_points == 0:
            raise ValueError("survey has no measured points for Grid placement")
        if self.refine_k is not None and world is not None:
            candidates = self.top_candidates(survey, self.refine_k)
            means = world.scan_add_candidates(candidates)
            best = int(np.nanargmin(means))
            return Point(float(candidates[best, 0]), float(candidates[best, 1]))
        scores = self.cumulative_errors(survey)
        winner = int(np.argmax(scores))
        x, y = self.layout.centers()[winner]
        return Point(float(x), float(y))
