"""Greedy-k placement over the full lattice — the first optimization baseline.

Related work frames beacon placement as an optimization problem (Schaff et
al., "Jointly Optimizing Placement and Inference for Beacon-based
Localization"; Sequeira et al., "Towards Optimal Beacon Placement for
Range-Aided Localization" — see PAPERS.md): thousands of objective
evaluations per placement, a regime the paper's 2001-era algorithms never
enter because a full localization rebuild per candidate is unaffordable.

:class:`GreedyKPlacement` is that baseline, made affordable by the world's
candidate scan (:meth:`repro.sim.TrialWorld.scan_add_candidates`): each
round scans *every* lattice point (or a configured candidate set) for the
position that minimizes the resulting mean LE — one base field plus K cheap
peeks instead of K rebuilds, each recomputing LE only at the lattice points
the candidate reaches — commits the argmin with ``with_beacon`` (an
:class:`~repro.sim.AddBeacon` delta on a :class:`~repro.sim.FieldState`),
and repeats.  Bench E16 compares it against Random/Max/Grid at an equal
measurement budget.

Unlike the oracle (which maximizes *improvement* over a coarse candidate
lattice), greedy-k minimizes the absolute post-placement mean and defaults
to the full measurement lattice — the exhaustive single-step optimum.
Ties break to the first candidate in scan order (row-major over the
lattice), so plans are deterministic.
"""

from __future__ import annotations

import numpy as np

from ..exploration import Survey
from ..geometry import Point, as_point_array
from .base import PlacementAlgorithm

__all__ = ["GreedyKPlacement"]


class GreedyKPlacement(PlacementAlgorithm):
    """Greedy sequential placement minimizing mean LE over a candidate set.

    Args:
        k: beacons to place per :meth:`plan` call (``propose`` returns the
            first pick regardless).
        candidates: ``(K, 2)`` candidate positions; None scans the survey's
            full point set (the measurement lattice for complete surveys).
        subsample: optional stride over the candidate set (``2`` keeps every
            second candidate) — a cheap knob for benches on large lattices.
    """

    name = "greedy-k"
    requires_world = True

    def __init__(self, k: int = 1, candidates=None, subsample: int = 1):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if subsample < 1:
            raise ValueError(f"subsample must be >= 1, got {subsample}")
        self.k = int(k)
        self.candidates = None if candidates is None else as_point_array(candidates)
        self.subsample = int(subsample)

    def _candidate_set(self, survey: Survey) -> np.ndarray:
        candidates = survey.points if self.candidates is None else self.candidates
        if self.subsample > 1:
            candidates = candidates[:: self.subsample]
        if candidates.shape[0] == 0:
            raise ValueError("greedy-k has no candidate positions to scan")
        return candidates

    def plan(
        self,
        survey: Survey,
        rng: np.random.Generator,
        world,
        k: int | None = None,
    ) -> list[Point]:
        """Greedily place ``k`` beacons, committing each pick before the next scan.

        Returns the picks in deployment order.  The caller's ``world`` is
        not mutated: each pick commits into a new world.
        """
        if world is None:
            raise ValueError("GreedyKPlacement requires the trial world")
        rounds = self.k if k is None else int(k)
        if rounds < 1:
            raise ValueError(f"k must be >= 1, got {rounds}")
        candidates = self._candidate_set(survey)
        picks: list[Point] = []
        for _ in range(rounds):
            means = world.scan_add_candidates(candidates)
            if np.all(np.isnan(means)):
                raise ValueError("every candidate leaves the field unmeasurable")
            best = int(np.nanargmin(means))
            pick = Point(float(candidates[best, 0]), float(candidates[best, 1]))
            picks.append(pick)
            world = world.with_beacon(pick)
        return picks

    def propose(
        self,
        survey: Survey,
        rng: np.random.Generator,
        world=None,
    ) -> Point:
        return self.plan(survey, rng, world, k=1)[0]
