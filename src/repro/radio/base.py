"""Propagation-model interfaces.

A :class:`PropagationModel` describes radio propagation *statistics*; calling
:meth:`PropagationModel.realize` draws one immutable *realization* — the
static noise field for one simulated deployment.  All connectivity questions
are answered by the realization, so that:

* connectivity between a location and a beacon never changes within a trial
  (the paper's noise is static in time),
* adding a beacon later leaves every existing link untouched (realizations
  key their randomness on stable beacon ids and quantized locations, not on
  query order), and
* re-running with the same seed reproduces the exact same world.

Every model in this package reduces to a per-link *effective range*: the
link (P, B) is connected iff ``dist(P, B) ≤ effective_range(P, B)``.  That
covers the ideal disk (constant R), the paper's beacon-noise model
(``R(1 + u·nf(B))``), log-normal shadowing (solve the link budget for the
distance threshold given the static fade), and terrain occlusion (attenuate
the range on blocked sight-lines).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from ..field import Beacon, BeaconField
from ..geometry import MeasurementGrid, as_point_array, pairwise_distances

__all__ = ["PropagationModel", "PropagationRealization", "beacon_rows"]


def beacon_rows(beacons: "BeaconField | Sequence[Beacon]") -> tuple[np.ndarray, np.ndarray]:
    """Normalize a field or beacon sequence to ``(ids, positions)`` arrays.

    Returns:
        ``ids`` as ``(N,)`` uint64 and ``positions`` as ``(N, 2)`` float.
    """
    if isinstance(beacons, BeaconField):
        ids = np.asarray(beacons.beacon_ids, dtype=np.uint64).reshape(-1)
        return ids, beacons.positions()
    seq = list(beacons)
    ids = np.asarray([b.beacon_id for b in seq], dtype=np.uint64)
    positions = as_point_array([b.position for b in seq])
    return ids, positions


class PropagationRealization(ABC):
    """One drawn world: a static effective-range field over (location, beacon).

    Subclasses implement :meth:`effective_ranges`; everything else derives
    from it.
    """

    @abstractmethod
    def effective_ranges(self, points, beacons) -> np.ndarray:
        """Per-link connectivity thresholds.

        Args:
            points: ``(P, 2)`` query locations (any points, not just lattice
                points — the noise is a field over the whole terrain).
            beacons: a :class:`BeaconField` or sequence of :class:`Beacon`.

        Returns:
            ``(P, N)`` array; link (p, b) is up iff ``dist ≤ out[p, b]``.
        """

    def connectivity(self, points, beacons) -> np.ndarray:
        """Boolean connectivity matrix ``(P, N)`` (see class docstring).

        ``points`` is a ``(P, 2)`` array or a
        :class:`~repro.geometry.MeasurementGrid`, evaluated at its lattice
        points.
        """
        if isinstance(points, MeasurementGrid):
            points = points.points()
        _, positions = beacon_rows(beacons)
        pts = as_point_array(points)
        if positions.shape[0] == 0:
            return np.zeros((pts.shape[0], 0), dtype=bool)
        dist = pairwise_distances(pts, positions)
        return dist <= self.effective_ranges(pts, beacons)

    def message_success_probability(self, points, beacons) -> np.ndarray:
        """Per-message delivery probability for each link, in ``[0, 1]``.

        The geometric models are all-or-nothing — connected links deliver
        every message, others none — which makes the §2.2 threshold rule
        (``received fraction ≥ CM_thresh``) agree exactly with
        :meth:`connectivity`.  Models with fast fading override this to
        return a smooth ramp; the protocol simulator consumes it per
        transmission.
        """
        return self.connectivity(points, beacons).astype(float)


class PropagationModel(ABC):
    """A family of propagation worlds, parameterized and seedable."""

    @property
    @abstractmethod
    def nominal_range(self) -> float:
        """The nominal transmission range R (meters)."""

    @abstractmethod
    def realize(self, rng: np.random.Generator) -> PropagationRealization:
        """Draw one static realization of the propagation environment.

        Args:
            rng: source of the realization's identity; the realization itself
                is deterministic once drawn (it captures a seed, not the
                generator).
        """
