"""Connectivity-centroid localization (Section 2.2) with incremental update.

A client estimates its position as the **centroid of the positions of all
connected beacons**::

    (X_est, Y_est) = mean{ (X_i, Y_i) : beacon i connected }

:class:`CentroidLocalizer` is the batch estimator.  :class:`CentroidState`
is the performance-critical companion: it keeps, per client point, the
*running sum* of connected beacon coordinates and the *count* of connected
beacons, so that evaluating a candidate additional beacon (the inner loop of
every placement experiment — thousands of times per figure) costs O(P)
instead of O(P·N).  :meth:`CentroidState.with_beacon` is that O(P) step and
the reference for :class:`repro.sim.TrialWorld`'s candidate peek, which
repeats its arithmetic only on the points that hear the candidate.

The state supports deltas in **both directions**: :meth:`CentroidState.with_beacon`
adds a beacon and :meth:`CentroidState.remove_beacon` subtracts one — the
centroid sums are linear in the beacon set, which is what makes this
localizer *subtractable* (see DESIGN.md §13).  Exact byte-level equality on
removal needs the re-derivation path (floating-point subtraction is not
exactly invertible); the pure-subtraction fast path is exact for the counts
and for every untouched point, and within one ulp elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import as_point_array
from .base import Localizer, UnlocalizedPolicy, apply_unlocalized_policy

__all__ = ["CentroidLocalizer", "CentroidState"]


@dataclass
class CentroidState:
    """Running connected-coordinate sums for incremental centroid updates.

    Attributes:
        coord_sums: ``(P, 2)`` sum of connected beacon coordinates per point.
        counts: ``(P,)`` number of connected beacons per point.
    """

    coord_sums: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_connectivity(
        cls, connectivity: np.ndarray, beacon_positions: np.ndarray
    ) -> "CentroidState":
        """Build the state in one vectorized pass."""
        conn = np.asarray(connectivity, dtype=bool)
        pos = as_point_array(beacon_positions)
        if conn.ndim != 2 or conn.shape[1] != pos.shape[0]:
            raise ValueError(
                f"connectivity shape {conn.shape} does not match "
                f"{pos.shape[0]} beacon positions"
            )
        weights = conn.astype(float)
        return cls(coord_sums=weights @ pos, counts=conn.sum(axis=1))

    def copy(self) -> "CentroidState":
        """An independent copy (for trying several candidates from one base)."""
        return CentroidState(self.coord_sums.copy(), self.counts.copy())

    def with_beacon(self, column: np.ndarray, position) -> "CentroidState":
        """State after adding one beacon — O(P), input state untouched.

        Args:
            column: ``(P,)`` boolean connectivity of the new beacon.
            position: the new beacon's coordinates.
        """
        col = np.asarray(column, dtype=bool)
        if col.shape != self.counts.shape:
            raise ValueError(f"column shape {col.shape} != counts shape {self.counts.shape}")
        pos = as_point_array(position)[0]
        sums = self.coord_sums + col[:, None] * pos[None, :]
        return CentroidState(sums, self.counts + col)

    def remove_beacon(
        self,
        column: np.ndarray,
        position,
        *,
        connectivity: np.ndarray | None = None,
        beacon_positions: np.ndarray | None = None,
    ) -> "CentroidState":
        """State after removing one beacon — the inverse of :meth:`with_beacon`.

        The counts subtract exactly (integer arithmetic).  For the coordinate
        sums there are two paths:

        * **Subtraction** (default) — O(affected points): only rows where
          ``column`` is True are touched, so every other row stays
          bit-identical; rows whose count drops to zero are reset to an
          exact ``+0.0``.  Touched rows with survivors can differ from a
          fresh recompute in the last ulp (IEEE addition is not exactly
          invertible).
        * **Re-derivation** — pass the remaining field's ``connectivity``
          and ``beacon_positions`` to rebuild the sums with the same
          vectorized pass :meth:`from_connectivity` uses, which makes the
          result **byte-identical** to a state built fresh from the
          remaining field (same inputs, same arithmetic).

        Args:
            column: ``(P,)`` boolean connectivity of the departing beacon.
            position: the departing beacon's coordinates.
            connectivity: optional ``(P, N-1)`` connectivity of the
                *remaining* field (enables the exact re-derivation path).
            beacon_positions: optional ``(N-1, 2)`` positions of the
                remaining field (required with ``connectivity``).
        """
        col = np.asarray(column, dtype=bool)
        if col.shape != self.counts.shape:
            raise ValueError(f"column shape {col.shape} != counts shape {self.counts.shape}")
        counts = self.counts - col
        if np.any(counts < 0):
            raise ValueError("column removes a beacon from points that never heard it")
        if connectivity is not None:
            if beacon_positions is None:
                raise ValueError("re-derivation needs beacon_positions with connectivity")
            derived = CentroidState.from_connectivity(connectivity, beacon_positions)
            if not np.array_equal(derived.counts, counts):
                raise ValueError(
                    "connectivity does not describe the field after removal "
                    "(derived counts disagree with subtracted counts)"
                )
            return derived
        pos = as_point_array(position)[0]
        sums = self.coord_sums.copy()
        sums[col] -= pos[None, :]
        sums[col & (counts == 0)] = 0.0
        return CentroidState(sums, counts)

    def estimates(
        self,
        policy: UnlocalizedPolicy,
        *,
        points: np.ndarray,
        beacon_positions: np.ndarray,
        terrain_side: float,
    ) -> np.ndarray:
        """Position estimates ``(P, 2)`` from the current sums."""
        unheard = self.counts == 0
        safe = np.maximum(self.counts, 1).astype(float)
        est = self.coord_sums / safe[:, None]
        return apply_unlocalized_policy(
            est,
            unheard,
            policy,
            points=points,
            beacon_positions=beacon_positions,
            terrain_side=terrain_side,
        )


class CentroidLocalizer(Localizer):
    """The paper's localizer: centroid of connected beacons.

    Args:
        terrain_side: side of the terrain square (for the fallback policy).
        policy: what to do when no beacon is heard (see
            :class:`~repro.localization.UnlocalizedPolicy`).
    """

    def __init__(
        self,
        terrain_side: float,
        policy: UnlocalizedPolicy = UnlocalizedPolicy.TERRAIN_CENTER,
    ):
        if terrain_side <= 0:
            raise ValueError(f"terrain_side must be positive, got {terrain_side}")
        self.terrain_side = float(terrain_side)
        self.policy = policy

    def __repr__(self) -> str:
        return f"CentroidLocalizer(terrain_side={self.terrain_side}, policy={self.policy.value})"

    def estimate(
        self,
        connectivity: np.ndarray,
        beacon_positions: np.ndarray,
        points: np.ndarray,
    ) -> np.ndarray:
        pos = as_point_array(beacon_positions)
        state = CentroidState.from_connectivity(connectivity, pos)
        return state.estimates(
            self.policy,
            points=as_point_array(points),
            beacon_positions=pos,
            terrain_side=self.terrain_side,
        )
