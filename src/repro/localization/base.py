"""Localizer interface and the unlocalizable-point policy.

A *localizer* turns a connectivity matrix (what each client hears) and the
known beacon positions into position estimates.  The paper's localizer is
the connectivity centroid (§2.2); this package also provides the locus,
weighted-centroid and multilateration estimators discussed in §2.2/§6 as
comparison baselines.

**Unlocalizable points.**  The paper never specifies the estimate for a
client that hears *zero* beacons, yet at its lowest density (20 beacons on
100 m²·10²) roughly a quarter of the terrain is uncovered.  The choice
materially shifts the low-density end of Figure 4, so it is an explicit,
documented policy here (see DESIGN.md):

* ``TERRAIN_CENTER`` (default) — the client falls back to the terrain
  centroid, the only prior it has.  This anchors mean error near the
  paper's ≈20 m at density 0.002 and is what all paper-figure benches use.
* ``NEAREST_BEACON`` — score the point as if it had estimated the nearest
  beacon's position (an oracle-ish lower bound on what any fallback could
  do).
* ``EXCLUDE`` — drop the point from statistics (estimates are NaN and all
  summaries use NaN-aware reductions).
* ``ZERO_ERROR`` — count the point as perfectly localized (the most
  charitable convention; useful to bound how much the policy matters).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from enum import Enum

import numpy as np

from ..geometry import as_point_array

__all__ = ["UnlocalizedPolicy", "Localizer", "apply_unlocalized_policy"]


class UnlocalizedPolicy(Enum):
    """What to do with clients that hear no beacon (see module docstring)."""

    TERRAIN_CENTER = "terrain_center"
    NEAREST_BEACON = "nearest_beacon"
    EXCLUDE = "exclude"
    ZERO_ERROR = "zero_error"

    @property
    def pointwise(self) -> bool:
        """Whether an unheard point's estimate depends on that point alone.

        True for ``TERRAIN_CENTER``, ``EXCLUDE`` and ``ZERO_ERROR``.  Under
        these an added beacon changes a centroid estimate only at the points
        that hear it.  ``NEAREST_BEACON`` is not pointwise: a new beacon can
        become the nearest one of unheard points anywhere on the terrain.
        """
        return self in (
            UnlocalizedPolicy.TERRAIN_CENTER,
            UnlocalizedPolicy.EXCLUDE,
            UnlocalizedPolicy.ZERO_ERROR,
        )


def apply_unlocalized_policy(
    estimates: np.ndarray,
    unheard: np.ndarray,
    policy: UnlocalizedPolicy,
    *,
    points: np.ndarray,
    beacon_positions: np.ndarray,
    terrain_side: float,
) -> np.ndarray:
    """Fill estimate rows for unheard points according to ``policy``.

    Args:
        estimates: ``(P, 2)`` estimates; rows flagged in ``unheard`` are
            overwritten (their prior content is ignored).
        unheard: ``(P,)`` boolean; True where the client hears no beacon.
        policy: the fallback convention.
        points: ``(P, 2)`` true client positions (needed by
            ``NEAREST_BEACON`` and ``ZERO_ERROR``).
        beacon_positions: ``(N, 2)`` beacon coordinates.
        terrain_side: side of the terrain square.

    Returns:
        A new ``(P, 2)`` array (the input is not modified).
    """
    est = np.array(estimates, dtype=float, copy=True)
    if not unheard.any():
        return est
    pts = as_point_array(points)
    if policy is UnlocalizedPolicy.TERRAIN_CENTER:
        est[unheard] = terrain_side / 2.0
    elif policy is UnlocalizedPolicy.NEAREST_BEACON:
        if beacon_positions.shape[0] == 0:
            est[unheard] = terrain_side / 2.0
        else:
            sub = pts[unheard]
            diff = sub[:, None, :] - beacon_positions[None, :, :]
            d2 = np.einsum("pnk,pnk->pn", diff, diff)
            est[unheard] = beacon_positions[np.argmin(d2, axis=1)]
    elif policy is UnlocalizedPolicy.EXCLUDE:
        est[unheard] = np.nan
    elif policy is UnlocalizedPolicy.ZERO_ERROR:
        est[unheard] = pts[unheard]
    else:  # pragma: no cover - exhaustive over enum
        raise ValueError(f"unknown policy {policy}")
    return est


class Localizer(ABC):
    """Estimate client positions from connectivity and beacon positions."""

    @abstractmethod
    def estimate(
        self,
        connectivity: np.ndarray,
        beacon_positions: np.ndarray,
        points: np.ndarray,
    ) -> np.ndarray:
        """Position estimates for each client point.

        Args:
            connectivity: ``(P, N)`` boolean matrix.
            beacon_positions: ``(N, 2)`` known beacon coordinates.
            points: ``(P, 2)`` true client positions (used only to resolve
                the unlocalized policy and by oracle baselines; honest
                estimators never read them for heard points).

        Returns:
            ``(P, 2)`` estimates; NaN rows iff the policy is ``EXCLUDE``.
        """
