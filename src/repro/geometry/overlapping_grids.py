"""Overlapping-grid decomposition used by the Grid placement algorithm.

Section 3.2.3, step 3 of the paper divides the terrain into ``N_G`` partially
overlapping square grids:

* each grid has side ``gridSide = 2R`` so that it *"encloses the radio
  reachability region of its center"*;
* for ``1 ≤ i, j ≤ √N_G`` the grid ``G(i, j)`` is centered at::

      Xc(i, j) = gridSide/2 + (i - 1) · (Side - gridSide) / (√N_G - 1)
      Yc(i, j) = gridSide/2 + (j - 1) · (Side - gridSide) / (√N_G - 1)

  i.e. the centers form a √N_G × √N_G lattice whose extreme grids are flush
  with the terrain borders.

:class:`OverlappingGridLayout` computes the centers and — the hot path — the
point-membership masks against a :class:`~repro.geometry.MeasurementGrid`.
The masks depend only on (layout, measurement grid), not on the beacon field,
so they are computed once and reused across the thousands of fields in a
sweep; the cumulative error per grid then reduces to an ``(N_G × P_T)``
mat-vec with the boolean masks, cast to float64 a few rows at a time rather
than all at once (32.6 MB at the paper's N_G = 400, P_T = 10,201).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .measurement_grid import MeasurementGrid
from .points import Point

__all__ = ["OverlappingGridLayout"]

#: Mask rows cast to float64 per product in :meth:`cumulative_values`.  The
#: blocked products equal the one-shot ``masks @ vals`` to the bit because
#: OpenBLAS's gemv sums four rows at a time, each row's dot product on its
#: own, so a block of a multiple of four rows adds the same terms in the
#: same order.  A one-row product would differ: NumPy hands it to ``dot``,
#: whose order is not gemv's one-row remainder, so a lone last row (N_G is a
#: perfect square, so N_G mod 8 is 0, 1 or 4) joins the block before it.
_MASK_ROWS = 8


@dataclass(frozen=True)
class OverlappingGridLayout:
    """The ``N_G`` overlapping grids of the Grid algorithm.

    Args:
        side: terrain side (``Side``).
        grid_side: side of each grid (``gridSide``, 2R in the paper).
        num_grids: ``N_G``; must be a perfect square ≥ 4 (the paper uses 400).
    """

    side: float
    grid_side: float
    num_grids: int
    _cache: dict = field(default_factory=dict, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        if self.side <= 0:
            raise ValueError(f"side must be positive, got {self.side}")
        if not 0 < self.grid_side <= self.side:
            raise ValueError(
                f"grid_side must be in (0, side]; got {self.grid_side} for side {self.side}"
            )
        root = isqrt(self.num_grids)
        if root * root != self.num_grids or root < 2:
            raise ValueError(
                f"num_grids must be a perfect square >= 4, got {self.num_grids}"
            )

    @classmethod
    def for_radio_range(
        cls, side: float, radio_range: float, num_grids: int
    ) -> "OverlappingGridLayout":
        """The paper's parameterization: ``gridSide = 2R``."""
        return cls(side=side, grid_side=2.0 * radio_range, num_grids=num_grids)

    @property
    def grids_per_axis(self) -> int:
        """``√N_G`` — grid centers per axis."""
        return isqrt(self.num_grids)

    @property
    def center_spacing(self) -> float:
        """Distance between adjacent grid centers along one axis."""
        return (self.side - self.grid_side) / (self.grids_per_axis - 1)

    def center_axis(self) -> np.ndarray:
        """Per-axis center coordinates, from ``gridSide/2`` to ``Side - gridSide/2``."""
        offsets = np.arange(self.grids_per_axis, dtype=float) * self.center_spacing
        return self.grid_side / 2.0 + offsets

    def centers(self) -> np.ndarray:
        """All grid centers as an ``(N_G, 2)`` array, row-major in (i, j).

        Row ``k`` corresponds to the paper's grid ``G(i, j)`` with
        ``i = k // √N_G + 1`` and ``j = k % √N_G + 1``.
        """
        cached = self._cache.get("centers")
        if cached is not None:
            return cached
        axis = self.center_axis()
        xs, ys = np.meshgrid(axis, axis, indexing="ij")
        out = np.column_stack([xs.ravel(), ys.ravel()])
        out.setflags(write=False)
        self._cache["centers"] = out
        return out

    def center(self, i: int, j: int) -> Point:
        """The center ``Gc(i, j)`` using the paper's 1-based indexing."""
        n = self.grids_per_axis
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"grid indices must be in [1, {n}], got ({i}, {j})")
        axis = self.center_axis()
        return Point(float(axis[i - 1]), float(axis[j - 1]))

    def membership_masks(self, grid: MeasurementGrid) -> np.ndarray:
        """Point-in-grid masks against a measurement lattice.

        Args:
            grid: the measurement lattice (must share this layout's ``side``).

        Returns:
            ``(N_G, P_T)`` boolean array; ``out[g, p]`` is True when lattice
            point ``p`` lies inside (closed) grid ``g``.  Cached per lattice.
        """
        if abs(grid.side - self.side) > 1e-9:
            raise ValueError(
                f"measurement grid side {grid.side} != layout side {self.side}"
            )
        key = ("masks", grid.side, grid.step)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        pts = grid.points()
        axis = self.center_axis()
        half = self.grid_side / 2.0 + 1e-9
        # Per-axis membership first: (n_axis_centers, n_axis_points) each,
        # then combine via outer products per grid row/column — O(N_G · P_T)
        # bools but built from two small comparisons.
        px = pts[:, 0]
        py = pts[:, 1]
        in_x = np.abs(px[None, :] - axis[:, None]) <= half  # (√N_G, P_T)
        in_y = np.abs(py[None, :] - axis[:, None]) <= half  # (√N_G, P_T)
        n = self.grids_per_axis
        masks = (in_x[:, None, :] & in_y[None, :, :]).reshape(n * n, -1)
        masks.setflags(write=False)
        self._cache[key] = masks
        return masks

    def points_per_grid(self, grid: MeasurementGrid) -> np.ndarray:
        """``P_G`` for each grid: lattice points falling inside it.

        The paper quotes the interior value ``P_G = P_T · (2R)² / Side²``;
        grids flush with the border hold the same count on this lattice since
        centers are pulled inward by ``gridSide/2``.
        """
        return self.membership_masks(grid).sum(axis=1)

    def cumulative_values(self, grid: MeasurementGrid, values: np.ndarray) -> np.ndarray:
        """Sum of ``values`` over the lattice points inside each grid.

        This is step 4 of the Grid algorithm with ``values`` = per-point
        localization error: ``S(i, j)`` for every grid as an ``(N_G,)`` array.

        The masks are cast to float64 ``_MASK_ROWS`` rows at a time into one
        buffer per call, and each block runs its own mat-vec; the sums equal
        the one-shot ``masks @ values`` to the bit (see ``_MASK_ROWS``).
        """
        vals = np.asarray(values, dtype=float)
        if vals.shape != (grid.num_points,):
            raise ValueError(
                f"values must have shape ({grid.num_points},), got {vals.shape}"
            )
        masks = self.membership_masks(grid)
        num_grids = masks.shape[0]
        # Block bounds every _MASK_ROWS rows; a lone last row joins the block
        # before it (see _MASK_ROWS).
        bounds = list(range(0, num_grids, _MASK_ROWS)) + [num_grids]
        if num_grids % _MASK_ROWS == 1:  # N_G ≥ 4, so here N_G ≥ 9
            del bounds[-2]
        out = np.empty(num_grids)
        block = np.empty((min(num_grids, _MASK_ROWS + 1), masks.shape[1]))
        for start, stop in zip(bounds[:-1], bounds[1:]):
            rows = block[: stop - start]
            rows[...] = masks[start:stop]
            np.matmul(rows, vals, out=out[start:stop])
        return out
