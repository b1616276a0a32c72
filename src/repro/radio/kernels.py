"""Windowed connectivity kernel: only the lattice points a beacon can reach.

§4.2.1 connects a point to a beacon B only within ``R(1 + u·nf(B))``, less
the CM_thresh pull, so B's links all lie within its *reach*, the range at
``u = 1``.  On a :class:`~repro.geometry.MeasurementGrid` that disc fits in
a small block of lattice indices around B (at most 37 × 37 of the paper's
101 × 101 lattice), and every pair outside the block is disconnected.
:func:`windowed_connectivity` hashes, ranges and compares only the in-block
pairs, for a stack of ``T`` worlds at once, and scatters them into the
``(T, P, N)`` bool array the dense path returns.

Each in-block pair runs the dense path's operations elementwise and in the
same order — coordinate difference, two-term ``einsum`` distance, the
SplitMix hash of ``(seed, id, tag, qx, qy)`` (the ``(seed, id, tag)``
prefix folded once per beacon, see
:func:`~repro.radio.hashrand.splitmix_fold`) and ``effective_ranges``'
formula — so slice ``out[t]`` equals ``realization.connectivity(
grid.points(), field_t)`` to the byte (``tests/test_radio_kernels.py``).

The window holds the lattice indices within ``⌈reach / step⌉ + 1`` of the
beacon's nearest lattice index.  The range formula is monotone in ``u`` and
rounding keeps it so, hence the reach bounds every range the beacon draws;
a lattice point outside the window lies at least ``reach + 1.5·step`` away
along one axis, far beyond any rounding of its distance (DESIGN.md §10).
"""

from __future__ import annotations

import math

import numpy as np

from .beacon_noise import _NF_TAG, _U_TAG, BeaconNoiseRealization
from .hashrand import (
    hash_uniform,
    mix64,
    quantize,
    splitmix_fold,
    symmetric_from_bits,
)

__all__ = [
    "BatchNoiseParams",
    "batch_params_from_realization",
    "windowed_connectivity",
]


class BatchNoiseParams:
    """Realization-family parameters shared by a stack of trials.

    One :class:`~repro.radio.BeaconNoiseRealization` per trial differs only
    in its seed; everything else (range, noise amplitude, CM_thresh reading,
    u granularity) comes from the propagation *model* and is constant across
    a sweep.  Instances are plain value objects — cheap to build per batch.
    """

    __slots__ = ("radio_range", "noise", "cm_thresh", "u_granularity")

    def __init__(
        self,
        radio_range: float,
        noise: float,
        cm_thresh: float | None,
        u_granularity: str,
    ):
        self.radio_range = float(radio_range)
        self.noise = float(noise)
        self.cm_thresh = cm_thresh
        self.u_granularity = u_granularity

    def key(self) -> tuple:
        """Hashable grouping key (trials sharing it may stack)."""
        return (self.radio_range, self.noise, self.cm_thresh, self.u_granularity)


def batch_params_from_realization(
    realization,
) -> BatchNoiseParams | None:
    """Extract batchable parameters, or ``None`` if the realization's
    connectivity cannot be expressed by these kernels (other model families
    fall back to the scalar path)."""
    if type(realization) is not BeaconNoiseRealization:
        return None
    return BatchNoiseParams(
        realization._radio_range,
        realization._noise,
        realization._cm_thresh,
        realization._u_granularity,
    )


def _ranges(params: BatchNoiseParams, u, nf, pull):
    """``effective_ranges``' formula ``R·(1 + u·nf) − pull``, in its
    operation order, in one fresh array (sums and products commute
    exactly, so the in-place steps change no bit)."""
    ranges = u * nf
    ranges += 1.0
    ranges *= params.radio_range
    if pull is not None:
        ranges -= pull
    return ranges


def _window_starts(coords, step: float, half: int, last: int) -> np.ndarray:
    """First lattice index of each beacon's window along one axis."""
    nearest = np.rint(coords / step)
    return np.clip(nearest - half, 0, last).astype(np.intp)


def windowed_connectivity(
    params: BatchNoiseParams,
    seeds: np.ndarray,
    ids: np.ndarray,
    positions: np.ndarray,
    grid,
) -> np.ndarray:
    """Boolean lattice connectivity for ``T`` realizations, ``(T, P, N)``.

    Args:
        params: shared model parameters (see :class:`BatchNoiseParams`).
        seeds: ``(T,)`` realization seeds.
        ids: ``(T, N)`` beacon ids (duplicates allowed: only ``(seed, id)``
            enters the noise).
        positions: ``(T, N, 2)`` beacon coordinates, on or off the terrain.
        grid: the :class:`~repro.geometry.MeasurementGrid` whose ``P``
            lattice points are queried.

    Returns:
        C-contiguous ``(T, P, N)`` bool; slice ``[t]`` is bit-identical to
        the dense ``realization.connectivity(grid.points(), field_t)``.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    ids = np.asarray(ids, dtype=np.uint64)
    pos = np.asarray(positions, dtype=float)
    if (
        seeds.ndim != 1
        or ids.ndim != 2
        or ids.shape[0] != seeds.shape[0]
        or pos.shape != ids.shape + (2,)
    ):
        raise ValueError(
            f"expected seeds (T,), ids (T, N) and positions (T, N, 2), got "
            f"{seeds.shape} / {ids.shape} / {pos.shape}"
        )
    n_worlds, n_beacons = ids.shape
    n_axis = grid.points_per_axis
    out = np.zeros((n_worlds, n_axis * n_axis, n_beacons), dtype=bool)
    if out.size == 0:
        return out
    # Beacons flattened world-major: beacon b is world b // N, column b % N.
    x = pos[:, :, 0].reshape(-1)
    y = pos[:, :, 1].reshape(-1)
    count = x.shape[0]

    if params.noise == 0.0:
        # Ideal-disk degenerate case: nf ≡ +0.0, so u·nf is a signed zero,
        # 1 + 0 is exactly 1.0 and the CM pull is exactly 0.0 — every range
        # is R.  Skip the hashing.
        nf = pull = None
        reach = params.radio_range
    else:
        nf = params.noise * hash_uniform(seeds[:, None], ids, _NF_TAG).reshape(-1, 1)
        pull = None
        if params.cm_thresh is not None:
            pull = (2.0 * params.cm_thresh - 1.0) * nf * params.radio_range
        reach = float(_ranges(params, 1.0, nf, pull).max())

    step = grid.step
    half = math.ceil(reach / step) + 1
    width = min(2 * half + 1, n_axis)
    start_x = _window_starts(x, step, half, n_axis - width)
    start_y = _window_starts(y, step, half, n_axis - width)
    offsets = np.arange(width)
    ix = start_x[:, None] + offsets  # (B, W) lattice x indices
    iy = start_y[:, None] + offsets  # (B, W) lattice y indices

    # The dense path's point − beacon difference and two-term distance, on
    # each beacon's W × W block of lattice points.
    axis = grid.axis_coordinates()
    diff = np.empty((count, width, width, 2))
    diff[:, :, :, 0] = (axis[ix] - x[:, None])[:, :, None]
    diff[:, :, :, 1] = (axis[iy] - y[:, None])[:, None, :]
    diff = diff.reshape(count, width * width, 2)
    dist = np.einsum("bqk,bqk->bq", diff, diff)
    del diff
    np.sqrt(dist, out=dist)

    if nf is None:
        ranges = params.radio_range
    else:
        prefix = mix64(np.repeat(seeds, n_beacons), ids.reshape(-1), _U_TAG)
        if params.u_granularity == "beacon":
            u = symmetric_from_bits(prefix)[:, None]
        else:
            q = quantize(axis)
            u = symmetric_from_bits(
                splitmix_fold(
                    splitmix_fold(prefix[:, None], q[ix])[:, :, None],
                    q[iy][:, None, :],
                )
            ).reshape(count, -1)
        ranges = _ranges(params, u, nf, pull)
        del u
    hit = dist <= ranges
    del dist, ranges  # before the scatter allocates its (B, W²) index array

    # Scatter: beacon b's block starts at one flat offset of ``out``, and
    # the block's cells sit at the same relative offsets for every beacon.
    beacon = np.arange(count)
    base = (beacon // n_beacons) * (out.shape[1] * n_beacons) + beacon % n_beacons
    base += (start_x * n_axis + start_y) * n_beacons
    cells = (offsets[:, None] * n_axis + offsets).reshape(-1) * n_beacons
    out.reshape(-1)[np.add.outer(base, cells)] = hit
    return out
