"""Windowed connectivity kernel: only the lattice points a beacon can reach.

§4.2.1 connects a point to a beacon B only within ``R(1 + u·nf(B))``, less
the CM_thresh pull, so B's links all lie within its *reach*, the range at
``u = 1``.  On a :class:`~repro.geometry.MeasurementGrid` that disc fits in
a small block of lattice indices around B (at most 37 × 37 of the paper's
101 × 101 lattice), and every pair outside the block is disconnected.
:func:`windowed_connectivity` decides only the in-block pairs, for a stack
of ``T`` worlds at once, and scatters them into the ``(T, P, N)`` bool
array the dense path returns.

Each in-block pair gets the dense path's values: the distance is the dense
two-term ``einsum``'s ``dx·dx + dy·dy``, computed separably (``dx`` per
block row, ``dy`` per column), and a pair whose ``u`` can decide its link
runs the SplitMix hash of ``(seed, id, tag, qx, qy)`` (the ``(seed, id,
tag)`` prefix folded once per beacon and ``qx`` once per block row, see
:func:`~repro.radio.hashrand.splitmix_fold`) and ``effective_ranges``'
formula in their order — so slice ``out[t]`` equals
``realization.connectivity(grid.points(), field_t)`` to the byte
(``tests/test_radio_kernels.py``).

The range formula is monotone in ``u`` and rounding keeps it so, and ``u``
lies in ``[−1, 1]``.  Hence the reach bounds every range a beacon draws: the
window holds the lattice indices within ``⌈reach / step⌉ + 1`` of the
beacon's nearest lattice index, and a point outside it lies at least
``reach + 1.5·step`` away along one axis, far beyond any rounding of its
distance.  And with per-pair ``u`` only the ring between the ``u = −1``
and ``u = +1`` ranges is hashed: nearer pairs link and farther ones do
not, whatever their hash (DESIGN.md §10).
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


def _ring_links(params, prefix, nf, pull, dist, q, ix, iy) -> np.ndarray:
    """Per-pair-``u`` links of each beacon's ``(W, W)`` block, ``(B, W, W)``.

    ``u`` lies in ``[−1, 1]`` after rounding and the range formula is
    monotone in ``u``, so a pair within the ``u = −1`` range links and a
    pair beyond the ``u = +1`` range does not, whatever its hash.  Only the
    ring between the two runs the second hash fold, ``u`` and the range,
    each pair with its beacon's ``nf`` and pull gathered — the dense path's
    operations in its order, pair by pair.
    """
    hit = dist <= _ranges(params, -1.0, nf, pull)
    ring = np.flatnonzero((dist <= _ranges(params, 1.0, nf, pull)) ^ hit)
    # A pair's flat index is (b·W + row)·W + col; flat gathers from the
    # (B, W) arrays take b·W + row and b·W + col.  Each index array goes
    # as soon as its gather is done: at Noise 0.5 and CM_thresh 0.9 the ring
    # holds ~45 % of the block's pairs, so these arrays set the peak memory.
    width = ix.shape[1]
    beacon_row = ring // width
    beacon = beacon_row // width
    keys = q[iy].reshape(-1)[ring - (beacon_row - beacon) * width]
    # The (seed, id, tag, qx) fold, once per beacon and block row.
    states = splitmix_fold(prefix[:, None], q[ix]).reshape(-1)[beacon_row]
    del beacon_row
    u = symmetric_from_bits(splitmix_fold(states, keys))
    del states, keys
    nf = nf.reshape(-1)[beacon]
    if pull is not None:
        pull = pull.reshape(-1)[beacon]
    del beacon
    ranges = _ranges(params, u, nf, pull)
    del u, nf, pull
    hit.reshape(-1)[ring] = dist.reshape(-1)[ring] <= ranges
    return hit


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
        Noise 0 compares each block against R and ``u_granularity="beacon"``
        against one range per beacon; per-pair ``u`` hashes only the ring
        (:func:`_ring_links`).
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
        nf = params.noise * hash_uniform(seeds[:, None], ids, _NF_TAG)
        nf = nf.reshape(-1, 1, 1)  # per flattened beacon, against its block
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

    # The dense path's two-term distance on each beacon's W × W block,
    # separably: dx depends only on the block row and dy only on the
    # column.  NumPy's two-term einsum is the plain dx·dx + dy·dy (no fused
    # multiply-add), so squaring each axis first changes no bit; the
    # dense-vs-windowed byte comparisons of tests/test_radio_kernels.py
    # hold this.
    axis = grid.axis_coordinates()
    dx = axis[ix] - x[:, None]
    dy = axis[iy] - y[:, None]
    dx *= dx
    dy *= dy
    dist = dx[:, :, None] + dy[:, None, :]  # (B, W, W)
    np.sqrt(dist, out=dist)

    if nf is None:
        hit = dist <= params.radio_range
    else:
        prefix = mix64(np.repeat(seeds, n_beacons), ids.reshape(-1), _U_TAG)
        if params.u_granularity == "beacon":
            u = symmetric_from_bits(prefix)[:, None, None]
            hit = dist <= _ranges(params, u, nf, pull)
        else:
            hit = _ring_links(params, prefix, nf, pull, dist, quantize(axis), ix, iy)
    del dist  # before the scatter allocates its (B, W²) index array

    # Scatter: beacon b's block starts at one flat offset of ``out``, and
    # the block's cells sit at the same relative offsets for every beacon.
    beacon = np.arange(count)
    base = (beacon // n_beacons) * (out.shape[1] * n_beacons) + beacon % n_beacons
    base += (start_x * n_axis + start_y) * n_beacons
    cells = (offsets[:, None] * n_axis + offsets).reshape(-1) * n_beacons
    out.reshape(-1)[np.add.outer(base, cells)] = hit.reshape(count, -1)
    return out
