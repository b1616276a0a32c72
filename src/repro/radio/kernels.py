"""Batched connectivity kernels: many realizations in one array pass.

The per-cell hot path of every sweep evaluates one ``(P × N)`` connectivity
matrix per trial — dozens of small NumPy calls whose fixed per-call overhead
dominates at bench geometry (169 lattice points × 8 beacons is ~1300
elements per call).  These kernels evaluate the same quantities for a whole
*stack* of trials at once: one ``(T × P × N)`` pass through the hash-keyed
noise of :mod:`repro.radio.hashrand` instead of ``T`` Python round-trips.

Bit-identity contract
---------------------
Every operation here is elementwise over the broadcast ``(T, P, N)`` shape —
hashing, range arithmetic, distance (a two-term ``x² + y²`` sum), and the
final comparison.  IEEE-754 elementwise operations are deterministic per
element regardless of the array shape they are computed in, so each trial's
slice ``out[t]`` is **bit-identical** to what
:meth:`repro.radio.BeaconNoiseRealization.connectivity` computes for that
trial alone.  Reductions whose summation *order* could differ between the
batched and scalar shapes (mat-vecs, means) are deliberately NOT performed
here — :mod:`repro.sim.kernels` runs those per-trial with the exact scalar
call.  This contract is enforced by ``tests/test_sim_kernels.py``.

All kernels are pure functions of their arguments; blocking over trials for
memory is the caller's concern.
"""

from __future__ import annotations

import numpy as np

from .beacon_noise import _NF_TAG, _U_TAG, BeaconNoiseRealization
from .hashrand import hash_symmetric, hash_uniform, quantize_coords

__all__ = [
    "BatchNoiseParams",
    "batch_params_from_realization",
    "batched_effective_ranges",
    "batched_connectivity",
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


def batched_effective_ranges(
    params: BatchNoiseParams,
    seeds: np.ndarray,
    ids: np.ndarray,
    points: np.ndarray,
) -> np.ndarray:
    """Effective ranges for ``T`` realizations at once, ``(T, P, N)``.

    Args:
        params: the shared model parameters.
        seeds: ``(T,)`` uint64 realization seeds.
        ids: ``(T, N)`` uint64 beacon ids (N equal across the stack).
        points: ``(P, 2)`` query locations, shared by every trial.

    Every element equals the scalar
    :meth:`~repro.radio.BeaconNoiseRealization.effective_ranges` value for
    its trial — all arithmetic is elementwise (see module docstring).
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    ids = np.asarray(ids, dtype=np.uint64)
    if seeds.ndim != 1 or ids.ndim != 2 or ids.shape[0] != seeds.shape[0]:
        raise ValueError(
            f"expected seeds (T,) and ids (T, N), got {seeds.shape} / {ids.shape}"
        )
    shape = (seeds.shape[0], np.asarray(points).shape[0], ids.shape[1])
    if params.noise == 0.0:
        # Ideal-disk degenerate case: nf ≡ +0.0, so u·nf is a signed zero,
        # 1 + 0 is exactly 1.0 and the CM correction is exactly 0.0 — the
        # scalar path yields R in every element.  Skip the hashing.
        return np.full(shape, params.radio_range)
    nf = params.noise * hash_uniform(seeds[:, None], ids, _NF_TAG)  # (T, N)
    if params.u_granularity == "beacon":
        u = hash_symmetric(seeds[:, None], ids, _U_TAG)[:, None, :]  # (T, 1, N)
    else:
        qx, qy = quantize_coords(points)
        u = hash_symmetric(
            seeds[:, None, None],
            ids[:, None, :],
            _U_TAG,
            qx[None, :, None],
            qy[None, :, None],
        )  # (T, P, N)
    ranges = params.radio_range * (1.0 + u * nf[:, None, :])
    if params.cm_thresh is not None:
        ranges = ranges - (
            (2.0 * params.cm_thresh - 1.0) * nf[:, None, :] * params.radio_range
        )
    return np.ascontiguousarray(np.broadcast_to(ranges, (seeds.shape[0],) + (
        np.asarray(points).shape[0], ids.shape[1])))


def batched_connectivity(
    params: BatchNoiseParams,
    seeds: np.ndarray,
    ids: np.ndarray,
    positions: np.ndarray,
    points: np.ndarray,
) -> np.ndarray:
    """Boolean connectivity for ``T`` realizations at once, ``(T, P, N)``.

    Args:
        params: shared model parameters (see :class:`BatchNoiseParams`).
        seeds: ``(T,)`` realization seeds.
        ids: ``(T, N)`` beacon ids.
        positions: ``(T, N, 2)`` beacon coordinates.
        points: ``(P, 2)`` query locations shared across trials.

    Returns:
        C-contiguous ``(T, P, N)`` bool; slice ``[t]`` is bit-identical to
        the scalar ``realization.connectivity(points, field_t)``.
    """
    pts = np.asarray(points, dtype=float)
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 3 or pos.shape[2] != 2:
        raise ValueError(f"expected (T, N, 2) positions, got {pos.shape}")
    if pos.shape[1] == 0:
        return np.zeros((pos.shape[0], pts.shape[0], 0), dtype=bool)
    # Same two-term distance the scalar path computes (pairwise_distances):
    # sqrt(dx² + dy²) — an order-fixed reduction, identical per element.
    diff = pts[None, :, None, :] - pos[:, None, :, :]  # (T, P, N, 2)
    dist = np.sqrt(np.einsum("tpnk,tpnk->tpn", diff, diff))
    # The (T, P, N, 2) temporary is twice the size of ``dist``; release it
    # before the range pass allocates its own (T, P, N) arrays.
    del diff
    if params.noise == 0.0:
        # Every effective range is exactly R (see batched_effective_ranges);
        # compare against the scalar instead of materializing (T, P, N).
        return np.ascontiguousarray(dist <= params.radio_range)
    ranges = batched_effective_ranges(params, seeds, ids, pts)
    return np.ascontiguousarray(dist <= ranges)
