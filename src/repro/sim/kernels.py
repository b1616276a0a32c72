"""Batched evaluation of sweep cells: many worlds through one array pass.

The scalar hot path costs each cell a fresh ``(P × N)`` connectivity +
centroid localization pass — dozens of small NumPy calls whose fixed
overhead dominates the arithmetic at sweep geometry.  This module evaluates
a *chunk* of cells at once:

1. build every cell's :class:`~repro.sim.TrialWorld` the normal way (cheap —
   field generation and a realization seed; no heavy arrays yet),
2. group the worlds by (lattice, model family, beacon count, localizer),
3. run one ``(T × P × N)`` pass per group through the windowed
   connectivity kernel (:mod:`repro.radio.kernels`) and the centroid
   estimate/error arithmetic, blocked over trials to bound memory,
4. **pre-warm** each world's caches with its slice of the batch, so the
   ordinary per-cell code (``error_surface()``, ``run_placement_trial``)
   finds everything computed and never touches the scalar hot path.

Bit-identity is the design invariant, not an aspiration: elementwise ops are
IEEE-deterministic per element regardless of batch shape, and every
order-sensitive reduction (the centroid mat-vec, means/medians, the
unlocalized-policy nearest-beacon search) runs per-trial through the *same
calls* the scalar path makes.  ``tests/test_sim_kernels.py`` asserts
equality down to the bit across localizer policies, empty fields, fault
masks and NaN-degraded cells.

Worlds the kernels cannot express (non-centroid localizers, exotic
propagation models) are silently left cold — downstream code computes them
through the unchanged scalar path, so batching is never a correctness
decision.  That scalar path is also the tests' reference: with no batch
planner registered, cells run it world by world.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..field import Beacon
from ..geometry import Point
from ..localization import (
    CentroidLocalizer,
    CentroidState,
    UnlocalizedPolicy,
    apply_unlocalized_policy,
)
from ..obs import get_metrics, get_tracer
from ..radio.kernels import batch_params_from_realization, windowed_connectivity

if TYPE_CHECKING:
    from .trial import TrialWorld

__all__ = [
    "warm_worlds",
    "batch_surface_stats",
    "candidate_columns",
    "DEFAULT_BLOCK_ELEMENTS",
]

#: Trials per batched pass are sized so one (T, P, N) float64 temporary
#: stays near this many elements (~32 MB) — paper fidelity (P=10201, N=240)
#: still batches a couple of trials per pass; bench geometry batches
#: thousands.
DEFAULT_BLOCK_ELEMENTS = 4_000_000


def candidate_columns(realization, grid, beacon_id, positions) -> np.ndarray:
    """``(P, K)`` connectivity columns of ``K`` candidate beacons, one pass.

    Every candidate probes under the SAME id ``beacon_id`` — the id the
    next added beacon would actually receive — so column ``k`` is
    byte-identical to ``realization.connectivity(grid, [Beacon(beacon_id,
    p_k)])[:, 0]``.  Duplicate ids are legal in a probe sequence: only the
    ``(seed, id)`` hash enters the per-link noise, never id uniqueness.

    Batchable realizations run one windowed kernel pass over the lattice
    of ``grid``, as ``K`` one-beacon worlds of the same seed (the same id,
    reach and per-pair arithmetic, so the same bits), and return the
    transpose of that C-contiguous ``(K, P)`` stack: each candidate's
    column is contiguous, which is how the scan reads it.  Other model
    families take the scalar call, which produces the identical bytes.
    This is the survey-scan primitive behind
    :meth:`repro.sim.TrialWorld.scan_add_candidates`.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ValueError(f"expected (K, 2) candidate positions, got {pos.shape}")
    params = batch_params_from_realization(realization)
    if params is None:
        probes = [
            Beacon(int(beacon_id), Point(float(x), float(y))) for x, y in pos
        ]
        return realization.connectivity(grid, probes)
    seeds = np.full(pos.shape[0], realization.seed, dtype=np.uint64)
    ids = np.full((pos.shape[0], 1), int(beacon_id), dtype=np.uint64)
    return windowed_connectivity(params, seeds, ids, pos[:, None, :], grid)[:, :, 0].T


def _world_group_key(world: TrialWorld, params) -> tuple:
    """Worlds sharing this key may be evaluated in one stacked pass."""
    localizer = world.localizer
    return (
        world.grid,
        params.key(),
        len(world.field),
        localizer.policy,
        localizer.terrain_side,
    )


def _eligible(world: TrialWorld):
    """The world's batch parameters, or None if it must stay scalar."""
    if type(world.localizer) is not CentroidLocalizer:
        return None
    if world._conn is not None or world._state is not None or world._errors is not None:
        return None  # already (partially) evaluated; don't disturb caches
    return batch_params_from_realization(world.realization)


def warm_worlds(
    worlds: "list[TrialWorld]", *, block_elements: int = DEFAULT_BLOCK_ELEMENTS
) -> int:
    """Pre-compute connectivity, centroid state and errors for many worlds.

    Groups eligible worlds, runs the batched kernels, and fills each world's
    private caches with its slice — afterwards ``world.errors()`` /
    ``world.survey()`` / ``run_placement_trial`` are cache hits.  Ineligible
    worlds are left untouched (the scalar path evaluates them lazily).

    Args:
        worlds: the worlds of one dispatch chunk, in any order.
        block_elements: memory bound — trials are blocked so one
            ``(T, P, N)`` float64 temporary holds at most this many elements.

    Returns:
        The number of worlds that were warmed.
    """
    metrics = get_metrics()
    groups: dict = {}
    for world in worlds:
        params = _eligible(world)
        if params is None:
            metrics.counter("kernel.scalar.worlds").inc()
            continue
        groups.setdefault(_world_group_key(world, params), (params, []))[1].append(world)
    warmed = 0
    with get_tracer().span("kernel.batch"):
        for (_, _, n_beacons, policy, terrain_side), (params, members) in groups.items():
            pts = members[0].points()
            per_trial = max(1, pts.shape[0] * max(n_beacons, 1))
            t_block = max(1, block_elements // per_trial)
            for start in range(0, len(members), t_block):
                block = members[start : start + t_block]
                _warm_block(block, params, pts, policy, terrain_side)
                warmed += len(block)
            metrics.counter("kernel.batch.groups").inc()
    if warmed:
        metrics.counter("kernel.batch.worlds").inc(warmed)
    return warmed


def _warm_block(worlds, params, pts, policy, terrain_side) -> None:
    """One stacked pass: connectivity → centroid state → estimates → errors."""
    seeds = np.asarray([np.uint64(w.realization.seed) for w in worlds], dtype=np.uint64)
    ids = np.asarray(
        [np.asarray(w.field.beacon_ids, dtype=np.uint64) for w in worlds],
        dtype=np.uint64,
    ).reshape(len(worlds), -1)
    positions = np.asarray([w.field.positions() for w in worlds], dtype=float).reshape(
        len(worlds), -1, 2
    )
    conn3 = windowed_connectivity(
        params, seeds, ids, positions, worlds[0].grid
    )  # (T, P, N)
    counts3 = conn3.sum(axis=2)  # exact integers; per-row order-independent
    # The stacked mat-mul runs the same (P, N) @ (N, 2) product per trial
    # slice that ``CentroidState.from_connectivity`` would (same operand
    # values, dtypes and layout per slice ⇒ same bits — enforced by the
    # kernel identity tests); counts are exact integers from the batched sum.
    sums3 = conn3.astype(float) @ positions  # (T, P, 2)
    states = [
        CentroidState(coord_sums=sums3[i], counts=counts3[i])
        for i in range(len(worlds))
    ]
    # Estimates are elementwise: coord_sums / max(counts, 1).
    safe3 = np.maximum(counts3, 1).astype(float)
    est3 = sums3 / safe3[:, :, None]
    unheard3 = counts3 == 0
    if policy is UnlocalizedPolicy.TERRAIN_CENTER:
        est3[unheard3] = terrain_side / 2.0
    elif policy is UnlocalizedPolicy.EXCLUDE:
        est3[unheard3] = np.nan
    elif policy is UnlocalizedPolicy.ZERO_ERROR:
        est3[unheard3] = np.broadcast_to(pts[None], est3.shape)[unheard3]
    else:
        # NEAREST_BEACON (and any future policy): order-sensitive per-trial
        # search — delegate to the scalar implementation slice by slice.
        for i, world in enumerate(worlds):
            est3[i] = apply_unlocalized_policy(
                est3[i],
                unheard3[i],
                policy,
                points=pts,
                beacon_positions=world.field.positions(),
                terrain_side=terrain_side,
            )
    # LE = sqrt(dx² + dy²): a two-term, order-fixed reduction (matches
    # localization_errors elementwise).
    diff3 = est3 - pts[None, :, :]
    errors3 = np.sqrt(np.einsum("tpk,tpk->tp", diff3, diff3))
    for i, world in enumerate(worlds):
        world.prewarm(
            conn=conn3[i], state=states[i], errors=np.ascontiguousarray(errors3[i])
        )


def batch_surface_stats(
    worlds: "list[TrialWorld]", *, medians: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Per-world ``(mean LE, median LE)`` in one stacked reduction.

    Bit-identical to calling ``world.error_surface().mean_error()`` /
    ``.median_error()`` per world: NumPy's nan-reductions over the rows of a
    contiguous stack use the same pairwise summation as the per-row calls
    (enforced by ``tests/test_sim_kernels.py``), and all-NaN rows yield NaN
    exactly like :class:`~repro.localization.ErrorSurface`'s guard.

    Args:
        worlds: worlds whose error caches are (or will lazily be) available.
        medians: skip the median reduction when only means are needed.

    Returns:
        ``(means, medians)`` float arrays aligned with ``worlds`` (medians
        all-NaN when not requested).
    """
    means = np.full(len(worlds), np.nan)
    meds = np.full(len(worlds), np.nan)
    by_size: dict = {}
    for i, world in enumerate(worlds):
        errors = world.errors()
        idxs, rows = by_size.setdefault(errors.shape[0], ([], []))
        idxs.append(i)
        rows.append(errors)
    for idxs, rows in by_size.values():
        stacked = np.stack(rows)
        measured = ~np.isnan(stacked).all(axis=1)
        if not measured.any():
            continue
        where = np.asarray(idxs)[measured]
        sub = stacked[measured]
        means[where] = np.nanmean(sub, axis=1)
        if medians:
            meds[where] = np.nanmedian(sub, axis=1)
    return means, meds
