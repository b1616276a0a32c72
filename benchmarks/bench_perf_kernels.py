"""Performance of the hot kernels (not a paper figure — engineering checks).

Every figure bench runs millions of candidate evaluations; these
micro-benchmarks time the four kernels that dominate and pin the complexity
claim DESIGN.md makes: evaluating a candidate beacon through the cached
centroid state is O(P) and therefore much cheaper than re-evaluating the
whole field.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.localization import localization_errors
from repro.sim import (
    ExperimentConfig,
    PoolExecutor,
    build_world,
    paper_config,
    run_cells,
)
from repro.sim.resilient import _mean_error_cell

RESULTS_DIR = Path(__file__).parent / "results"


def _world():
    # Full paper geometry: 10201 lattice points, 120 beacons, noise on.
    return build_world(paper_config(), 0.3, 120, 0)


def test_perf_connectivity_matrix(benchmark):
    world = _world()
    points = world.points()

    def run():
        return world.realization.connectivity(points, world.field)

    conn = benchmark(run)
    assert conn.shape == (10201, 120)


def test_perf_full_error_surface(benchmark):
    world = _world()
    world.connectivity()  # pre-warm the connectivity cache

    def run():
        # Force the full localization pass (state + estimates + errors).
        world._errors = None
        world._state = None
        return world.errors()

    errors = benchmark(run)
    assert errors.shape == (10201,)


def test_perf_candidate_evaluation(benchmark):
    world = _world()
    world.errors()  # warm all caches, as in the sweep inner loop

    def run():
        return world.evaluate_candidate((37.0, 53.0))

    gain_mean, gain_median = benchmark(run)
    assert np.isfinite(gain_mean) and np.isfinite(gain_median)


def test_perf_grid_cumulative_scores(benchmark):
    from repro.placement import GridPlacement

    world = _world()
    survey = world.survey()
    algorithm = GridPlacement(world.layout)
    algorithm.cumulative_errors(survey)  # warm the mask cache

    scores = benchmark(algorithm.cumulative_errors, survey)
    assert scores.shape == (400,)


# -- Incremental delta-engine: scan vs full recompute -------------------------

#: Acceptance bars for the delta-engine (DESIGN.md §13): a Max-style survey
#: scan of the top candidates must beat per-candidate full rebuilds by an
#: order of magnitude, and the greedy-k inner iteration — where one batched
#: connectivity pass amortizes over the whole lattice — by more.
MIN_SURVEY_SCAN_SPEEDUP = 10.0
MIN_GREEDY_ITER_SPEEDUP = 25.0

#: The CI incremental-smoke job reduces the candidate counts so the check
#: fits a shared runner; the recorded numbers in
#: ``results/BENCH_incremental.json`` come from the full reference run.
INCR_CANDIDATES = int(os.environ.get("REPRO_BENCH_INCR_CANDIDATES", "64"))
GREEDY_CANDIDATES = int(os.environ.get("REPRO_BENCH_GREEDY_CANDIDATES", "400"))
INCR_ROUNDS = int(os.environ.get("REPRO_BENCH_INCR_ROUNDS", "3"))
INCR_FULL_REPEATS = int(os.environ.get("REPRO_BENCH_INCR_FULL_REPEATS", "3"))


def test_incremental_scan_beats_full_recompute():
    """The delta-engine claim, measured: scanning K add-candidates through
    one :class:`FieldState` (one base field + K cheap deltas) must be an
    order of magnitude cheaper per candidate than rebuilding the world, on
    both a 64-candidate Max survey scan and a greedy-k lattice round."""
    from repro.placement import MaxPlacement
    from repro.sim.incremental import FieldState

    world = _world()
    world.errors()
    state = FieldState.from_world(world)
    survey = world.survey()

    top = MaxPlacement().top_candidates(survey, INCR_CANDIDATES)
    stride = max(1, survey.points.shape[0] // GREEDY_CANDIDATES)
    lattice = survey.points[::stride]

    def full(position):
        extended = world.field.with_beacon_at(tuple(position))
        conn = world.realization.connectivity(world.points(), extended)
        est = world.localizer.estimate(conn, extended.positions(), world.points())
        return localization_errors(est, world.points())

    full_best = float("inf")
    for _ in range(INCR_ROUNDS):
        start = time.perf_counter()
        for position in top[:INCR_FULL_REPEATS]:
            full(position)
        full_best = min(
            full_best, (time.perf_counter() - start) / INCR_FULL_REPEATS
        )

    scan_best = greedy_best = float("inf")
    scan_means = None
    for _ in range(INCR_ROUNDS):
        start = time.perf_counter()
        scan_means = state.scan_add_candidates(top)
        scan_best = min(
            scan_best, (time.perf_counter() - start) / top.shape[0]
        )
        start = time.perf_counter()
        state.scan_add_candidates(lattice)
        greedy_best = min(
            greedy_best, (time.perf_counter() - start) / lattice.shape[0]
        )

    # Spot-check: the engine's scan agrees with the full rebuild (byte-level
    # identity of committed deltas is pinned in tests/test_sim_incremental.py;
    # the O(P) peek is allclose by design).
    spot = np.array(
        [float(np.nanmean(full(p))) for p in top[:INCR_FULL_REPEATS]]
    )
    assert np.allclose(scan_means[:INCR_FULL_REPEATS], spot)

    survey_speedup = full_best / scan_best
    greedy_speedup = full_best / greedy_best
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    payload = {
        "sweep": {
            "config": "paper side=100 range=15 step=1 beacons=120 noise=0.3",
            "survey_candidates": int(top.shape[0]),
            "greedy_candidates": int(lattice.shape[0]),
            "full_repeats": INCR_FULL_REPEATS,
        },
        "rounds": INCR_ROUNDS,
        "best_seconds": {
            "full_rebuild_per_candidate": round(full_best, 5),
            "engine_scan_per_candidate": round(scan_best, 5),
            "greedy_iteration_per_candidate": round(greedy_best, 5),
        },
        "survey_scan_speedup_over_full": round(survey_speedup, 3),
        "greedy_iter_speedup_over_full": round(greedy_speedup, 3),
        "min_survey_scan_speedup": MIN_SURVEY_SCAN_SPEEDUP,
        "min_greedy_iter_speedup": MIN_GREEDY_ITER_SPEEDUP,
    }
    with (RESULTS_DIR / "BENCH_incremental.json").open("w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")

    assert survey_speedup >= MIN_SURVEY_SCAN_SPEEDUP, (
        f"engine survey scan is only {survey_speedup:.1f}x faster than full "
        f"rebuilds (needs >= {MIN_SURVEY_SCAN_SPEEDUP}x)"
    )
    assert greedy_speedup >= MIN_GREEDY_ITER_SPEEDUP, (
        f"greedy-k iteration is only {greedy_speedup:.1f}x faster than full "
        f"rebuilds (needs >= {MIN_GREEDY_ITER_SPEEDUP}x)"
    )


# -- Batched kernels: the sweep-level floor ----------------------------------

#: Acceptance bars for the vectorized kernels on the reference sweep (see
#: DESIGN.md §10): batched serial evaluation must beat the legacy scalar
#: serial path by this factor, and the chunked pool — which now plans each
#: chunk through the same kernels and attaches the shared-memory world
#: state — must beat scalar serial even on a small host.
MIN_BATCH_SERIAL_SPEEDUP = 3.0
MIN_POOL_OVER_SCALAR_SERIAL = 1.3

#: The CI perf-smoke job reduces the sweep (REPRO_BENCH_CELLS) so the floor
#: check fits a shared runner; the recorded numbers in
#: ``results/BENCH_kernels.json`` come from the full 600-cell reference.
SWEEP_CELLS = int(os.environ.get("REPRO_BENCH_CELLS", "600"))
SWEEP_ROUNDS = int(os.environ.get("REPRO_BENCH_ROUNDS", "4"))
SWEEP_WORKERS = 2
SWEEP_CHUNK = 32


def _scalar_mean_error_cell(args) -> float:
    """:func:`_mean_error_cell` with no batch planner registered for it, so
    ``run_cells`` evaluates every cell through its own scalar world."""
    return _mean_error_cell(args)


def test_batched_sweep_beats_scalar(emit_table):
    """The tentpole claim, measured: one (T × P × N) kernel pass per chunk
    must clearly beat per-cell scalar evaluation on the reference sweep,
    and produce bit-identical results while doing it."""
    import warnings

    warnings.filterwarnings("ignore", message=".*oversubscribes.*")
    config = ExperimentConfig(
        side=60.0,
        radio_range=12.0,
        step=5.0,
        num_grids=100,
        beacon_counts=(8,),
        noise_levels=(0.0,),
        fields_per_density=4,
        seed=7,
    )
    jobs = [
        ((0.0, 8, index), (config, 0.0, 8, index, None, 0.0))
        for index in range(SWEEP_CELLS)
    ]
    warm = jobs[:8]

    pool = PoolExecutor(workers=SWEEP_WORKERS, chunk=SWEEP_CHUNK)
    modes = {
        "serial scalar (legacy)": (_scalar_mean_error_cell, None),
        "serial batched": (_mean_error_cell, None),
        f"pool batched (workers={SWEEP_WORKERS}, chunk={SWEEP_CHUNK})": (
            _mean_error_cell,
            pool,
        ),
    }
    best = {name: float("inf") for name in modes}
    results = {}
    try:
        for cell, executor in modes.values():
            run_cells(warm, cell, executor=executor)
        for _ in range(SWEEP_ROUNDS):
            for name, (cell, executor) in modes.items():
                start = time.perf_counter()
                results[name] = run_cells(jobs, cell, executor=executor)
                best[name] = min(best[name], time.perf_counter() - start)
    finally:
        pool.close()

    scalar, batched, pooled = list(modes)
    for name, values in results.items():
        assert values == results[scalar], f"{name} diverged from scalar serial"

    serial_speedup = best[scalar] / best[batched]
    pool_speedup = best[scalar] / best[pooled]
    emit_table(
        "perf_kernels",
        ("mode", "best-of-%d (s)" % SWEEP_ROUNDS, "vs scalar serial"),
        [
            (name, f"{seconds:.3f}", f"{best[scalar] / seconds:.2f}x")
            for name, seconds in best.items()
        ],
    )
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    payload = {
        "sweep": {
            "cells": SWEEP_CELLS,
            "config": "side=60 range=12 step=5 beacons=8",
        },
        "workers": SWEEP_WORKERS,
        "chunk": SWEEP_CHUNK,
        "rounds": SWEEP_ROUNDS,
        "best_seconds": {name: round(seconds, 4) for name, seconds in best.items()},
        "batched_serial_speedup_over_scalar": round(serial_speedup, 3),
        "pool_speedup_over_scalar_serial": round(pool_speedup, 3),
        "min_batched_serial_speedup": MIN_BATCH_SERIAL_SPEEDUP,
        "min_pool_over_scalar_serial": MIN_POOL_OVER_SCALAR_SERIAL,
    }
    with (RESULTS_DIR / "BENCH_kernels.json").open("w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")

    assert serial_speedup >= MIN_BATCH_SERIAL_SPEEDUP, (
        f"batched serial is only {serial_speedup:.2f}x faster than scalar "
        f"serial (needs >= {MIN_BATCH_SERIAL_SPEEDUP}x)"
    )
    assert pool_speedup >= MIN_POOL_OVER_SCALAR_SERIAL, (
        f"batched pool is only {pool_speedup:.2f}x faster than scalar "
        f"serial (needs >= {MIN_POOL_OVER_SCALAR_SERIAL}x)"
    )
