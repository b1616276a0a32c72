"""Property tests for the batched LE kernels and zero-copy shared state.

Bit-identity with the scalar per-cell ``TrialWorld`` path is the design
invariant of :mod:`repro.sim.kernels` — these tests enforce it down to the
byte across localizer policies, noise levels, empty fields, fault-degraded
worlds and all-NaN cells, plus the numerical facts the kernels rely on
(stacked mat-muls and row-wise nan-reductions matching their per-slice
forms).  Both paths run the windowed connectivity kernel, whose own
oracle is the dense path (``tests/test_radio_kernels.py``).  The
shared-memory world state (:mod:`repro.sim.executors.shm`) is covered for
bit-identical cache pre-seeding and segment lifecycle.
"""

from __future__ import annotations

import json
import os
import tracemalloc

import numpy as np
import pytest

from repro import CentroidLocalizer, ExperimentConfig, UnlocalizedPolicy
from repro.faults import CrashFault
from repro.obs import MetricsRegistry, disable_metrics, enable_metrics
from repro.placement import MaxPlacement, RandomPlacement
from repro.sim import (
    PoolExecutor,
    SerialExecutor,
    batch_surface_stats,
    build_world,
    mean_error_curve,
    placement_improvement_curves,
    resilient_mean_error_curve,
    resilient_placement_improvement_curves,
    warm_worlds,
)
from repro.sim import resilient as resilient_mod
from repro.sim.executors import clear_world_cache
from repro.sim.executors import shm as shm_mod
from repro.sim.executors.base import (
    _BATCH_PLANNERS,
    batch_thunks,
    plan_chunk,
    register_batch_planner,
    run_one_cell,
)
from repro.sim.executors.cache import _MAX_ENTRIES, _grids, cached_grid

SIDE = 30.0
RANGE = 10.0
STEP = 5.0


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        side=SIDE,
        radio_range=RANGE,
        step=STEP,
        num_grids=16,
        beacon_counts=(4, 8),
        noise_levels=(0.0, 0.3),
        fields_per_density=2,
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def assert_bits_equal(a, b):
    """Equality down to the byte — NaNs compare equal, -0.0 != 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def build_world_pair(config, noise, count, index, **kwargs):
    """Two independent TrialWorlds for the same cell (caches empty on both)."""
    return (
        build_world(config, noise, count, index, **kwargs),
        build_world(config, noise, count, index, **kwargs),
    )


@pytest.fixture
def metrics():
    """A live registry so kernel/shm counters are observable."""
    registry = MetricsRegistry()
    enable_metrics(registry)
    yield registry
    disable_metrics()


# -- Numerical identities the kernels are built on ---------------------------


class TestStackedReductionIdentity:
    def test_stacked_matmul_matches_per_slice(self, rng):
        conn = rng.random((5, 31, 7)) < 0.4
        positions = rng.uniform(0, 100, (5, 7, 2))
        stacked = conn.astype(float) @ positions
        for t in range(5):
            assert_bits_equal(stacked[t], conn[t].astype(float) @ positions[t])

    def test_row_nan_reductions_match_per_row(self, rng):
        stacked = rng.uniform(0, 50, (6, 49))
        stacked[stacked < 5.0] = np.nan
        means = np.nanmean(stacked, axis=1)
        medians = np.nanmedian(stacked, axis=1)
        for t in range(6):
            assert_bits_equal(means[t], np.nanmean(stacked[t]))
            assert_bits_equal(medians[t], np.nanmedian(stacked[t]))


# -- warm_worlds bit-identity -------------------------------------------------


class TestWarmWorldsBitIdentity:
    @pytest.mark.parametrize("noise", [0.0, 0.3])
    @pytest.mark.parametrize("policy", list(UnlocalizedPolicy))
    def test_matches_scalar_across_policies(self, policy, noise):
        config = tiny_config()
        localizer = CentroidLocalizer(config.side, policy)
        pairs = [
            build_world_pair(config, noise, count, index, localizer=localizer)
            for count in config.beacon_counts
            for index in range(config.fields_per_density)
        ]
        warmed = warm_worlds([w for w, _ in pairs])
        assert warmed == len(pairs)
        for batched, scalar in pairs:
            assert np.array_equal(batched.connectivity(), scalar.connectivity())
            assert_bits_equal(batched.errors(), scalar.errors())
            assert_bits_equal(
                batched.centroid_state().coord_sums,
                scalar.centroid_state().coord_sums,
            )
            surface_b, surface_s = batched.error_surface(), scalar.error_surface()
            assert_bits_equal(surface_b.mean_error(), surface_s.mean_error())
            assert_bits_equal(surface_b.median_error(), surface_s.median_error())

    def test_empty_field(self):
        config = tiny_config(beacon_counts=(0,), fields_per_density=1)
        batched, scalar = build_world_pair(config, 0.0, 0, 0)
        assert warm_worlds([batched]) == 1
        assert batched.connectivity().shape == (batched.points().shape[0], 0)
        assert_bits_equal(batched.errors(), scalar.errors())

    def test_all_beacons_down_nan_cells(self):
        """A fully crashed field under EXCLUDE degrades every cell to NaN —
        identically on both paths, including the all-NaN surface guard."""
        config = tiny_config()
        localizer = CentroidLocalizer(config.side, UnlocalizedPolicy.EXCLUDE)
        faults = CrashFault(mean_lifetime=1.0)
        batched, scalar = build_world_pair(
            config, 0.3, 8, 0,
            localizer=localizer, faults=faults, fault_time=1e9,
        )
        assert len(batched.field) == 0
        assert warm_worlds([batched]) == 1
        assert np.isnan(batched.errors()).all()
        assert_bits_equal(batched.errors(), scalar.errors())
        means, medians = batch_surface_stats([batched])
        assert np.isnan(means[0]) and np.isnan(medians[0])
        assert_bits_equal(means[0], np.float64(scalar.error_surface().mean_error()))

    def test_fault_masked_connectivity(self):
        """Partial crash survivors: the degraded field runs bit-identically."""
        config = tiny_config()
        faults = CrashFault(mean_lifetime=1.0)
        pairs = [
            build_world_pair(
                config, 0.3, 8, index, faults=faults, fault_time=0.7
            )
            for index in range(config.fields_per_density)
        ]
        survivors = {len(w.field) for w, _ in pairs}
        assert survivors != {8}  # the fault actually degraded something
        warm_worlds([w for w, _ in pairs])
        for batched, scalar in pairs:
            assert np.array_equal(batched.connectivity(), scalar.connectivity())
            assert_bits_equal(batched.errors(), scalar.errors())

    def test_batch_surface_stats_matches_scalar(self):
        config = tiny_config()
        pairs = [
            build_world_pair(config, noise, count, index)
            for noise in (0.0, 0.3)
            for count in config.beacon_counts
            for index in range(config.fields_per_density)
        ]
        batched_worlds = [w for w, _ in pairs]
        warm_worlds(batched_worlds)
        means, medians = batch_surface_stats(batched_worlds)
        for i, (_, scalar) in enumerate(pairs):
            surface = scalar.error_surface()
            assert_bits_equal(means[i], np.float64(surface.mean_error()))
            assert_bits_equal(medians[i], np.float64(surface.median_error()))

    def test_medians_skippable(self):
        config = tiny_config()
        world = build_world(config, 0.0, 4, 0)
        warm_worlds([world])
        _, medians = batch_surface_stats([world], medians=False)
        assert np.isnan(medians).all()


def _traced_peak(fn) -> int:
    """Peak bytes ``tracemalloc`` sees allocated while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWarmWorldsMemory:
    def test_batched_peak_no_higher_than_scalar_at_paper_geometry(self):
        """One 240-beacon noisy world at side 100 m, step 1 m: the batched
        pass peaks no higher than the scalar evaluation.  Only its stacked
        seed/id/position inputs (a few KiB) are extra; both run the same
        windowed connectivity kernel, and both peak at the centroid
        mat-mul's (P, N) float64 operand."""
        config = ExperimentConfig(seed=7, fields_per_density=1)
        batched, scalar = build_world_pair(config, 0.1, 240, 0)
        batched.points(), scalar.points()  # the shared lattice, built once
        batched_peak = _traced_peak(lambda: warm_worlds([batched]))
        scalar_peak = _traced_peak(scalar.error_surface)
        assert batched_peak <= scalar_peak + 64 * 1024
        assert_bits_equal(batched.errors(), scalar.errors())


# -- Eligibility: what stays scalar ------------------------------------------


class _NotQuiteCentroid(CentroidLocalizer):
    """Subclasses must not be batched — only the exact paper localizer is."""


class TestEligibility:
    def test_evaluated_world_left_alone(self, metrics):
        world = build_world(tiny_config(), 0.0, 4, 0)
        errors = world.errors()
        assert warm_worlds([world]) == 0
        assert world.errors() is errors
        assert metrics.counter("kernel.scalar.worlds").value == 1

    def test_non_centroid_localizer_stays_cold(self):
        config = tiny_config()
        world = build_world(
            config, 0.0, 4, 0, localizer=_NotQuiteCentroid(config.side)
        )
        assert warm_worlds([world]) == 0
        assert world._conn is None and world._errors is None


# -- The batch-planner contract ----------------------------------------------


def _square(args):
    return args * args


def _square_planner(args_list):
    return [lambda a=args: a * a for args in args_list]


def _short_planner(args_list):
    return [None]


def _raising_planner(args_list):
    raise RuntimeError("planner boom")


@pytest.fixture
def _planner_registry():
    yield
    _BATCH_PLANNERS.pop(_square, None)


@pytest.mark.usefixtures("_planner_registry")
class TestBatchPlannerContract:
    def test_thunks_match_scalar(self, metrics):
        register_batch_planner(_square, _square_planner)
        thunks = batch_thunks(_square, [2, 3, 4])
        assert [t() for t in thunks] == [_square(a) for a in (2, 3, 4)]
        assert metrics.counter("kernel.batch.chunks").value == 1

    def test_no_planner_returns_none(self):
        assert batch_thunks(_square, [2, 3]) is None

    def test_single_cell_chunks_stay_scalar(self):
        register_batch_planner(_square, _square_planner)
        assert batch_thunks(_square, [2]) is None

    def test_planner_exception_degrades_to_scalar(self, metrics):
        register_batch_planner(_square, _raising_planner)
        assert batch_thunks(_square, [2, 3]) is None
        assert metrics.counter("kernel.batch.plan_errors").value == 1

    def test_wrong_length_plan_degrades_to_scalar(self, metrics):
        register_batch_planner(_square, _short_planner)
        assert batch_thunks(_square, [2, 3]) is None
        assert metrics.counter("kernel.batch.plan_errors").value == 1

    def test_thunk_failure_falls_back_to_fn(self, metrics):
        def bad_thunk():
            raise RuntimeError("thunk boom")

        outcome = run_one_cell(_square, 6, thunk=bad_thunk)
        assert outcome["ok"] and outcome["value"] == 36
        assert metrics.counter("kernel.batch.thunk_fallbacks").value == 1

    def test_plan_chunk_ships_instrumented_metrics(self):
        register_batch_planner(_square, _square_planner)
        thunks, snapshot = plan_chunk(_square, [2, 3], True)
        assert [t() for t in thunks] == [4, 9]
        assert snapshot["counters"]["kernel.batch.chunks"] == 1


# -- Whole-sweep identity: batch vs scalar, serial vs pool -------------------


class TestSweepBatchIdentity:
    def test_serial_mean_error_curve_bit_identical(self, scalar_cells):
        config = tiny_config()
        batched = resilient_mean_error_curve(config, 0.3)
        with scalar_cells():
            scalar = resilient_mean_error_curve(config, 0.3)
        assert_bits_equal(batched.values, scalar.values)
        assert_bits_equal(batched.ci_half_widths, scalar.ci_half_widths)

    def test_serial_improvement_curves_bit_identical(self, scalar_cells):
        config = tiny_config(beacon_counts=(8,))
        algorithms = [RandomPlacement(), MaxPlacement()]
        batched_mean, batched_median = resilient_placement_improvement_curves(
            config, 0.0, algorithms
        )
        with scalar_cells():
            scalar_mean, scalar_median = resilient_placement_improvement_curves(
                config, 0.0, algorithms
            )
        for b_set, s_set in ((batched_mean, scalar_mean), (batched_median, scalar_median)):
            for b, s in zip(b_set.curves, s_set.curves):
                assert b.label == s.label
                assert_bits_equal(b.values, s.values)
                assert_bits_equal(b.ci_half_widths, s.ci_half_widths)

    def test_pool_with_shared_state_matches_serial_scalar(self, scalar_cells):
        """End to end: pool workers attach the shm segment, plan batches, and
        still reproduce the scalar serial curve bit for bit."""
        config = tiny_config()
        with scalar_cells():
            reference = resilient_mean_error_curve(config, 0.3)
        executor = PoolExecutor(workers=2, chunk=4)
        try:
            curve = resilient_mean_error_curve(config, 0.3, executor=executor)
        finally:
            executor.close()
        assert executor.shared_handle is None  # driver reset it after unlink
        assert_bits_equal(curve.values, reference.values)
        assert_bits_equal(curve.ci_half_widths, reference.ci_half_widths)

    def test_serial_improvement_sweep_warms_one_sub_block_at_a_time(
        self, monkeypatch, scalar_cells
    ):
        """A serial block of improvement cells is warmed lazily in sub-blocks
        of one beacon count and about ``DEFAULT_BLOCK_ELEMENTS`` links:
        whenever one is warmed, every world warmed before it has already run
        its trial."""
        config = tiny_config(beacon_counts=(4, 8), fields_per_density=6)
        points = build_world(config, 0.0, 8, 0).points().shape[0]
        # Four 8-beacon worlds; the six 4-beacon ones stay below it alone.
        bound = 4 * points * 8
        monkeypatch.setattr(resilient_mod, "DEFAULT_BLOCK_ELEMENTS", bound)
        waiting: set = set()
        warm_calls = []  # (worlds left waiting, links warmed, beacon counts)
        real_warm = resilient_mod.warm_worlds
        real_trial = resilient_mod.run_placement_trial

        def recording_warm(worlds, **kwargs):
            links = sum(points * len(w.field) for w in worlds)
            warm_calls.append((len(waiting), links, {len(w.field) for w in worlds}))
            waiting.update(map(id, worlds))
            return real_warm(worlds, **kwargs)

        def recording_trial(world, algorithms, rng_for):
            waiting.discard(id(world))
            return real_trial(world, algorithms, rng_for)

        monkeypatch.setattr(resilient_mod, "warm_worlds", recording_warm)
        monkeypatch.setattr(resilient_mod, "run_placement_trial", recording_trial)
        algorithms = [RandomPlacement(), MaxPlacement()]
        batched = placement_improvement_curves(
            config, 0.0, algorithms, executor=SerialExecutor()
        )
        assert len(warm_calls) == 3
        assert all(earlier == 0 for earlier, _, _ in warm_calls)
        assert all(links < bound + points * 8 for _, links, _ in warm_calls)
        assert all(len(counts) == 1 for _, _, counts in warm_calls)
        assert not waiting
        with scalar_cells():
            scalar = placement_improvement_curves(config, 0.0, algorithms)
        for b_set, s_set in zip(batched, scalar):
            for b, s in zip(b_set.curves, s_set.curves):
                assert_bits_equal(b.values, s.values)
                assert_bits_equal(b.ci_half_widths, s.ci_half_widths)

    def test_mean_error_blocks_never_span_two_counts(self, monkeypatch, scalar_cells):
        """Worlds of different beacon counts never share a kernel pass, so a
        block closes where the count changes instead of holding one count's
        warmed worlds through the next count's pass."""
        config = tiny_config(beacon_counts=(4, 8), fields_per_density=3)
        counts_per_pass = []
        real_warm = resilient_mod.warm_worlds

        def recording_warm(worlds, **kwargs):
            counts_per_pass.append({len(w.field) for w in worlds})
            return real_warm(worlds, **kwargs)

        monkeypatch.setattr(resilient_mod, "warm_worlds", recording_warm)
        batched = mean_error_curve(config, 0.3, executor=SerialExecutor())
        assert counts_per_pass == [{4}, {8}]
        with scalar_cells():
            scalar = mean_error_curve(config, 0.3)
        assert counts_per_pass == [{4}, {8}]
        assert_bits_equal(batched.values, scalar.values)


# -- Shared-memory world state ------------------------------------------------


class TestSharedMemory:
    def test_publish_handle_jsonable_and_unlink_idempotent(self):
        config = tiny_config()
        state = shm_mod.publish_shared_state(config, noises=[0.3])
        try:
            json.loads(json.dumps(state.handle))  # must survive the wire
            assert os.path.exists(f"/dev/shm/{state.name}")
        finally:
            state.unlink()
        assert not os.path.exists(f"/dev/shm/{state.name}")
        state.unlink()  # idempotent

    def test_attach_preseeds_caches_bit_identical(self, monkeypatch, metrics):
        config = tiny_config()
        expected = {}
        for count in config.beacon_counts:
            for index in range(config.fields_per_density):
                world = build_world(config, 0.3, count, index)
                expected[(count, index)] = (
                    world.field.positions().copy(),
                    world.realization.seed,
                )
        state = shm_mod.publish_shared_state(config, noises=[0.3])
        # Simulate a fresh worker: empty caches, and hide the in-process
        # publisher (attach_shared_state refuses to shadow its own segment).
        clear_world_cache()
        monkeypatch.setattr(shm_mod, "_published", [])
        monkeypatch.setattr(shm_mod, "_unregister_attachment", lambda shm: None)
        try:
            assert shm_mod.attach_shared_state(state.handle) is True
            assert shm_mod.attach_shared_state(state.handle) is False  # idempotent
            assert shm_mod.attached_segment_name() == state.name
            assert metrics.counter("shm.attached").value == 1
            segment = shm_mod._attached[state.name]
            for count in config.beacon_counts:
                for index in range(config.fields_per_density):
                    world = build_world(config, 0.3, count, index)
                    positions, seed = expected[(count, index)]
                    assert_bits_equal(world.field.positions(), positions)
                    assert world.realization.seed == seed
                    # Zero-copy: the positions really live in the segment.
                    assert np.shares_memory(
                        world.field.positions(), np.frombuffer(segment.buf, np.uint8)
                    )
                    assert not world.field.positions().flags.writeable
        finally:
            clear_world_cache()
            shm_mod._attached.clear()
            state.unlink()

    def test_publish_for_executor_needs_a_handle_slot(self):
        config = tiny_config()
        assert shm_mod.publish_for_executor(None, config) is None

        class Slotless:
            pass

        assert shm_mod.publish_for_executor(Slotless(), config) is None

        class WithSlot:
            shared_handle = None

        executor = WithSlot()
        state = shm_mod.publish_for_executor(executor, config, noises=[0.0])
        try:
            assert state is not None
            assert executor.shared_handle == state.handle
            # A second publish is refused while a handle is installed.
            assert shm_mod.publish_for_executor(executor, config) is None
        finally:
            state.unlink()


# -- World-cache LRU eviction -------------------------------------------------


class TestWorldCacheLRU:
    def test_hit_refreshes_and_miss_evicts_single_stalest(self):
        clear_world_cache()
        try:
            for i in range(_MAX_ENTRIES):
                cached_grid(100.0 + 10.0 * i, 10.0)
            cached_grid(100.0, 10.0)  # refresh the oldest entry
            cached_grid(990.0, 10.0)  # one past capacity
            assert len(_grids) == _MAX_ENTRIES
            assert (100.0, 10.0) in _grids  # refreshed entry survived
            assert (110.0, 10.0) not in _grids  # the stalest entry went
            assert (990.0, 10.0) in _grids
        finally:
            clear_world_cache()
