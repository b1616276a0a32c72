"""Property tests for the incremental LE delta-engine and field cache.

The engine's design invariant is the bit-identity contract of
:mod:`repro.sim.incremental`: ``state.apply(delta).errors()`` must equal a
full rebuild of the resulting field **byte for byte**, for every supported
localizer policy, noise model and fault-driven removal sequence.  These
tests pin that contract, the non-subtractable-localizer fallback, the
fingerprint-keyed :class:`FieldCache` (LRU order, counters, process
locality under the spawn pool) and the observability counters the delta
path emits.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import CentroidLocalizer, ExperimentConfig, TrialWorld, UnlocalizedPolicy
from repro.field import Beacon
from repro.geometry import Point
from repro.localization import WeightedCentroidLocalizer
from repro.obs import MetricsRegistry, disable_metrics, enable_metrics
from repro.radio.kernels import batch_params_from_realization
from repro.sim import PoolExecutor, build_world, run_cells
from repro.sim.incremental import (
    AddBeacon,
    FieldCache,
    FieldState,
    MoveBeacon,
    RemoveBeacon,
    _greedyk_cell,
    default_field_cache,
    expected_le_field,
    field_fingerprint,
)
from repro.sim.kernels import candidate_columns, warm_worlds

SIDE = 30.0
RANGE = 10.0
STEP = 5.0


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        side=SIDE,
        radio_range=RANGE,
        step=STEP,
        num_grids=16,
        beacon_counts=(6, 10),
        noise_levels=(0.0, 0.3),
        fields_per_density=2,
        seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def assert_bits_equal(a, b):
    """Equality down to the byte — NaNs compare equal, -0.0 != 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


@pytest.fixture
def metrics():
    registry = MetricsRegistry()
    enable_metrics(registry)
    yield registry
    disable_metrics()


# A delta script that exercises every delta kind, including removal of a
# beacon that an earlier delta added (so ids beyond the seed field appear).
def delta_script(state: FieldState):
    ids = list(state.field.beacon_ids)
    return [
        AddBeacon((7.5, 12.5)),
        RemoveBeacon(ids[2]),
        MoveBeacon(ids[0], (20.0, 5.0)),
        AddBeacon((25.0, 25.0)),
        RemoveBeacon(ids[4]),
        MoveBeacon(ids[1], (2.5, 27.5)),
    ]


class TestBitIdentityContract:
    @pytest.mark.parametrize("noise", [0.0, 0.3])
    def test_from_world_adopts_byte_identical(self, noise):
        world = build_world(tiny_config(), noise, 8, 0)
        state = FieldState.from_world(world)
        assert_bits_equal(state.connectivity(), world.connectivity())
        assert_bits_equal(state.errors(), world.errors())

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    @pytest.mark.parametrize("policy", list(UnlocalizedPolicy))
    def test_delta_chain_matches_full_build(self, noise, policy):
        config = tiny_config()
        localizer = CentroidLocalizer(config.side, policy)
        world = build_world(config, noise, 8, 1, localizer=localizer)
        state = FieldState.from_world(world)
        out = state.apply_many(delta_script(state))

        fresh = FieldState.build(
            out.field, world.realization, world.grid, localizer=localizer
        )
        assert_bits_equal(out.connectivity(), fresh.connectivity())
        assert_bits_equal(out.errors(), fresh.errors())

        reference = TrialWorld(
            out.field, world.realization, world.grid, world.layout, localizer
        )
        assert_bits_equal(out.connectivity(), reference.connectivity())
        assert_bits_equal(out.errors(), reference.errors())

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    def test_fault_mask_removals_match_full_build(self, noise, rng):
        """Crash-style fault masks: drop a random subset, byte-identical."""
        config = tiny_config()
        world = build_world(config, noise, 10, 0)
        state = FieldState.from_world(world)
        dead = [bid for bid in state.field.beacon_ids if rng.random() < 0.4]
        out = state.apply_many(RemoveBeacon(bid) for bid in dead)
        fresh = FieldState.build(
            out.field, world.realization, world.grid, localizer=world.localizer
        )
        assert_bits_equal(out.connectivity(), fresh.connectivity())
        assert_bits_equal(out.errors(), fresh.errors())

    def test_remove_then_readd_restores_prior_bytes(self):
        config = tiny_config()
        world = build_world(config, 0.3, 8, 0)
        state = FieldState.from_world(world)
        bid = state.field.beacon_ids[3]
        x, y = state.field.positions()[3]
        removed = state.apply(RemoveBeacon(bid))
        # Intermittent recovery rebuilds the same field through advance_to
        # (same id, same position) — the spliced column must restore the
        # original matrix byte for byte.
        back = removed.advance_to(state.field)
        assert_bits_equal(back.connectivity(), state.connectivity())
        assert_bits_equal(back.errors(), state.errors())
        assert (float(x), float(y)) == tuple(back.field.positions()[3])

    def test_advance_to_matches_fresh_build(self):
        config = tiny_config()
        world = build_world(config, 0.3, 8, 1)
        state = FieldState.from_world(world)
        target = state.apply_many(delta_script(state)).field
        advanced = state.advance_to(target)
        fresh = FieldState.build(
            target, world.realization, world.grid, localizer=world.localizer
        )
        assert_bits_equal(advanced.connectivity(), fresh.connectivity())
        assert_bits_equal(advanced.errors(), fresh.errors())

    def test_advance_to_reuses_unchanged_columns(self, metrics):
        config = tiny_config()
        world = build_world(config, 0.0, 6, 0)
        state = FieldState.from_world(world)
        target = state.apply(AddBeacon((12.5, 17.5))).field
        state.advance_to(target)
        assert metrics.counter("incremental.columns.reused").value == 6
        assert metrics.counter("incremental.columns.recomputed").value == 1

    def test_apply_leaves_input_state_untouched(self):
        world = build_world(tiny_config(), 0.3, 6, 0)
        state = FieldState.from_world(world)
        before_conn = state.connectivity().tobytes()
        before_errors = state.errors().tobytes()
        state.apply_many(delta_script(state))
        assert state.connectivity().tobytes() == before_conn
        assert state.errors().tobytes() == before_errors

    def test_remove_unknown_id_raises(self):
        world = build_world(tiny_config(), 0.0, 6, 0)
        state = FieldState.from_world(world)
        with pytest.raises(KeyError):
            state.apply(RemoveBeacon(999))


# The committed-world contract is checked at the tests' toy geometry and at
# the paper's (side 100 m, R 15 m, 1 m step), where the lattice is 10,201
# points and last-ulp differences in the centroid sums have room to show.
CONTRACT_GEOMETRIES = [
    dict(),
    dict(side=100.0, radio_range=15.0, step=1.0, num_grids=400, beacon_counts=(20, 60)),
]


class TestWithBeaconContract:
    @pytest.mark.parametrize("noise", [0.0, 0.3])
    @pytest.mark.parametrize("policy", list(UnlocalizedPolicy))
    def test_with_beacon_matches_fresh_world(self, noise, policy):
        """A beacon committed on a surveyed world, through either class,
        gives the connectivity and errors of a fresh world on the extended
        field, to the byte."""
        rng = np.random.default_rng(2001)
        for geometry in CONTRACT_GEOMETRIES:
            config = tiny_config(**geometry)
            localizer = CentroidLocalizer(config.side, policy)
            for count in config.beacon_counts:
                for index in range(3):
                    world = build_world(config, noise, count, index, localizer=localizer)
                    world.errors()
                    state = FieldState.from_world(world)
                    for x, y in rng.uniform(0.0, config.side, size=(3, 2)):
                        fresh = TrialWorld(
                            world.field.with_beacon_at((x, y)),
                            world.realization,
                            world.grid,
                            world.layout,
                            localizer,
                        )
                        for committed in (
                            world.with_beacon((x, y)),
                            state.with_beacon((x, y)),
                        ):
                            assert committed.field.beacon_ids == fresh.field.beacon_ids
                            assert_bits_equal(
                                committed.connectivity(), fresh.connectivity()
                            )
                            assert_bits_equal(committed.errors(), fresh.errors())

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    def test_prewarmed_world_scans_like_engine_state(self, noise):
        """A world warmed by the batched kernels scans as the engine does,
        adopted or built from scratch."""
        config = tiny_config()
        worlds = [
            build_world(config, noise, count, index)
            for count in config.beacon_counts
            for index in range(2)
        ]
        assert warm_worlds(worlds) == len(worlds)
        for world in worlds:
            candidates = world.points()[::3]
            means = world.scan_add_candidates(candidates)
            assert_bits_equal(
                means, FieldState.from_world(world).scan_add_candidates(candidates)
            )
            cold = FieldState.build(
                world.field, world.realization, world.grid, localizer=world.localizer
            )
            assert_bits_equal(means, cold.scan_add_candidates(candidates))


class TestPeekAndScan:
    @pytest.mark.parametrize("noise", [0.0, 0.3])
    def test_peek_matches_world_candidate_path(self, noise):
        world = build_world(tiny_config(), noise, 8, 0)
        state = FieldState.from_world(world)
        for p in [(2.5, 2.5), (15.0, 15.0), (27.5, 7.5)]:
            assert_bits_equal(
                state.errors_with_candidate(p), world.errors_with_candidate(p)
            )

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    def test_scan_means_match_per_candidate_peek(self, noise):
        world = build_world(tiny_config(), noise, 8, 1)
        state = FieldState.from_world(world)
        candidates = state.points()[::5]
        means = state.scan_add_candidates(candidates, chunk=7)
        peek = np.array(
            [float(np.nanmean(state.errors_with_candidate(p))) for p in candidates]
        )
        assert_bits_equal(means, peek)

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    def test_candidate_columns_match_scalar_connectivity(self, noise):
        """The one-pass probe kernel against one scalar probe per candidate,
        all under the id the next added beacon would receive."""
        world = build_world(tiny_config(), noise, 8, 0)
        assert batch_params_from_realization(world.realization) is not None
        points = world.points()
        candidates = points[::4]
        next_id = world.field.next_beacon_id
        probes = [Beacon(next_id, Point(float(x), float(y))) for x, y in candidates]
        assert_bits_equal(
            candidate_columns(world.realization, world.grid, next_id, candidates),
            world.realization.connectivity(points, probes),
        )

    def test_scan_add_candidates_accepts_trialworld(self):
        world = build_world(tiny_config(), 0.0, 6, 0)
        candidates = world.points()[::6]
        via_world = world.scan_add_candidates(candidates)
        via_state = FieldState.from_world(world).scan_add_candidates(candidates)
        assert_bits_equal(via_world, via_state)


class TestNonSubtractableFallback:
    def localizer(self):
        return WeightedCentroidLocalizer(SIDE, RANGE, alpha=1.0)

    def test_delta_chain_still_byte_identical(self, metrics):
        config = tiny_config()
        world = build_world(config, 0.3, 8, 0, localizer=self.localizer())
        state = FieldState.from_world(world)
        out = state.apply_many(delta_script(state))
        fresh = FieldState.build(
            out.field, world.realization, world.grid, localizer=self.localizer()
        )
        assert_bits_equal(out.connectivity(), fresh.connectivity())
        assert_bits_equal(out.errors(), fresh.errors())
        assert metrics.counter("incremental.fallback.full").value > 0

    def test_scan_fallback_counts_every_candidate(self, metrics):
        world = build_world(tiny_config(), 0.0, 6, 0, localizer=self.localizer())
        state = FieldState.from_world(world)
        candidates = state.points()[::9]
        means = state.scan_add_candidates(candidates)
        peek = np.array(
            [float(np.nanmean(state.errors_with_candidate(p))) for p in candidates]
        )
        assert_bits_equal(means, peek)
        assert (
            metrics.counter("incremental.fallback.full").value
            >= candidates.shape[0]
        )


class TestFingerprint:
    def parts(self, noise=0.3, count=8, index=0):
        world = build_world(tiny_config(), noise, count, index)
        return world.field, world.realization, world.grid, world.localizer

    def test_stable_across_recomputation(self):
        field, realization, grid, localizer = self.parts()
        a = field_fingerprint(field, realization, grid, localizer)
        b = field_fingerprint(field, realization, grid, localizer)
        assert a is not None and a == b

    def test_changes_when_field_changes(self):
        field, realization, grid, localizer = self.parts()
        moved = FieldState.build(
            field, realization, grid, localizer=localizer
        ).apply(AddBeacon((1.0, 2.0))).field
        assert field_fingerprint(field, realization, grid, localizer) != (
            field_fingerprint(moved, realization, grid, localizer)
        )

    def test_changes_with_realization(self):
        field, realization, grid, localizer = self.parts(noise=0.3)
        _, other, _, _ = self.parts(noise=0.0)
        assert field_fingerprint(field, realization, grid, localizer) != (
            field_fingerprint(field, other, grid, localizer)
        )

    def test_uncacheable_localizer_returns_none(self):
        field, realization, grid, _ = self.parts()
        weighted = WeightedCentroidLocalizer(SIDE, RANGE)
        assert field_fingerprint(field, realization, grid, weighted) is None


class TestFieldCache:
    def test_lru_eviction_order(self, metrics):
        cache = FieldCache(capacity=2)
        cache.put("a", np.zeros(3))
        cache.put("b", np.ones(3))
        assert cache.get("a") is not None  # refreshes "a" — "b" is now stalest
        cache.put("c", np.full(3, 2.0))
        assert cache.fingerprints() == ["a", "c"]
        assert cache.get("b") is None
        assert metrics.counter("cache.le_field.evictions").value == 1

    def test_counters_track_hits_and_misses(self, metrics):
        cache = FieldCache(capacity=4)
        assert cache.get("missing") is None
        cache.put("x", np.arange(4.0))
        assert cache.get("x") is not None
        assert metrics.counter("cache.le_field.misses").value == 1
        assert metrics.counter("cache.le_field.hits").value == 1

    def test_stored_arrays_are_read_only_copies(self):
        cache = FieldCache()
        source = np.arange(4.0)
        stored = cache.put("x", source)
        source[0] = 99.0
        assert stored[0] == 0.0
        with pytest.raises(ValueError):
            cache.get("x")[0] = 1.0

    def test_expected_le_field_matches_engine_build(self, metrics):
        world = build_world(tiny_config(), 0.3, 8, 0)
        cache = FieldCache()
        first = expected_le_field(
            world.field, world.realization, world.grid, world.localizer,
            cache=cache,
        )
        assert_bits_equal(first, world.errors())
        again = expected_le_field(
            world.field, world.realization, world.grid, world.localizer,
            cache=cache,
        )
        assert_bits_equal(again, first)
        assert len(cache) == 1
        assert metrics.counter("cache.le_field.hits").value == 1

    def test_uncacheable_field_computes_every_time(self, metrics):
        world = build_world(
            tiny_config(), 0.0, 6, 0,
            localizer=WeightedCentroidLocalizer(SIDE, RANGE),
        )
        cache = FieldCache()
        errors = expected_le_field(
            world.field, world.realization, world.grid, world.localizer,
            cache=cache,
        )
        assert_bits_equal(errors, world.errors())
        assert len(cache) == 0
        assert metrics.counter("cache.le_field.uncacheable").value == 1


class TestSpawnPoolIsolation:
    def test_pool_matches_serial_and_driver_cache_stays_local(self, metrics):
        """Workers must not silently share (or mutate) the driver's cache."""
        config = tiny_config(fields_per_density=2)
        cache = default_field_cache()
        cache.clear()
        try:
            world = build_world(config, 0.0, 6, 0)
            expected_le_field(
                world.field, world.realization, world.grid, world.localizer
            )
            seeded = cache.fingerprints()
            assert len(seeded) == 1

            jobs = [
                (("gk", 0.0, 6, i, 1, 4), (config, 0.0, 6, i, 1, 4))
                for i in range(2)
            ]
            serial = run_cells(jobs, _greedyk_cell)
            with PoolExecutor(workers=2) as pool:
                pooled = run_cells(jobs, _greedyk_cell, executor=pool)
            assert serial == pooled
            # Cells ran in spawn workers with their own process-local caches:
            # the driver-side default cache is exactly as we left it.
            assert cache.fingerprints() == seeded
        finally:
            cache.clear()


class TestObsCounters:
    def test_delta_counter_and_span(self, metrics):
        world = build_world(tiny_config(), 0.0, 6, 0)
        state = FieldState.from_world(world)
        state.apply_many(delta_script(state))
        assert metrics.counter("sweep.delta_applied").value == 6

    def test_scan_counts_candidates(self, metrics):
        world = build_world(tiny_config(), 0.0, 6, 0)
        state = FieldState.from_world(world)
        candidates = state.points()[::5]
        state.scan_add_candidates(candidates, chunk=4)
        assert (
            metrics.counter("incremental.scan.candidates").value
            == candidates.shape[0]
        )

    def test_full_build_counted_once(self, metrics):
        world = build_world(tiny_config(), 0.0, 6, 0)
        state = FieldState.build(
            world.field, world.realization, world.grid, localizer=world.localizer
        )
        state.errors()
        assert metrics.counter("incremental.full_builds").value == 1
