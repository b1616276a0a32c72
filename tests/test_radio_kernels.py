"""The windowed lattice kernel against the dense §4.2.1 oracle.

Every lattice query — ``realization.connectivity(grid, …)``,
``TrialWorld.connectivity()``, candidate columns and the stacked
``warm_worlds`` pass — runs :func:`repro.radio.kernels.windowed_connectivity`,
which compares only the pairs inside each beacon's reach.  The dense path,
``realization.connectivity(grid.points(), …)``, computes every (point,
beacon) pair and shares no windowing code with it, so these tests hold the
two equal byte for byte: on random fields; on beacons at the terrain's
corners and edges, on lattice points and off the terrain; at links exactly
at the effective range; at every noise level, CM_thresh and u granularity;
and for every shape the callers pass.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CentroidLocalizer, ExperimentConfig
from repro.faults import CrashFault, DriftFault, apply_faults
from repro.field import Beacon, BeaconField
from repro.geometry import MeasurementGrid, Point
from repro.radio import BeaconNoiseRealization
from repro.radio.hashrand import mix64, splitmix_fold
from repro.radio.kernels import batch_params_from_realization, windowed_connectivity
from repro.sim import build_world, warm_worlds
from repro.sim.kernels import candidate_columns

RANGE = 15.0
NOISES = (0.0, 0.1, 0.3, 0.5)
CM_THRESHOLDS = (None, 0.5, 0.9, 1.0)
GRANULARITIES = ("pair", "beacon")
#: (side, step): the paper's lattice, two coarser steps, and the tests'
#: 30 m / 5 m toy geometry.
GEOMETRIES = ((100.0, 1.0), (100.0, 2.5), (100.0, 5.0), (30.0, 5.0))


def assert_bits_equal(a, b):
    """Equality down to the byte, dtype and shape included."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def assert_matches_oracle(realization, grid, beacons):
    """The windowed lattice answer equals the dense one on ``grid.points()``."""
    windowed = realization.connectivity(grid, beacons)
    assert windowed.flags.c_contiguous
    assert_bits_equal(windowed, realization.connectivity(grid.points(), beacons))
    return windowed


def awkward_positions(side: float, step: float) -> list:
    """Corners, edges, lattice points, half-step ties and off-terrain spots."""
    mid = side / 2.0
    return [
        (0.0, 0.0), (side, 0.0), (0.0, side), (side, side),  # corners
        (0.0, mid), (side, mid), (mid, 0.0), (mid, side),  # edges
        (step, step), (side - step, 2 * step),  # lattice points
        (2.5 * step, 3.5 * step), (mid + 0.5 * step, mid),  # half-step ties
        (-3.7, mid), (side + 0.4 * RANGE, mid),  # just off, still reaching in
        (-0.9 * RANGE, -0.9 * RANGE), (side + 2.0, -1.0),  # off the corners
        (-5.0 * RANGE, mid), (side + 9.0 * RANGE, side + 9.0 * RANGE),  # far away
    ]


def field_for(grid: MeasurementGrid, rng, random_count: int) -> BeaconField:
    side = grid.side
    random = rng.uniform(-0.2 * side, 1.2 * side, (random_count, 2))
    return BeaconField.from_positions(
        np.vstack([awkward_positions(side, grid.step), random])
    )


class TestEveryModelSetting:
    @pytest.mark.parametrize("side,step", GEOMETRIES)
    @pytest.mark.parametrize("granularity", GRANULARITIES)
    @pytest.mark.parametrize("cm_thresh", CM_THRESHOLDS)
    @pytest.mark.parametrize("noise", NOISES)
    def test_matches_dense_oracle(self, noise, cm_thresh, granularity, side, step):
        grid = MeasurementGrid(side, step)
        rng = np.random.default_rng(int(100 * noise) + 7 * int(step) + int(side))
        realization = BeaconNoiseRealization(
            RANGE, noise, int(rng.integers(0, 2**63)), granularity, cm_thresh
        )
        conn = assert_matches_oracle(realization, grid, field_for(grid, rng, 12))
        assert conn.any()


class TestExactRange:
    """Noise-free, R = 15 m and a beacon on a lattice point: the lattice
    points at offsets (9, 12) and (15, 0) lie at exactly 15.0 m, on the
    boundary the window must still contain."""

    @pytest.mark.parametrize("cm_thresh", CM_THRESHOLDS)
    def test_links_at_exactly_the_range_connect(self, cm_thresh):
        grid = MeasurementGrid(100.0, 1.0)
        realization = BeaconNoiseRealization(RANGE, 0.0, 11, "pair", cm_thresh)
        bx, by = 40.0, 50.0
        conn = assert_matches_oracle(
            realization, grid, BeaconField.from_positions([(bx, by)])
        )[:, 0]
        for dx, dy in ((9, 12), (-12, 9), (15, 0), (0, -15), (-15, 0), (12, -9)):
            assert conn[grid.index_of((bx + dx, by + dy))], (dx, dy)
        for dx, dy in ((16, 0), (0, 16), (11, 11)):
            assert not conn[grid.index_of((bx + dx, by + dy))], (dx, dy)
        assert conn.sum() == 709  # lattice points within a closed 15 m disc

    def test_exact_range_at_terrain_corner(self):
        grid = MeasurementGrid(100.0, 1.0)
        realization = BeaconNoiseRealization(RANGE, 0.0, 3)
        conn = assert_matches_oracle(
            realization, grid, BeaconField.from_positions([(100.0, 100.0)])
        )[:, 0]
        assert conn[grid.index_of((85.0, 100.0))]
        assert conn[grid.index_of((91.0, 88.0))]
        assert not conn[grid.index_of((84.0, 100.0))]


class TestRandomFields:
    @given(
        seed=st.integers(0, 2**63 - 1),
        noise=st.sampled_from(NOISES),
        cm_thresh=st.sampled_from(CM_THRESHOLDS),
        granularity=st.sampled_from(GRANULARITIES),
        geometry=st.sampled_from(GEOMETRIES),
        count=st.integers(0, 30),
        layout=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_field_matches_oracle(
        self, seed, noise, cm_thresh, granularity, geometry, count, layout
    ):
        grid = MeasurementGrid(*geometry)
        rng = np.random.default_rng(layout)
        positions = rng.uniform(-0.3 * grid.side, 1.3 * grid.side, (count, 2))
        # Half of the beacons snap to lattice points.
        snap = rng.random(count) < 0.5
        positions[snap] = np.round(positions[snap] / grid.step) * grid.step
        realization = BeaconNoiseRealization(
            RANGE, noise, seed, granularity, cm_thresh
        )
        assert_matches_oracle(
            realization, grid, BeaconField.from_positions(positions)
        )


class TestShapes:
    def test_empty_field(self):
        grid = MeasurementGrid(30.0, 5.0)
        realization = BeaconNoiseRealization(RANGE, 0.3, 5)
        conn = assert_matches_oracle(realization, grid, BeaconField.empty())
        assert conn.shape == (grid.num_points, 0)

    @pytest.mark.parametrize("noise", NOISES)
    def test_one_beacon(self, noise):
        grid = MeasurementGrid(100.0, 1.0)
        realization = BeaconNoiseRealization(RANGE, noise, 9, cm_thresh=0.9)
        assert_matches_oracle(
            realization, grid, BeaconField.from_positions([(33.3, 71.9)])
        )

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    def test_fault_masked_field_with_id_gaps(self, noise):
        grid = MeasurementGrid(100.0, 1.0)
        rng = np.random.default_rng(4)
        field = BeaconField.from_positions(rng.uniform(0, 100, (40, 2)))
        faults = CrashFault(mean_lifetime=50.0).realize(rng)
        degraded = apply_faults(field, faults, 40.0).field
        ids = degraded.beacon_ids
        assert 0 < len(ids) < 40 and ids[-1] - ids[0] >= len(ids)  # gaps
        realization = BeaconNoiseRealization(RANGE, noise, 21, cm_thresh=0.9)
        assert_matches_oracle(realization, grid, degraded)

    def test_drifted_beacons_off_the_terrain(self):
        """Drift moves beacons with no clamp; some leave the terrain."""
        grid = MeasurementGrid(100.0, 1.0)
        rng = np.random.default_rng(8)
        field = BeaconField.from_positions(
            np.vstack([rng.uniform(0, 100, (20, 2)), [(0.5, 0.5), (99.5, 99.5)]])
        )
        faults = DriftFault(rate=3.0, max_drift=12.0).realize(rng)
        drifted = apply_faults(field, faults, 100.0).field
        positions = drifted.positions()
        assert ((positions < 0) | (positions > 100)).any()
        realization = BeaconNoiseRealization(RANGE, 0.5, 13, cm_thresh=None)
        assert_matches_oracle(realization, grid, drifted)

    @pytest.mark.parametrize("noise", NOISES)
    def test_same_id_probes(self, noise):
        """K candidates under one id, as the greedy-k and refined scans
        probe them, equal the dense connectivity of those probes."""
        grid = MeasurementGrid(100.0, 1.0)
        realization = BeaconNoiseRealization(RANGE, noise, 31, cm_thresh=0.9)
        rng = np.random.default_rng(2)
        candidates = np.vstack(
            [grid.points()[::97], rng.uniform(-10, 110, (16, 2))]
        )
        probes = [Beacon(57, Point(float(x), float(y))) for x, y in candidates]
        columns = candidate_columns(realization, grid, 57, candidates)
        assert columns.T.flags.c_contiguous
        assert_bits_equal(columns, realization.connectivity(grid.points(), probes))

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    @pytest.mark.parametrize("noise", NOISES)
    def test_stacked_worlds_with_different_seeds(self, noise, granularity):
        grid = MeasurementGrid(100.0, 2.5)
        rng = np.random.default_rng(12)
        seeds = rng.integers(0, 2**63, 5, dtype=np.int64).astype(np.uint64)
        ids = np.stack([rng.permutation(40)[:9] for _ in seeds]).astype(np.uint64)
        positions = rng.uniform(-10, 110, (5, 9, 2))
        realizations = [
            BeaconNoiseRealization(RANGE, noise, int(s), granularity, 0.9)
            for s in seeds
        ]
        stacked = windowed_connectivity(
            batch_params_from_realization(realizations[0]),
            seeds,
            ids,
            positions,
            grid,
        )
        assert stacked.flags.c_contiguous
        assert stacked.shape == (5, grid.num_points, 9)
        for t, realization in enumerate(realizations):
            field = BeaconField(
                [Beacon(int(i), Point(*p)) for i, p in zip(ids[t], positions[t])]
            )
            assert_bits_equal(
                stacked[t], realization.connectivity(grid.points(), field)
            )

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    def test_warm_worlds_matches_oracle(self, noise):
        """The stacked pass ``warm_worlds`` prewarms equals the dense path."""
        config = ExperimentConfig(
            side=30.0, radio_range=10.0, step=5.0, num_grids=16,
            beacon_counts=(4, 8), noise_levels=(noise,), fields_per_density=3,
            seed=7,
        )
        localizer = CentroidLocalizer(config.side)
        worlds = [
            build_world(config, noise, count, index, localizer=localizer)
            for count in config.beacon_counts
            for index in range(config.fields_per_density)
        ]
        assert warm_worlds(worlds) == len(worlds)
        for world in worlds:
            assert_bits_equal(
                world.connectivity(),
                world.realization.connectivity(world.points(), world.field),
            )


class TestHashFold:
    @given(
        seed=st.integers(0, 2**32 - 1),
        prefix=st.integers(1, 4),
        continuation=st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_prefix_fold_then_continuation_equals_one_shot(
        self, seed, prefix, continuation
    ):
        rng = np.random.default_rng(seed)
        keys = [
            rng.integers(0, 2**64, size=6, dtype=np.uint64)
            for _ in range(prefix + continuation)
        ]
        folded = functools.reduce(
            splitmix_fold, keys[prefix:], mix64(*keys[:prefix])
        )
        assert_bits_equal(folded, mix64(*keys))

    def test_broadcast_continuation(self):
        """The kernel's shape: one prefix per beacon, continued per point."""
        rng = np.random.default_rng(3)
        seeds = rng.integers(0, 2**64, size=(4, 1, 1), dtype=np.uint64)
        qx = rng.integers(0, 2**64, size=(1, 5, 1), dtype=np.uint64)
        qy = rng.integers(0, 2**64, size=(1, 1, 6), dtype=np.uint64)
        tag = np.uint64(0xBEAC02)
        folded = splitmix_fold(splitmix_fold(mix64(seeds, tag), qx), qy)
        assert_bits_equal(folded, mix64(seeds, tag, qx, qy))
