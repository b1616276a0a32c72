"""The windowed candidate peek against the O(P) chain it replaces.

A candidate beacon changes the centroid sums and counts only at the lattice
points that hear it, so under a pointwise unlocalized policy
(:attr:`repro.localization.UnlocalizedPolicy.pointwise`) the peek behind
``errors_with_candidate``, ``evaluate_candidate`` and ``scan_add_candidates``
recomputes LE on those points alone.  Every test here holds both faces to
the bytes of the O(P) chain — ``CentroidState.with_beacon(column, p)`` →
``estimates`` → ``localization_errors`` → ``np.nanmean`` — on a column from
the dense connectivity path, which shares no code with the windowed kernel
or ``candidate_columns``.  ``NEAREST_BEACON`` and non-centroid localizers
still run the O(P) path and are held to it too.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CentroidLocalizer, TrialWorld, UnlocalizedPolicy
from repro.faults import CrashFault, DriftFault, apply_faults
from repro.field import Beacon, BeaconField, random_uniform_field
from repro.geometry import MeasurementGrid, Point
from repro.localization import (
    ErrorSurface,
    WeightedCentroidLocalizer,
    localization_errors,
)
from repro.obs import MetricsRegistry, disable_metrics, enable_metrics
from repro.radio import BeaconNoiseRealization
from repro.sim.incremental import FieldState
from repro.sim.kernels import candidate_columns

SIDE = 100.0
RANGE = 15.0
STEP = 2.5
NOISES = [0.0, 0.1, 0.3, 0.5]
GRID = MeasurementGrid(SIDE, STEP)

# Corners, edges, lattice points, half-step ties between lattice points,
# just off the terrain (still heard) and far off it (heard nowhere).
CANDIDATES = np.array(
    [
        (0.0, 0.0),
        (SIDE, 0.0),
        (0.0, SIDE),
        (SIDE, SIDE),
        (0.0, 37.5),
        (SIDE, 12.3),
        (50.0, 0.0),
        (61.1, SIDE),
        (25.0, 50.0),
        (72.5, 17.5),
        (26.25, 48.75),
        (51.25, 51.25),
        (-3.0, 50.0),
        (SIDE + 2.0, -2.0),
        (-40.0, 50.0),
        (150.0, 150.0),
    ]
)
FAR_OFF = [(-40.0, 50.0), (150.0, 150.0)]


def assert_bits_equal(a, b):
    """Equality down to the byte — NaNs compare equal, -0.0 != 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def dense_column(world, p) -> np.ndarray:
    """The candidate's column from the dense path, under the id it gets."""
    probe = Beacon(world.field.next_beacon_id, Point(float(p[0]), float(p[1])))
    return world.realization.connectivity(world.points(), [probe])[:, 0]


def oracle_errors(world, p) -> np.ndarray:
    """The O(P) chain on the whole lattice."""
    p = np.asarray(p, dtype=float)
    column = dense_column(world, p)
    positions = np.vstack([world.field.positions(), p])
    if not isinstance(world.localizer, CentroidLocalizer):
        conn = np.column_stack([world.connectivity(), column])
        estimates = world.localizer.estimate(conn, positions, world.points())
        return localization_errors(estimates, world.points())
    state = world.centroid_state().with_beacon(column, p)
    estimates = state.estimates(
        world.localizer.policy,
        points=world.points(),
        beacon_positions=positions,
        terrain_side=world.localizer.terrain_side,
    )
    return localization_errors(estimates, world.points())


def oracle_mean(errors) -> float:
    return float("nan") if np.isnan(errors).all() else float(np.nanmean(errors))


def oracle_means(world, candidates) -> np.ndarray:
    return np.array(
        [oracle_mean(oracle_errors(world, p)) for p in candidates], dtype=float
    )


def make_world(field, noise, policy, *, seed=7) -> TrialWorld:
    realization = BeaconNoiseRealization(RANGE, noise, seed, cm_thresh=0.9)
    return TrialWorld(
        field, realization, GRID, None, CentroidLocalizer(SIDE, policy)
    )


def fields():
    """0, 1, 20 and 240 beacons, plus a crash-masked and a drifted field."""
    rng = np.random.default_rng(2001)
    full = random_uniform_field(240, SIDE, rng)
    crashed = apply_faults(full, CrashFault(40.0).realize(rng), 40.0).field
    drifted = apply_faults(
        random_uniform_field(20, SIDE, rng), DriftFault(3.0, 12.0).realize(rng), 10.0
    ).field
    assert 0 < len(crashed) < 240
    return {
        "empty": BeaconField.from_positions(np.zeros((0, 2))),
        "one": BeaconField.from_positions([(40.0, 60.0)]),
        "twenty": random_uniform_field(20, SIDE, rng),
        "full": full,
        "crashed": crashed,
        "drifted": drifted,
    }


FIELDS = fields()


def check_both_faces(world, candidates) -> None:
    """Scan means, peeks and §4.1 gains equal the O(P) chain's bytes."""
    reference = [oracle_errors(world, p) for p in candidates]
    means = world.scan_add_candidates(candidates)
    assert_bits_equal(means, np.array([oracle_mean(e) for e in reference]))
    base = ErrorSurface(world.grid, world.errors())
    for p, errors in zip(candidates[::5], reference[::5]):
        assert_bits_equal(world.errors_with_candidate(p), errors)
        after = ErrorSurface(world.grid, errors)
        gain = world.evaluate_candidate(p)
        assert_bits_equal(
            np.array(gain),
            np.array(
                [
                    base.mean_error() - after.mean_error(),
                    base.median_error() - after.median_error(),
                ]
            ),
        )


class TestAgainstTheOPChain:
    @pytest.mark.parametrize("noise", NOISES)
    @pytest.mark.parametrize("policy", list(UnlocalizedPolicy), ids=lambda p: p.value)
    @pytest.mark.parametrize("name", list(FIELDS))
    def test_both_faces_match(self, name, policy, noise):
        world = make_world(FIELDS[name], noise, policy)
        check_both_faces(world, CANDIDATES)
        check_both_faces(FieldState.from_world(world), CANDIDATES[::3])

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    @pytest.mark.parametrize("policy", list(UnlocalizedPolicy), ids=lambda p: p.value)
    def test_paper_geometry(self, policy, noise):
        """Side 100 m, R 15 m, 1 m step: 10,201 points, 120 beacons."""
        grid = MeasurementGrid(SIDE, 1.0)
        rng = np.random.default_rng(5)
        world = TrialWorld(
            random_uniform_field(120, SIDE, rng),
            BeaconNoiseRealization(RANGE, noise, 11, cm_thresh=0.9),
            grid,
            None,
            CentroidLocalizer(SIDE, policy),
        )
        check_both_faces(world, np.vstack([grid.points()[::1500], CANDIDATES]))

    @pytest.mark.parametrize("policy", list(UnlocalizedPolicy), ids=lambda p: p.value)
    def test_unheard_candidate_keeps_the_base_mean(self, policy):
        world = make_world(FIELDS["twenty"], 0.3, policy)
        base_mean, _ = world.base_stats()
        assert not dense_column(world, FAR_OFF[0]).any()
        means = world.scan_add_candidates(FAR_OFF)
        assert_bits_equal(means, np.full(2, base_mean))
        assert_bits_equal(world.errors_with_candidate(FAR_OFF[1]), world.errors())


class TestEdgeCases:
    def test_exclude_all_nan_result(self):
        """An empty EXCLUDE field stays all-NaN under an unheard candidate:
        NaN, with no RuntimeWarning, next to candidates that are heard."""
        world = make_world(FIELDS["empty"], 0.3, UnlocalizedPolicy.EXCLUDE)
        candidates = np.array([FAR_OFF[0], (50.0, 50.0), FAR_OFF[1], (10.0, 90.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            means = world.scan_add_candidates(candidates)
            mean_gain, _ = world.evaluate_candidate(FAR_OFF[0])
            only_unheard = world.scan_add_candidates(FAR_OFF)
        assert np.isnan(means[[0, 2]]).all() and not np.isnan(means[[1, 3]]).any()
        assert_bits_equal(means, oracle_means(world, candidates))
        assert np.isnan(mean_gain)
        assert_bits_equal(only_unheard, np.full(2, np.nan))

    @pytest.mark.parametrize("count", [0, 1, 33, 257])
    @pytest.mark.parametrize(
        "policy",
        [UnlocalizedPolicy.TERRAIN_CENTER, UnlocalizedPolicy.NEAREST_BEACON],
        ids=lambda p: p.value,
    )
    def test_candidate_counts_across_block_boundaries(self, count, policy):
        """Sub-blocks of 32 rows and chunks of 256 candidates."""
        world = make_world(FIELDS["twenty"], 0.5, policy)
        candidates = np.random.default_rng(count).uniform(-10.0, 110.0, (count, 2))
        means = world.scan_add_candidates(candidates)
        assert means.shape == (count,)
        assert_bits_equal(means, oracle_means(world, candidates))
        columns = candidate_columns(
            world.realization, world.grid, world.field.next_beacon_id, candidates
        )
        assert columns.shape == (GRID.num_points, count)
        assert columns.T.flags.c_contiguous

    def test_non_centroid_localizer_falls_back(self):
        registry = MetricsRegistry()
        enable_metrics(registry)
        try:
            field = FIELDS["twenty"]
            world = TrialWorld(
                field,
                BeaconNoiseRealization(RANGE, 0.3, 7, cm_thresh=0.9),
                GRID,
                None,
                WeightedCentroidLocalizer(SIDE, RANGE, alpha=1.0),
            )
            world.errors()
            before = registry.counter("incremental.fallback.full").value
            check_both_faces(world, CANDIDATES[:6])
            fallbacks = registry.counter("incremental.fallback.full").value - before
        finally:
            disable_metrics()
        # Six scanned candidates plus two peeks, each peek evaluated twice.
        assert fallbacks == 6 + 2 * 2


class TestRandomFields:
    @settings(max_examples=30, deadline=None)
    @given(
        positions=st.lists(
            st.tuples(
                st.floats(-10.0, 110.0, allow_nan=False),
                st.floats(-10.0, 110.0, allow_nan=False),
            ),
            max_size=40,
        ),
        candidates=st.lists(
            st.tuples(
                st.floats(-30.0, 130.0, allow_nan=False),
                st.floats(-30.0, 130.0, allow_nan=False),
            ),
            min_size=1,
            max_size=12,
        ),
        noise=st.sampled_from(NOISES),
        policy=st.sampled_from(list(UnlocalizedPolicy)),
        seed=st.integers(0, 2**32),
    )
    def test_random_field_matches_the_op_chain(
        self, positions, candidates, noise, policy, seed
    ):
        field = BeaconField.from_positions(
            np.asarray(positions, dtype=float).reshape(-1, 2)
        )
        world = make_world(field, noise, policy, seed=seed)
        check_both_faces(world, np.asarray(candidates, dtype=float))
