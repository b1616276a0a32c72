"""Unit tests for build_world and the Figure 4–9 sweep drivers (the §4 methodology)."""

import numpy as np
import pytest

from repro.placement import GridPlacement, MaxPlacement, RandomPlacement
from repro.radio import BeaconNoiseModel
from repro.sim import build_world, mean_error_curve, placement_improvement_curves


class TestBuildWorld:
    def test_reproducible(self, tiny_config):
        a = build_world(tiny_config, 0.3, 20, 1)
        b = build_world(tiny_config, 0.3, 20, 1)
        assert np.array_equal(a.field.positions(), b.field.positions())
        assert np.array_equal(a.connectivity(), b.connectivity())

    def test_field_geometry_shared_across_noise(self, tiny_config):
        ideal = build_world(tiny_config, 0.0, 20, 2)
        noisy = build_world(tiny_config, 0.3, 20, 2)
        assert np.array_equal(ideal.field.positions(), noisy.field.positions())

    def test_different_field_index_differs(self, tiny_config):
        a = build_world(tiny_config, 0.0, 20, 0)
        b = build_world(tiny_config, 0.0, 20, 1)
        assert not np.array_equal(a.field.positions(), b.field.positions())

    def test_count_respected(self, tiny_config):
        assert len(build_world(tiny_config, 0.0, 40, 0).field) == 40

    def test_custom_model_factory(self, tiny_config):
        def factory(noise):
            return BeaconNoiseModel(tiny_config.radio_range, noise, u_granularity="beacon")

        world = build_world(tiny_config, 0.3, 20, 0, model_factory=factory)
        assert world.connectivity().shape == (tiny_config.num_measurement_points, 20)


class TestMeanErrorCurve:
    def test_shape_and_labels(self, tiny_config):
        curve = mean_error_curve(tiny_config, 0.0)
        assert curve.label == "Ideal"
        assert len(curve) == len(tiny_config.beacon_counts)
        assert curve.counts == tiny_config.beacon_counts

    def test_noise_label(self, tiny_config):
        assert mean_error_curve(tiny_config, 0.3).label == "Noise=0.3"

    def test_error_decreases_with_density(self, tiny_config):
        curve = mean_error_curve(tiny_config.with_fields(5), 0.0)
        assert curve.values[0] > curve.values[-1]

    def test_ci_nonnegative_and_sane(self, tiny_config):
        curve = mean_error_curve(tiny_config, 0.0)
        assert all(h >= 0 for h in curve.ci_half_widths)
        assert all(n == tiny_config.fields_per_density for n in curve.num_samples)

    def test_progress_callback_invoked(self, tiny_config):
        messages = []
        mean_error_curve(tiny_config, 0.0, progress=messages.append)
        assert len(messages) == len(tiny_config.beacon_counts)

    def test_deterministic(self, tiny_config):
        a = mean_error_curve(tiny_config, 0.3)
        b = mean_error_curve(tiny_config, 0.3)
        assert a.values == b.values


class TestPlacementImprovementCurves:
    @pytest.fixture
    def algorithms(self, tiny_config):
        return [
            RandomPlacement(),
            MaxPlacement(),
            GridPlacement(tiny_config.grid_layout()),
        ]

    def test_curve_sets_structure(self, tiny_config, algorithms):
        mean_set, median_set = placement_improvement_curves(tiny_config, 0.0, algorithms)
        assert mean_set.labels() == ["random", "max", "grid"]
        assert median_set.labels() == ["random", "max", "grid"]
        assert mean_set.meta["metric"] == "mean"

    def test_duplicate_names_rejected(self, tiny_config):
        with pytest.raises(ValueError, match="unique"):
            placement_improvement_curves(
                tiny_config, 0.0, [RandomPlacement(), RandomPlacement()]
            )

    def test_deterministic(self, tiny_config, algorithms):
        a, _ = placement_improvement_curves(tiny_config, 0.0, algorithms)
        b, _ = placement_improvement_curves(tiny_config, 0.0, algorithms)
        for ca, cb in zip(a.curves, b.curves):
            assert ca.values == cb.values

    def test_grid_beats_random_at_low_density(self, tiny_config, algorithms):
        config = tiny_config.with_counts([8]).with_fields(10)
        mean_set, _ = placement_improvement_curves(config, 0.0, algorithms)
        assert mean_set.curve("grid").values[0] > mean_set.curve("random").values[0]

    def test_progress_callback(self, tiny_config, algorithms):
        messages = []
        placement_improvement_curves(
            tiny_config.with_counts([8]), 0.0, algorithms, progress=messages.append
        )
        assert messages and "gains" in messages[0]
