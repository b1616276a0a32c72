"""Multiprocess sweeps through the driver's ``workers=`` pool path."""

from repro.sim import mean_error_curve


class TestParallelMeanError:
    def test_two_workers_match_serial(self, tiny_config):
        """Determinism survives a driver-built pool: named streams, no
        shared state."""
        serial = mean_error_curve(tiny_config, 0.0)
        pooled = mean_error_curve(tiny_config, 0.0, workers=2)
        assert pooled.label == serial.label
        assert pooled.values == serial.values
        assert pooled.ci_half_widths == serial.ci_half_widths

    def test_label_default(self, tiny_config):
        assert mean_error_curve(tiny_config, 0.0, workers=1).label == "Ideal"
