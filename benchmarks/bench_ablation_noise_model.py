"""Ablation A5 — interpretations of the §4.2.1 noise model.

DESIGN.md documents the ambiguity: the paper's formula
``dist ≤ R(1 + u·nf(B))`` read symmetrically (u per link or per beacon)
produces only a ≈5 % error increase at Noise = 0.5, far below the reported
"up to 33 %"; adding the paper's own §2.2 CM_thresh message-threshold rule
(our default, CM_thresh = 0.9) restores the reported magnitudes.  This bench
measures all three readings side by side.
"""

import numpy as np

from repro.radio import BeaconNoiseModel
from repro.sim import Curve, CurveSet, build_world, mean_error_curve


READINGS = (
    ("symmetric-pair", dict(u_granularity="pair", cm_thresh=None)),
    ("symmetric-beacon", dict(u_granularity="beacon", cm_thresh=None)),
    ("cmthresh-0.9", dict(u_granularity="pair", cm_thresh=0.9)),
)


def test_ablation_noise_model_reading(benchmark, config, emit):
    cfg = config.with_fields(max(config.fields_per_density // 2, 5))

    def run():
        curves = []
        for label, kwargs in READINGS:
            def factory(noise, _kw=kwargs):
                return BeaconNoiseModel(cfg.radio_range, noise, **_kw)

            # Custom model families run outside the sweep driver: one world
            # per (count, field) cell, reduced the way the driver reduces.
            samples = [
                np.array([
                    build_world(cfg, 0.5, count, i, model_factory=factory)
                    .error_surface()
                    .mean_error()
                    for i in range(cfg.fields_per_density)
                ])
                for count in cfg.beacon_counts
            ]
            curves.append(
                Curve.from_samples(
                    label, cfg.beacon_counts, cfg.densities(), samples,
                    confidence=cfg.confidence,
                )
            )
        ideal = mean_error_curve(cfg, 0.0)
        curves.insert(0, Curve("ideal", ideal.counts, ideal.densities,
                               ideal.values, ideal.ci_half_widths, ideal.num_samples))
        return curves

    curves = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_noise_model",
        CurveSet("A5: mean error at Noise=0.5 under three model readings", curves),
    )

    by_label = {c.label: c for c in curves}
    ideal_low = by_label["ideal"].values[1]
    pair_low = by_label["symmetric-pair"].values[1]
    thresh_low = by_label["cmthresh-0.9"].values[1]
    # Symmetric reading barely moves the curve; threshold reading moves it
    # decisively more (the paper reports up to +33 %).
    assert abs(pair_low - ideal_low) < 0.15 * ideal_low
    assert (thresh_low - ideal_low) > 2.0 * abs(pair_low - ideal_low)
