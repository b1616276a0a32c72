"""The §4 world model: one deterministic world per sweep cell.

For every (beacon count, noise) cell the paper generates 1000 uniform-random
fields, runs each placement algorithm on every field, and reports means with
95 % confidence intervals.  :func:`build_world` is the (count, noise,
field-index) → world mapping behind that pipeline, a pure function of the
config seed so any slice of the sweep is reproducible in isolation.  The
drivers that run the cells and reduce them to curves live in
:mod:`repro.sim.resilient`:

* :func:`~repro.sim.mean_error_curve` — mean LE vs density (Figures 4 and 6);
* :func:`~repro.sim.placement_improvement_curves` — improvement in
  mean/median error vs density for a set of algorithms (Figures 5, 7, 8, 9).

Fields are shared across algorithms within a cell (as in the paper) and the
field *geometry* is shared across noise levels (a variance-reduction choice
the paper doesn't specify; it only sharpens the noise comparisons).
"""

from __future__ import annotations

from typing import Callable

from ..faults import FaultModel, apply_faults
from ..field import random_uniform_field
from ..obs import get_metrics, get_profile
from ..radio import BeaconNoiseModel, PropagationModel
from .config import ExperimentConfig
from .executors.cache import (
    cached_field,
    cached_grid,
    cached_layout,
    cached_localizer,
    cached_realization,
)
from .rng import derive_rng
from .trial import TrialWorld

__all__ = ["build_world", "default_model_factory"]


def default_model_factory(config: ExperimentConfig) -> Callable[[float], PropagationModel]:
    """The paper's model family: beacon-noise with the config's range."""

    def factory(noise: float) -> PropagationModel:
        return BeaconNoiseModel(config.radio_range, noise, cm_thresh=config.cm_thresh)

    return factory


def build_world(
    config: ExperimentConfig,
    noise: float,
    num_beacons: int,
    field_index: int,
    *,
    model_factory: Callable[[float], PropagationModel] | None = None,
    localizer=None,
    faults: FaultModel | None = None,
    fault_time: float = 0.0,
) -> TrialWorld:
    """The deterministic world for one cell replication.

    The beacon field depends only on ``(seed, count, field_index)`` — *not*
    on noise — so noise levels are compared on identical geometry.  The
    propagation realization depends on all of ``(seed, noise, count,
    field_index)``.

    With ``faults`` set, the field is snapshotted at ``fault_time`` through
    a fault realization derived from ``(seed, count, field_index)`` — the
    same degraded world regardless of noise level or which sweep slice runs
    it.  Surviving beacons keep their ids, so their propagation links are
    identical to the pristine world's.
    """
    with get_profile().section("world.build"):
        get_metrics().counter("sweep.worlds_built").inc()

        def build_field():
            field_rng = derive_rng(config.seed, "field", num_beacons, field_index)
            return random_uniform_field(num_beacons, config.side, field_rng)

        # Fields and realizations are immutable pure functions of their
        # substream identity — cache hits replay the exact object a fresh
        # derivation would produce (reuse across noise levels, fault times
        # and retries).
        field = cached_field(
            (config.seed, num_beacons, field_index, config.side), build_field
        )
        if faults is not None:
            fault_rng = derive_rng(config.seed, "faults", num_beacons, field_index)
            field = apply_faults(field, faults.realize(fault_rng), fault_time).field

        def build_realization():
            factory = default_model_factory(config) if model_factory is None else model_factory
            world_rng = derive_rng(config.seed, "world", noise, num_beacons, field_index)
            return factory(noise).realize(world_rng)

        if model_factory is None:
            realization = cached_realization(
                (
                    config.seed,
                    noise,
                    num_beacons,
                    field_index,
                    config.radio_range,
                    config.cm_thresh,
                ),
                build_realization,
            )
        else:
            # Custom model families are not identifiable by config constants;
            # realize them fresh rather than risk a stale cache hit.
            realization = build_realization()
        # Lattice, layout and localizer depend only on config constants;
        # the process-local cache builds them once per worker instead of
        # once per cell (all three are frozen/immutable, so sharing them
        # across cells cannot change results).
        if localizer is None:
            localizer = cached_localizer(config.side, config.policy)
        return TrialWorld(
            field=field,
            realization=realization,
            grid=cached_grid(config.side, config.step),
            layout=cached_layout(config.side, config.radio_range, config.num_grids),
            localizer=localizer,
        )
