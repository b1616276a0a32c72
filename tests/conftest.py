"""Shared fixtures: small, fast worlds used across the suite."""

from __future__ import annotations

import contextlib
import warnings

import numpy as np
import pytest

from repro import (
    BeaconNoiseModel,
    CentroidLocalizer,
    ExperimentConfig,
    IdealDiskModel,
    MeasurementGrid,
    OverlappingGridLayout,
    TrialWorld,
    random_uniform_field,
)
from repro.sim.executors.base import _BATCH_PLANNERS

SIDE = 60.0
RANGE = 12.0
STEP = 3.0


@pytest.fixture(autouse=True)
def _suppress_oversubscription_warning():
    """Keep the suite warning-clean on small runners.

    Sweep tests build two-worker pools through ``make_executor`` and the
    CLI's ``--workers 2`` for real parallel coverage; on a 1-CPU runner
    :func:`repro.sim.validate_workers` legitimately warns that this
    oversubscribes the host.  The warning is the subject under test only in
    ``test_oversubscription_warns_but_allows`` — whose ``pytest.warns``
    installs its own always-record context inside this filter and is
    unaffected — everywhere else it is environment noise, so it must not
    fail a ``-W error::RuntimeWarning`` run.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", message=r".*oversubscribes this host.*", category=RuntimeWarning
        )
        yield


@pytest.fixture
def scalar_cells():
    """A context manager under which in-process cells run the scalar path.

    Inside ``with scalar_cells():`` the batch-planner registry is empty, so
    a :class:`~repro.sim.SerialExecutor` plans nothing and every cell
    evaluates its own world through the per-world ``TrialWorld`` code — the
    reference the batched kernels must match bit for bit.  The planners
    are restored on exit; spawned pool workers keep their own registry.
    """

    @contextlib.contextmanager
    def scope():
        saved = dict(_BATCH_PLANNERS)
        _BATCH_PLANNERS.clear()
        try:
            yield
        finally:
            _BATCH_PLANNERS.update(saved)

    return scope


@pytest.fixture
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_grid():
    """A 21×21-point lattice (side 60 m, step 3 m) — fast but non-trivial."""
    return MeasurementGrid(SIDE, STEP)


@pytest.fixture
def small_layout():
    """A 100-grid overlapping layout matching ``small_grid``."""
    return OverlappingGridLayout.for_radio_range(SIDE, RANGE, 100)


@pytest.fixture
def small_field(rng):
    """20 beacons uniform over the small terrain."""
    return random_uniform_field(20, SIDE, rng)


@pytest.fixture
def ideal_realization(rng):
    """An ideal-disk world at the small test range."""
    return IdealDiskModel(RANGE).realize(rng)


@pytest.fixture
def noisy_realization(rng):
    """A paper-noise world (Noise = 0.3) at the small test range."""
    return BeaconNoiseModel(RANGE, 0.3).realize(rng)


@pytest.fixture
def small_world(small_field, ideal_realization, small_grid, small_layout):
    """A complete trial world on the small terrain (ideal propagation)."""
    return TrialWorld(
        field=small_field,
        realization=ideal_realization,
        grid=small_grid,
        layout=small_layout,
        localizer=CentroidLocalizer(SIDE),
    )


@pytest.fixture
def tiny_config():
    """An ExperimentConfig scaled for fast sweep tests."""
    return ExperimentConfig(
        side=SIDE,
        radio_range=RANGE,
        step=STEP,
        num_grids=100,
        beacon_counts=(8, 20, 40),
        noise_levels=(0.0, 0.3),
        fields_per_density=3,
        seed=99,
    )
