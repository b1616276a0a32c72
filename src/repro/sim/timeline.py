"""Time-series fault sweeps: error-vs-time curves through the resilient engine.

The paper evaluates placement quality as error-vs-*density* curves; this
module produces the temporal analogue — localization error vs. *time* as
beacons die under :mod:`repro.faults` schedules — which is the evaluation
substrate fault-aware placement needs.  It is a second sweep *kind* on the
same resilient machinery (:func:`repro.sim.resilient.run_cells`): cells are
journaled, retried, NaN-degraded and executable on any backend
(:mod:`repro.sim.executors`), which is the proof that the cell/journal
abstraction is sweep-agnostic.

One cell is ``(fault model, trial, time index)``:

1. rebuild the fault model from its JSON spec (the only model state that
   crosses the wire — see :func:`repro.faults.fault_model_from_spec`),
2. draw its :class:`~repro.faults.FaultRealization` from a seed derived
   purely from ``(config.seed, model name, trial)`` — deterministic on any
   worker, and cached per process so the time cells of one trial replay the
   same drawn outage pattern without re-realizing
   (:func:`repro.sim.executors.cache.cached_fault_realization`),
3. snapshot the trial's field at ``times[time index]`` with
   :func:`repro.faults.apply_faults` and localize the full measurement grid
   on the surviving beacons,
4. return mean and upper-percentile localization error plus the surviving
   beacon count.  When *every* beacon is down there is no localization
   service at all — the cell degrades to NaN (counted by the
   ``timeline.all_dead`` metric) rather than reporting the localizer's
   unlocalized-policy fallback as if it were service.

Aggregation produces one :class:`~repro.sim.results.TimeCurve` per
(model, metric) with percentile-bootstrap intervals — error under
degradation is skewed, so symmetric t-intervals would lie — drawn from
seed-derived generators, making the curves (values *and* CIs) bit-identical
across Serial/Pool/Socket executors and across resumed runs.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ..faults import FaultModel, apply_faults, fault_model_from_spec
from ..field import random_uniform_field
from ..obs import get_metrics
from .config import ExperimentConfig
from .executors import CellExecutor
from .executors.cache import (
    cached_fault_realization,
    cached_grid,
    cached_layout,
    cached_localizer,
)
from .resilient import (
    RetryPolicy,
    _canon_key,
    _journal_at,
    run_cells,
    sweep_fingerprint,
)
from .results import CurveSet, TimeCurve
from .rng import derive_rng
from .sweep import default_model_factory
from .trial import TrialWorld

__all__ = ["TimelineConfig", "fault_error_timeline", "timeline_models_from_specs"]

ProgressFn = Callable[[str], None]


@dataclass(frozen=True)
class TimelineConfig:
    """Parameters of one error-vs-time sweep.

    Attributes:
        times: snapshot times (seconds since deployment), in display order
            (monotone input not required; cell keys carry the time *index*).
        beacons: pristine field size of every trial.
        noise: propagation noise level for every cell.
        trials: independent random fields per fault model (each trial pairs
            one field with one drawn fault realization; every snapshot time
            sees the same pair).
        percentile: upper-tail LE percentile tracked alongside the mean
            (the paper's mean hides the outage tail).
        resamples: bootstrap iterations behind each confidence interval.
    """

    times: tuple[float, ...]
    beacons: int = 40
    noise: float = 0.0
    trials: int = 10
    percentile: float = 90.0
    resamples: int = 500

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        if not self.times:
            raise ValueError("times must not be empty")
        if any(t < 0.0 for t in self.times):
            raise ValueError(f"times must be non-negative, got {self.times}")
        if len(set(self.times)) != len(self.times):
            raise ValueError(f"times must be distinct, got {self.times}")
        if self.beacons < 1:
            raise ValueError(f"beacons must be >= 1, got {self.beacons}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0.0 < self.percentile < 100.0:
            raise ValueError(
                f"percentile must be in (0, 100), got {self.percentile}"
            )
        if self.resamples < 1:
            raise ValueError(f"resamples must be >= 1, got {self.resamples}")


def _spec_token(spec: dict) -> str:
    """A hashable canonical form of a model spec (cache keys)."""
    return json.dumps(spec, sort_keys=True)


def _timeline_cell(args) -> dict:
    """One ``(model, trial, time index)`` cell — pure in the config seed.

    Module-level and reconstructible from plain-JSON args, so it is
    picklable for the pool backend and importable by reference for socket
    workers; the fault model travels as its spec, never as an object.
    """
    config, timeline, name, spec, trial, time_index = args
    metrics = get_metrics()
    metrics.counter("timeline.cells").inc()
    realization = cached_fault_realization(
        (config.seed, name, _spec_token(spec), trial),
        lambda: fault_model_from_spec(spec).realize(
            derive_rng(config.seed, "timeline-faults", name, trial)
        ),
    )
    field_rng = derive_rng(config.seed, "field", timeline.beacons, trial)
    field = random_uniform_field(timeline.beacons, config.side, field_rng)
    degraded = apply_faults(field, realization, timeline.times[time_index])
    if degraded.num_alive == 0:
        # No surviving beacon means no localization service; reporting the
        # unlocalized-policy fallback error here would dress total outage
        # up as degraded service.
        metrics.counter("timeline.all_dead").inc()
        return {"mean": float("nan"), "upper": float("nan"), "alive": 0}
    world_rng = derive_rng(
        config.seed, "world", timeline.noise, timeline.beacons, trial
    )
    world = TrialWorld(
        field=degraded.field,
        realization=default_model_factory(config)(timeline.noise).realize(world_rng),
        grid=cached_grid(config.side, config.step),
        layout=cached_layout(config.side, config.radio_range, config.num_grids),
        localizer=cached_localizer(config.side, config.policy),
    )
    errors = world.errors()
    return {
        "mean": float(np.mean(errors)),
        "upper": float(np.percentile(errors, timeline.percentile)),
        "alive": degraded.num_alive,
    }


def _named_models(models) -> list[tuple[str, FaultModel]]:
    if isinstance(models, Mapping):
        pairs = [(str(name), model) for name, model in models.items()]
    else:
        pairs = [(str(name), model) for name, model in models]
    if not pairs:
        raise ValueError("fault_error_timeline needs at least one fault model")
    names = [name for name, _ in pairs]
    if len(set(names)) != len(names):
        raise ValueError(f"fault-model names must be unique, got {names}")
    return pairs


def timeline_models_from_specs(specs: Sequence[tuple]) -> list[tuple[str, FaultModel]]:
    """Rebuild a timeline's ``(name, model)`` list from ``(name, spec)`` pairs."""
    return [(str(name), fault_model_from_spec(spec)) for name, spec in specs]


def fault_error_timeline(
    config: ExperimentConfig,
    timeline: TimelineConfig,
    models,
    *,
    journal_path=None,
    policy: RetryPolicy | None = None,
    progress: ProgressFn | None = None,
    executor: CellExecutor | None = None,
) -> tuple[CurveSet, CurveSet]:
    """Per-fault-model error-vs-time curves through the resilient engine.

    Every cell is a pure function of ``(config.seed, model name, trial,
    time index)``, so the produced curves — bootstrap intervals included —
    are bit-identical across executors, worker counts and resumed runs.

    Args:
        config: terrain/propagation parameters (``fields_per_density`` and
            ``beacon_counts`` are unused; the timeline has its own axes).
        timeline: the time axis and trial parameters.
        models: ``{name: FaultModel}`` mapping or ``(name, model)`` pairs;
            names label the curves and key the cells.
        journal_path: JSONL checkpoint journal; an interrupted sweep
            resumes from it without recomputing finished cells.
        policy: per-cell retry/timeout policy.
        progress: optional status callback.
        executor: run cells on this backend (see :mod:`repro.sim.executors`);
            stays open for the caller to reuse.  ``None`` runs them
            in-process.

    Returns:
        ``(mean_set, upper_set)`` — two :class:`CurveSet` s over the time
        axis, one :class:`TimeCurve` per fault model each: mean LE and the
        ``timeline.percentile`` upper-tail LE.  Per-point coverage and mean
        surviving fraction land in each curve's ``meta``; the failed-cell
        total in the sets' ``meta["failed_cells"]``.
    """
    pairs = _named_models(models)
    specs = {name: model.spec() for name, model in pairs}
    fingerprint = sweep_fingerprint(
        "timeline",
        config,
        {
            "timeline": asdict(timeline),
            "models": [[name, specs[name]] for name, _ in pairs],
        },
    )
    jobs = [
        (
            (name, trial, time_index),
            (config, timeline, name, specs[name], trial, time_index),
        )
        for name, _ in pairs
        for trial in range(timeline.trials)
        for time_index in range(len(timeline.times))
    ]
    with _journal_at(journal_path, fingerprint) as journal:
        cells = run_cells(
            jobs,
            _timeline_cell,
            policy=policy,
            journal=journal,
            progress=progress,
            executor=executor,
        )

    num_times = len(timeline.times)
    mean_curves, upper_curves = [], []
    failed = 0
    for name, _ in pairs:
        mean_samples = np.empty((num_times, timeline.trials))
        upper_samples = np.empty((num_times, timeline.trials))
        alive = np.zeros((num_times, timeline.trials))
        for trial in range(timeline.trials):
            for time_index in range(num_times):
                value = cells[_canon_key((name, trial, time_index))]
                if value is None:
                    failed += 1
                    mean_samples[time_index, trial] = np.nan
                    upper_samples[time_index, trial] = np.nan
                    alive[time_index, trial] = np.nan
                else:
                    mean_samples[time_index, trial] = value["mean"]
                    upper_samples[time_index, trial] = value["upper"]
                    alive[time_index, trial] = value["alive"]
        with np.errstate(invalid="ignore"):
            alive_fraction = tuple(
                float(np.nanmean(alive[i])) / timeline.beacons
                if np.any(~np.isnan(alive[i]))
                else float("nan")
                for i in range(num_times)
            )

        def to_curve(samples, metric):
            # Seed-derived bootstrap streams: the intervals are as
            # reproducible as the point estimates, on every backend.
            curve = TimeCurve.from_samples(
                name,
                timeline.times,
                samples,
                confidence=config.confidence,
                resamples=timeline.resamples,
                rng_factory=lambda i: derive_rng(
                    config.seed, "timeline-bootstrap", metric, name, i
                ),
            )
            curve.meta["alive_fraction"] = alive_fraction
            return curve

        mean_curves.append(to_curve(mean_samples, "mean"))
        upper_curves.append(to_curve(upper_samples, "upper"))

    def to_set(curves, title):
        return CurveSet(
            title=title,
            curves=curves,
            meta={
                "noise": timeline.noise,
                "beacons": timeline.beacons,
                "trials": timeline.trials,
                "percentile": timeline.percentile,
                "failed_cells": failed,
            },
        )

    return (
        to_set(
            mean_curves,
            f"Mean localization error vs time (noise={timeline.noise:g})",
        ),
        to_set(
            upper_curves,
            f"p{timeline.percentile:g} localization error vs time "
            f"(noise={timeline.noise:g})",
        ),
    )
