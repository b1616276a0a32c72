"""Controller-on vs controller-off recovery sweeps on the resilient engine.

One cell is ``(fault model, arm, trial)`` — a whole monitored walk along the
timeline, because the controller's state (roster, budget, hysteresis arm) is
sequential in time.  The walk itself is pure in ``(config.seed, model name,
trial)`` and the controller travels as its JSON spec inside the cell args,
so cells journal, retry, resume and run bit-identically on every executor
backend — the same contract as :func:`repro.sim.timeline.fault_error_timeline`,
whose values the ``off`` arm reproduces exactly.

Aggregation yields four :class:`~repro.sim.results.CurveSet` s (mean/upper ×
on/off) with seed-derived bootstrap intervals, per-curve recovery metrics
(:meth:`~repro.sim.results.TimeCurve.time_to_recover`,
:meth:`~repro.sim.results.TimeCurve.area_under_degradation` against the
controller's threshold) stashed in curve ``meta``, and the full per-trial
decision logs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from ..sim.config import ExperimentConfig
from ..sim.executors import CellExecutor
from ..sim.resilient import (
    RetryPolicy,
    _canon_key,
    _journal_at,
    run_cells,
    sweep_fingerprint,
)
from ..sim.results import CurveSet, TimeCurve
from ..sim.rng import derive_rng
from ..sim.timeline import TimelineConfig, _named_models
from .controller import ControllerConfig, run_controller_timeline

__all__ = ["SelfHealResult", "selfheal_timeline"]

ProgressFn = Callable[[str], None]

_ARMS = ("off", "on")


@dataclass
class SelfHealResult:
    """Everything one self-healing sweep produced.

    Attributes:
        on_mean / on_upper: per-model mean and upper-percentile LE curves
            with the controller active.
        off_mean / off_upper: the matching monitor-only baseline curves
            (same fields, same fault realizations — a paired comparison).
        decisions: ``{model name: [trial 0 log, trial 1 log, ...]}`` —
            each log is the ordered list of decision dicts the controller
            emitted for that trial.
        repairs: total repair actions per model (all trials).
        added: total beacons added per model (all trials).
        moved: total beacons redeployed per model (all trials).
    """

    on_mean: CurveSet
    on_upper: CurveSet
    off_mean: CurveSet
    off_upper: CurveSet
    decisions: dict = field(default_factory=dict)
    repairs: dict = field(default_factory=dict)
    added: dict = field(default_factory=dict)
    moved: dict = field(default_factory=dict)


def _selfheal_cell(args) -> dict:
    """One ``(model, arm, trial)`` walk — module-level for pool/socket workers."""
    config, timeline, name, spec, controller_spec, trial = args
    return run_controller_timeline(
        config, timeline, name, spec, controller_spec, trial
    )


def selfheal_timeline(
    config: ExperimentConfig,
    timeline: TimelineConfig,
    models,
    controller: ControllerConfig,
    *,
    journal_path=None,
    policy: RetryPolicy | None = None,
    progress: ProgressFn | None = None,
    executor: CellExecutor | None = None,
) -> SelfHealResult:
    """Paired controller-on/off recovery curves through the resilient engine.

    Args:
        config: terrain/propagation parameters.
        timeline: the time axis and trial parameters (shared by both arms).
        models: ``{name: FaultModel}`` mapping or ``(name, model)`` pairs.
        controller: the repair policy; its :meth:`~ControllerConfig.spec`
            is hashed into the sweep fingerprint, so changing any threshold
            invalidates stale journals instead of silently mixing runs.
        journal_path: JSONL checkpoint journal (resumable).
        policy: per-cell retry/timeout policy.
        progress: optional status callback.
        executor: run cells on this backend; stays open for the caller.
            ``None`` runs them in-process.

    Returns:
        A :class:`SelfHealResult`.  Curves carry ``meta["alive_fraction"]``
        (mean surviving count over the *designed* field size — it may
        exceed 1.0 after repairs), ``meta["time_to_recover"]`` and
        ``meta["area_under_degradation"]`` computed against the
        controller's mean threshold.
    """
    pairs = _named_models(models)
    specs = {name: model.spec() for name, model in pairs}
    fingerprint = sweep_fingerprint(
        "selfheal",
        config,
        {
            "timeline": asdict(timeline),
            "models": [[name, specs[name]] for name, _ in pairs],
            "controller": controller.spec(),
        },
    )
    controller_spec = controller.spec()
    jobs = [
        (
            (name, arm, trial),
            (
                config,
                timeline,
                name,
                specs[name],
                controller_spec if arm == "on" else None,
                trial,
            ),
        )
        for name, _ in pairs
        for arm in _ARMS
        for trial in range(timeline.trials)
    ]
    with _journal_at(journal_path, fingerprint) as journal:
        cells = run_cells(
            jobs,
            _selfheal_cell,
            policy=policy,
            journal=journal,
            progress=progress,
            executor=executor,
        )

    num_times = len(timeline.times)
    curves = {arm: {"mean": [], "upper": []} for arm in _ARMS}
    decisions: dict[str, list] = {}
    repairs: dict[str, int] = {}
    added: dict[str, int] = {}
    moved: dict[str, int] = {}
    failed = 0
    for name, _ in pairs:
        decisions[name] = []
        repairs[name] = added[name] = moved[name] = 0
        for arm in _ARMS:
            mean_samples = np.full((num_times, timeline.trials), np.nan)
            upper_samples = np.full((num_times, timeline.trials), np.nan)
            alive = np.full((num_times, timeline.trials), np.nan)
            for trial in range(timeline.trials):
                value = cells[_canon_key((name, arm, trial))]
                if value is None:
                    failed += 1
                    if arm == "on":
                        decisions[name].append(None)
                    continue
                mean_samples[:, trial] = value["mean"]
                upper_samples[:, trial] = value["upper"]
                alive[:, trial] = value["alive"]
                if arm == "on":
                    decisions[name].append(value["decisions"])
                    repairs[name] += value["repairs"]
                    added[name] += value["added"]
                    moved[name] += value["moved"]
            with np.errstate(invalid="ignore"):
                alive_fraction = tuple(
                    float(np.nanmean(alive[i])) / timeline.beacons
                    if np.any(~np.isnan(alive[i]))
                    else float("nan")
                    for i in range(num_times)
                )

            def to_curve(samples, metric, arm=arm, alive_fraction=alive_fraction):
                curve = TimeCurve.from_samples(
                    name,
                    timeline.times,
                    samples,
                    confidence=config.confidence,
                    resamples=timeline.resamples,
                    rng_factory=lambda i: derive_rng(
                        config.seed, "selfheal-bootstrap", arm, metric, name, i
                    ),
                )
                curve.meta["alive_fraction"] = alive_fraction
                curve.meta["time_to_recover"] = curve.time_to_recover(
                    controller.mean_threshold
                )
                curve.meta["area_under_degradation"] = curve.area_under_degradation(
                    baseline=controller.mean_threshold
                )
                return curve

            curves[arm]["mean"].append(to_curve(mean_samples, "mean"))
            curves[arm]["upper"].append(to_curve(upper_samples, "upper"))

    def to_set(arm, metric, title):
        return CurveSet(
            title=title,
            curves=curves[arm][metric],
            meta={
                "noise": timeline.noise,
                "beacons": timeline.beacons,
                "trials": timeline.trials,
                "percentile": timeline.percentile,
                "controller": controller.spec() if arm == "on" else None,
                "failed_cells": failed,
            },
        )

    label = f"noise={timeline.noise:g}, threshold={controller.mean_threshold:g}"
    return SelfHealResult(
        on_mean=to_set("on", "mean", f"Mean LE vs time, controller on ({label})"),
        on_upper=to_set(
            "on",
            "upper",
            f"p{timeline.percentile:g} LE vs time, controller on ({label})",
        ),
        off_mean=to_set("off", "mean", f"Mean LE vs time, controller off ({label})"),
        off_upper=to_set(
            "off",
            "upper",
            f"p{timeline.percentile:g} LE vs time, controller off ({label})",
        ),
        decisions=decisions,
        repairs=repairs,
        added=added,
        moved=moved,
    )
