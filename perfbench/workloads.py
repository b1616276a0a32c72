"""The four benchmark workloads, at paper geometry, through public entry points.

Geometry is the paper's Table 1: side 100 m, R 15 m, step 1 m (10201
lattice points), N_G 400.  Each workload

* ``setup()`` — fills the caches a user's first call fills and runs one
  warm-up unit on a seed no timed unit uses;
* ``groups(seed)`` — yields the timed work; a group is one noise level's
  pair of sweep curves, one greedy plan or one service session, and a run
  always stops on a group boundary so its unit mix stays whole;
* ``run_group(group)`` — runs it and returns one :class:`Unit` per unit;
* ``check()`` — verifies sampled outputs against an independent path;
* ``replay()`` — in a traced run, repeats a sample of the units
  in-process, so work done in pool workers or in the server shows up as
  layer spans;
* ``probe_group(seed)`` — one small group, traced during another
  workload's traced run to time the layers that workload does not run.

A unit is what a workload counts: a sweep cell, a greedy plan or a service
query.  The workload seed is the ``ExperimentConfig.seed`` /
``PlacementRequest.seed`` of every timed unit.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import re
import signal
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.placement import (
    GreedyKPlacement,
    GridPlacement,
    MaxPlacement,
    RandomPlacement,
)
from repro.sim import (
    ExperimentConfig,
    FieldState,
    PoolExecutor,
    batch_surface_stats,
    build_world,
    derive_rng,
    mean_error_curve,
    placement_improvement_curves,
    resilient_mean_error_curve,
    resilient_placement_improvement_curves,
    run_placement_trial,
    warm_worlds,
)

SIDE, RADIO_RANGE, NUM_GRIDS = 100.0, 15.0, 400
COUNTS = tuple(range(20, 241, 10))
NOISES = (0.0, 0.1, 0.3, 0.5)
#: Counts in an interleaved order (stride 10 mod 23) so any prefix of a run
#: mixes small and large fields instead of starting with the cheap ones.
COUNT_ORDER = tuple(COUNTS[(10 * k) % len(COUNTS)] for k in range(len(COUNTS)))
#: Seed of the warm-up unit; no timed unit derives from it.
WARMUP_SEED = 999_999_937
#: Sweep pass ``p`` runs with ``ExperimentConfig.seed = seed + p * PASS_STRIDE``.
PASS_STRIDE = 1_000_000
POOL_WORKERS = 2


@dataclass(frozen=True)
class Unit:
    """One counted unit: its class, latency (inf when it failed) and outcome."""

    cls: str
    seconds: float
    ok: bool


def group_rate(units) -> float:
    """Completed units per second spent in a group's units (0 if any failed)."""
    return sum(u.ok for u in units) / sum(u.seconds for u in units)


def paper_algorithms():
    """Random, Max and Grid as ``beaconplace reproduce`` builds them."""
    return [
        RandomPlacement(),
        MaxPlacement(),
        GridPlacement.paper_configuration(SIDE, RADIO_RANGE, NUM_GRIDS),
    ]


def vm_hwm_kib(pid) -> int:
    """Peak resident set (VmHWM) of a live process, in KiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def same_bytes(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


class Workload:
    name = ""
    #: Unit classes with their own latency medians (see README.md).
    classes: tuple[str, ...] = ()
    #: Whether a run holds enough unit latencies (100 or more) for a 90th
    #: percentile; where it does not, ``unit_p90_ms`` reports the median.
    tail = True
    #: The timed phase runs on until it holds at least this many units.
    min_units = 0
    spawn_s: float | None = None

    def __init__(self, out_dir: Path, recorder=None) -> None:
        self.out = out_dir
        self.recorder = recorder
        self.phase = "untraced"
        self.info: list[str] = []

    def unit_span(self, cls: str):
        if self.recorder is None or self.phase == "untraced":
            return nullcontext()
        return self.recorder.unit_span(cls, self.phase)

    def child_rss_kib(self) -> int:
        return 0

    def cache_status(self) -> tuple[int, int] | None:
        """Server FieldCache ``(hits, lookups)`` so far, where a server runs."""
        return None

    def replay(self) -> None:
        """In-process decomposition of work done in other processes."""

    def close(self) -> None:
        pass


# -- Sweeps ---------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCall:
    kind: str  # "mean" (Figures 4/6) or "improvement" (Figures 5, 7-9)
    noise: float
    config: ExperimentConfig


class _Sweep(Workload):
    """One replication of the Figures 4-9 grid per pass: for each noise
    level a mean-error curve and a Random/Max/Grid improvement curve over
    counts 20..240, one field per count (184 cells)."""

    cells_per_pass = 2 * len(NOISES) * len(COUNTS)
    #: A group's cells share one latency, and a run holds three to five groups.
    tail = False

    def __init__(self, out_dir, recorder=None):
        super().__init__(out_dir, recorder)
        self.algorithms = paper_algorithms()
        self.done: list[tuple[str, SweepCall, dict]] = []

    def groups(self, seed):
        """One group per noise level: its mean-error and improvement curves.

        Cells of the two kinds cost different amounts (the pool batches
        mean-error cells whole), so a cell's latency is its pair's wall time
        per cell; a run that stops between the two kinds would otherwise
        move the median from one kind's cost to the other's.
        """
        for p in itertools.count():
            config = ExperimentConfig(seed=seed + p * PASS_STRIDE, fields_per_density=1)
            for noise in NOISES:
                yield (SweepCall("mean", noise, config), SweepCall("improvement", noise, config))

    def probe_group(self, seed):
        """A noisy pair at 120 beacons over two fields (a cell per pool worker)."""
        config = ExperimentConfig(
            seed=seed, beacon_counts=(120,), fields_per_density=POOL_WORKERS
        )
        return (SweepCall("mean", 0.1, config), SweepCall("improvement", 0.1, config))

    def run_group(self, calls) -> list[Unit]:
        start = time.perf_counter()
        cells = []
        for call in calls:
            with self.unit_span(call.kind):
                try:
                    values = self.curves(call)
                except Exception as exc:  # noqa: BLE001 — the call's cells are lost
                    self.info.append(f"{call.kind} curve failed: {type(exc).__name__}: {exc}")
                    cells += [False] * len(COUNTS)
                    continue
            self.done.append((self.phase, call, values))
            # A cell that exhausted its retries degrades to NaN in every series.
            first = values["mean"] if call.kind == "mean" else values[self.algorithms[0].name][0]
            cells += [not math.isnan(v) for v in first]
        per_cell = (time.perf_counter() - start) / len(cells)
        return [Unit("cell", per_cell if ok else math.inf, ok) for ok in cells]

    @staticmethod
    def _values(result, call) -> dict:
        if call.kind == "mean":
            return {"mean": result.values}
        mean_set, median_set = result
        return {
            m.label: (m.values, d.values)
            for m, d in zip(mean_set.curves, median_set.curves)
        }

    def check(self) -> list[str]:
        """Sampled cells: the run's values, the scalar ``TrialWorld`` path and
        the batched ``warm_worlds`` path must agree to the byte."""
        errors = []
        for _, call, values in self.done[:4]:
            i = random.Random(call.config.seed + len(errors)).randrange(len(COUNTS))
            count, noise, config = COUNTS[i], call.noise, call.config
            scalar = build_world(config, noise, count, 0)
            batched = build_world(config, noise, count, 0)
            warm_worlds([batched])
            surface = scalar.error_surface()
            means, medians = batch_surface_stats([batched])
            where = f"{call.kind} cell (seed {config.seed}, noise {noise:g}, count {count})"
            if not same_bytes(surface.mean_error(), means[0]) or not same_bytes(
                surface.median_error(), medians[0]
            ):
                errors.append(f"{where}: scalar and batched mean/median differ")
            if call.kind == "mean":
                if not same_bytes(values["mean"][i], surface.mean_error()):
                    errors.append(f"{where}: curve value differs from the world's mean")
                continue

            def rng_for(name, _c=config, _n=noise, _k=count):
                return derive_rng(_c.seed, "alg", name, _n, _k, 0)

            for world in (scalar, batched):
                for outcome in run_placement_trial(world, self.algorithms, rng_for):
                    mean_values, median_values = values[outcome.algorithm]
                    if not (
                        same_bytes(mean_values[i], outcome.improvement_mean)
                        and same_bytes(median_values[i], outcome.improvement_median)
                    ):
                        errors.append(f"{where}: {outcome.algorithm} improvement differs")
        return errors


class SweepSerial(_Sweep):
    """In-process, as ``beaconplace reproduce`` runs without ``--workers``."""

    name = "sweep-serial"

    def setup(self) -> None:
        warm = ExperimentConfig(seed=WARMUP_SEED, beacon_counts=(20,), fields_per_density=1)
        mean_error_curve(warm, 0.0)
        placement_improvement_curves(warm, 0.0, self.algorithms)

    def curves(self, call: SweepCall) -> dict:
        if call.kind == "mean":
            return self._values(mean_error_curve(call.config, call.noise), call)
        return self._values(
            placement_improvement_curves(call.config, call.noise, self.algorithms), call
        )


class SweepPool(_Sweep):
    """The resilient curve functions on one 2-worker spawn pool with a journal, as
    ``beaconplace --executor pool --workers 2 --journal J reproduce`` runs."""

    name = "sweep-pool"

    def __init__(self, out_dir, recorder=None):
        super().__init__(out_dir, recorder)
        self.pool = None
        self.journals: dict[str, set[Path]] = {}

    def _journal(self, call: SweepCall) -> Path:
        # A fresh journal per phase: a replay must not resume from the run's.
        path = self.out / f"journal-{self.phase}-{call.config.seed}-{call.kind}.jsonl"
        self.journals.setdefault(self.phase, set()).add(path)
        return path

    def setup(self) -> None:
        start = time.perf_counter()
        self.pool = PoolExecutor(POOL_WORKERS)
        # One cell per worker, so both spawn and import before timing starts.
        warm = ExperimentConfig(
            seed=WARMUP_SEED, beacon_counts=(20,), fields_per_density=POOL_WORKERS
        )
        self.curves(SweepCall("mean", 0.0, warm))
        self.spawn_s = time.perf_counter() - start
        self.curves(SweepCall("improvement", 0.0, warm))

    def curves(self, call: SweepCall, executor=None) -> dict:
        executor = self.pool if executor is None else executor
        journal = self._journal(call)
        if call.kind == "mean":
            curve = resilient_mean_error_curve(
                call.config, call.noise, executor=executor, journal_path=journal
            )
            return self._values(curve, call)
        sets = resilient_placement_improvement_curves(
            call.config, call.noise, self.algorithms, executor=executor,
            journal_path=journal,
        )
        return self._values(sets, call)

    def replay(self) -> None:
        """The traced phase's last mean and improvement curves again, on the
        in-process executor: the same cell functions and batch planners the
        workers ran (the last pair, so a noisy one when the phase held more
        than the noise-free pair)."""
        from repro.sim import SerialExecutor

        traced = [call for phase, call, _ in self.done if phase == "traced"]
        for call in traced[-2:]:
            with self.recorder.unit_span(call.kind, "replay"):
                self.curves(call, executor=SerialExecutor())

    def child_rss_kib(self) -> int:
        import multiprocessing

        total = 0
        for child in multiprocessing.active_children():
            try:
                total += vm_hwm_kib(child.pid)
            except OSError:
                pass  # already gone
        return total

    def close(self) -> None:
        if self.pool is not None:
            import multiprocessing

            workers = multiprocessing.active_children()
            self.pool.close()
            for worker in workers:
                worker.join(timeout=10)
            self.pool = None


# -- Greedy-k plans ---------------------------------------------------------------


@dataclass
class Plan:
    seed: int
    noise: float
    count: int
    index: int
    state: object = None
    picks: tuple = ()
    lowers_mean: bool = False


class GreedyPlan(Workload):
    """One ``GreedyKPlacement(k=2, subsample=25).plan`` per unit on a fresh
    ``build_world`` field; counts cycle 20..240, noise cycles the four paper
    levels (one noise-free plan in four)."""

    name = "greedy-plan"
    #: A run holds about ten plans.
    tail = False

    def __init__(self, out_dir, recorder=None):
        super().__init__(out_dir, recorder)
        self.algorithm = GreedyKPlacement(k=2, subsample=25)
        self.plans: list[Plan] = []

    def setup(self) -> None:
        self._plan(Plan(WARMUP_SEED, 0.0, 20, 0))

    def groups(self, seed):
        for j in itertools.count():
            yield Plan(seed, NOISES[j % 4], COUNT_ORDER[j % len(COUNTS)], j // len(COUNTS))

    def probe_group(self, seed):
        return Plan(seed, 0.1, 120, 0)

    def _plan(self, plan: Plan) -> None:
        """As a ``beaconplace greedyk`` cell runs it: the engine adopts the
        fresh world (building its connectivity), surveys it and plans."""
        config = ExperimentConfig(seed=plan.seed)
        state = FieldState.from_world(build_world(config, plan.noise, plan.count, plan.index))
        rng = derive_rng(plan.seed, "alg", self.algorithm.name, plan.noise, plan.count, plan.index)
        plan.picks = tuple(self.algorithm.plan(state.survey(), rng, state))
        plan.state = state

    def run_group(self, plan: Plan) -> list[Unit]:
        start = time.perf_counter()
        with self.unit_span("new"):
            try:
                self._plan(plan)
            except Exception as exc:  # noqa: BLE001 — a plan that raises is a failed unit
                self.info.append(f"plan {plan} failed: {type(exc).__name__}: {exc}")
                return [Unit("new", math.inf, False)]
        unit = Unit("new", time.perf_counter() - start, True)
        final = plan.state
        for pick in plan.picks:
            final = final.with_beacon(pick)
        plan.lowers_mean = final.base_stats()[0] < plan.state.base_stats()[0]
        if len(self.plans) >= 2:
            plan.state = None  # keep memory flat: only two plans are rescanned
        self.plans.append(plan)
        return [unit]

    def check(self) -> list[str]:
        """Every plan lowers the mean; on two plans the engine's scanned
        means (the pick included) match a full rebuild with that beacon."""
        errors = [
            f"plan {plan.count}/{plan.noise:g}/{plan.index} does not lower the mean"
            for plan in self.plans
            if not plan.lowers_mean
        ]
        for plan in self.plans[:2]:
            state = plan.state
            candidates = state.survey().points[:: self.algorithm.subsample]
            means = state.scan_add_candidates(candidates)
            best = int(np.nanargmin(means))
            pick = plan.picks[0]
            if (candidates[best, 0], candidates[best, 1]) != (pick.x, pick.y):
                errors.append(
                    f"plan {plan.count}/{plan.noise:g}: first pick is not the scan argmin"
                )
            picker = random.Random(plan.count)
            sample = {best, *picker.sample(range(len(candidates)), 3)}
            for i in sorted(sample):
                field = state.field.with_beacon_at(candidates[i])
                rebuilt = FieldState.build(
                    field, state.realization, state.grid, state.layout, state.localizer
                )
                if not abs(float(np.nanmean(rebuilt.errors())) - means[i]) <= 1e-9:
                    errors.append(
                        f"plan {plan.count}/{plan.noise:g}: candidate {i} scan mean "
                        "differs from a full rebuild by more than 1e-9 m"
                    )
        return errors


# -- Placement service ------------------------------------------------------------


@dataclass(frozen=True)
class Session:
    seed: int
    noise: float
    count: int
    index: int


class PlaceService(Workload):
    """``beaconplace place-serve`` in a subprocess and one closed-loop
    ``PlacementClient``.  A session is the paper's add-a-beacon loop: a grid
    query on a new field, two grid queries each on the previous field plus
    the beacon just placed, and a max query on the final field (a cache hit)."""

    name = "place-service"
    classes = ("new", "extend", "repeat")
    shape = ("new", "extend", "extend", "repeat")
    #: Enough sessions for the 90th percentile even when the host is slow.
    min_units = 100

    def __init__(self, out_dir, recorder=None):
        super().__init__(out_dir, recorder)
        self.server = None
        self.client = None
        self.answers: list[tuple] = []
        self.address = None
        self.affinity = None

    def setup(self) -> None:
        from repro.serve import PlacementClient, PlacementRequest

        # Client and server share one CPU (the server inherits the mask):
        # in a closed loop they run by turns anyway, and a cross-CPU
        # wake-up, placed afresh by the scheduler in every run, moved
        # query latency by tens of percent between identical runs.
        self.affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self.affinity)})
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "place-serve"],
            stdout=subprocess.PIPE,
            text=True,
        )
        banner = self.server.stdout.readline()
        found = re.search(r"on ([0-9.]+):([0-9]+)", banner)
        if found is None:
            raise RuntimeError(f"placement server did not start: {banner!r}")
        self.address = (found.group(1), int(found.group(2)))
        self.client = PlacementClient(self.address, timeout=60.0)
        self.client.place(PlacementRequest(seed=WARMUP_SEED, count=20, algorithm="grid"))

    def groups(self, seed):
        for j in itertools.count():
            yield Session(seed, NOISES[j % 4], COUNT_ORDER[j % len(COUNTS)], j // len(COUNTS))

    def probe_group(self, seed):
        return Session(seed, 0.1, 120, 0)

    def requests(self, session: Session):
        """The session's queries; each after the first needs the last answer."""
        from repro.serve import PlacementRequest

        first = PlacementRequest(
            seed=session.seed, noise=session.noise, count=session.count,
            field_index=session.index, algorithm="grid",
        )
        field = build_world(
            first.experiment_config(), session.noise, session.count, session.index
        ).field
        beacons = [
            (int(i), float(x), float(y))
            for i, (x, y) in zip(field.beacon_ids, field.positions())
        ]
        next_id = field.next_beacon_id
        answer = yield "new", first
        request = first
        for _ in range(2):
            x, y = answer.picks[0]
            beacons.append((next_id, x, y))
            next_id += 1
            request = replace(first, beacons=tuple(beacons))
            answer = yield "extend", request
        yield "repeat", replace(request, algorithm="max")

    def run_group(self, session: Session) -> list[Unit]:
        from repro.serve import PlacementServiceError

        units = []
        queries = self.requests(session)
        cls, request = next(queries)
        while True:
            start = time.perf_counter()
            try:
                with self.unit_span(cls):
                    answer = self.client.place(request)
            except (PlacementServiceError, OSError) as exc:
                self.info.append(f"{cls} query failed: {type(exc).__name__}: {exc}")
                self._reconnect()
                units.append(Unit(cls, math.inf, False))
                # The rest of the session depends on this answer.
                units += [Unit(c, math.inf, False) for c in self.shape[len(units):]]
                return units
            units.append(Unit(cls, time.perf_counter() - start, True))
            # The checks and the replay use a phase's first eight queries;
            # keeping no more holds memory flat however long the run.
            if sum(phase == self.phase for phase, *_ in self.answers) < 8:
                self.answers.append((self.phase, cls, request, answer))
            try:
                cls, request = queries.send(answer)
            except StopIteration:
                return units

    def _reconnect(self) -> None:
        from repro.serve import PlacementClient

        try:
            self.client.close()
        except OSError:
            pass
        self.client = PlacementClient(self.address, timeout=60.0)

    def check(self) -> list[str]:
        """Sampled answers are byte-identical to ``solve_request`` here."""
        from repro.sim import FieldCache
        from repro.serve import solve_request

        errors = []
        cache = FieldCache()
        for _, cls, request, answer in self.answers[:8]:
            local = solve_request(request, cache=cache)
            if (
                local.picks != answer.picks
                or local.errors.tobytes() != answer.errors.tobytes()
                or not same_bytes(local.base_mean, answer.base_mean)
            ):
                errors.append(
                    f"{cls} query (count {request.count}, noise {request.noise:g}) "
                    "differs from solve_request"
                )
        return errors

    def replay(self) -> None:
        """Two sessions' queries through ``solve_request`` in-process: the
        server-side layers (build, fingerprint, cache, Grid/Max), plus the
        result encoding the server does on its event loop."""
        from repro.serve import encode_array, solve_request
        from repro.sim import FieldCache

        cache = FieldCache()
        traced = [(cls, request) for phase, cls, request, _ in self.answers if phase == "traced"]
        for cls, request in traced[:8]:
            with self.recorder.unit_span(cls, "replay"):
                encode_array(solve_request(request, cache=cache).errors)

    def child_rss_kib(self) -> int:
        return vm_hwm_kib(self.server.pid) if self.server is not None else 0

    def cache_status(self) -> tuple[int, int]:
        status = self.client.status()
        return status["cache"]["hits"], status["requests"]

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.send_signal(signal.SIGINT)
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server.stdout.close()
            self.server = None
        if self.affinity is not None:
            os.sched_setaffinity(0, self.affinity)
            self.affinity = None


WORKLOADS = {w.name: w for w in (SweepSerial, SweepPool, GreedyPlan, PlaceService)}

