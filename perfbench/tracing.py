"""Layer spans for the traced benchmark run, recorded from outside ``repro``.

A traced run swaps selected public functions and methods of ``repro`` for
wrappers that record one span per call (name, start, end, parent span, unit
id, attributes), runs the workload, and puts the originals back.  Nothing
under ``src/`` is instrumented.  Spans stay in memory; :meth:`Recorder.dump`
writes them as JSONL when the run ends.

Only calls made on the thread that installed the patches are recorded: the
placement server and pool workers are other processes, and their work is
decomposed by replaying the same units in-process (see ``workloads.py``).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager


class Recorder:
    """In-memory span store with a parent stack and a current unit id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._thread = threading.get_ident()
        self.unit: int | None = None
        self._next_unit = 0

    def recording(self) -> bool:
        return threading.get_ident() == self._thread

    def begin(self, name: str, **attrs) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "unit": self.unit,
            "attrs": attrs,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def unit_span(self, cls: str, phase: str):
        """One unit of work: the root every layer span of the unit hangs off."""
        self.unit = self._next_unit
        self._next_unit += 1
        span = self.begin("unit", cls=cls, phase=phase)
        try:
            yield span
        finally:
            self.end(span)
            self.unit = None

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _wrapper(fn, name, recorder, describe):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not recorder.recording():
            return fn(*args, **kwargs)
        span = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        if describe is not None:
            span["attrs"].update(describe(args, kwargs, result))
        return result

    return traced


# (module, attribute, span name, kind, attribute extractor).  ``kind`` is
# "function" (replaced in every ``repro`` module that imported it by name),
# "method" or "classmethod" (replaced on the class).
TRACED_CALLS = (
    ("repro.radio.beacon_noise", "BeaconNoiseRealization.connectivity",
     "radio.connectivity", "method",
     lambda a, k, r: {"points": int(r.shape[0]), "beacons": int(r.shape[1])}),
    ("repro.sim.kernels", "warm_worlds", "radio.warm_worlds", "function",
     lambda a, k, r: {"worlds": int(r)}),
    ("repro.sim.kernels", "candidate_columns", "radio.candidate_columns",
     "function", lambda a, k, r: {"candidates": int(r.shape[1])}),
    ("repro.localization.centroid", "CentroidState.from_connectivity",
     "localization.centroid_state", "classmethod", None),
    ("repro.localization.centroid", "CentroidState.estimates",
     "localization.estimates", "method", None),
    ("repro.localization.error", "localization_errors",
     "localization.errors", "function", None),
    ("repro.localization.error", "ErrorSurface.mean_error",
     "localization.reduce", "method", None),
    ("repro.localization.error", "ErrorSurface.median_error",
     "localization.reduce", "method", None),
    ("repro.sim.sweep", "build_world", "sim.build_world", "function", None),
    ("repro.sim.trial", "TrialWorld.evaluate_candidate",
     "sim.evaluate_candidate", "method", None),
    ("repro.sim.results", "Curve.from_samples", "sim.aggregate",
     "classmethod", None),
    ("repro.placement.grid_placement", "GridPlacement.propose",
     "placement.propose.grid", "method", None),
    ("repro.placement.max_placement", "MaxPlacement.propose",
     "placement.propose.max", "method", None),
    ("repro.placement.random_placement", "RandomPlacement.propose",
     "placement.propose.random", "method", None),
    ("repro.placement.greedy", "GreedyKPlacement.plan",
     "placement.plan.greedy", "method", None),
    ("repro.geometry.overlapping_grids", "OverlappingGridLayout.membership_masks",
     "geometry.membership_masks", "method", None),
    ("repro.sim.incremental", "FieldState.build", "incremental.build",
     "classmethod", None),
    ("repro.sim.incremental", "FieldState.from_world", "incremental.build",
     "classmethod", None),
    ("repro.sim.incremental", "FieldState.scan_add_candidates",
     "incremental.scan", "method",
     lambda a, k, r: {"candidates": int(r.shape[0])}),
    ("repro.sim.incremental", "FieldState.with_beacon", "incremental.commit",
     "method", None),
    ("repro.sim.incremental", "field_fingerprint", "incremental.fingerprint",
     "function", None),
    ("repro.sim.incremental", "FieldCache.get", "incremental.cache_get",
     "method", lambda a, k, r: {"hit": r is not None}),
    ("repro.sim.executors.shm", "publish_for_executor", "executors.shm_publish",
     "function", None),
    ("repro.sim.executors.local", "PoolExecutor.execute", "executors.execute",
     "method", None),
    ("repro.sim.executors.local", "SerialExecutor.execute", "executors.execute",
     "method", None),
    ("repro.serve.schema", "solve_request", "serve.solve_request", "function",
     None),
    ("repro.serve.client", "PlacementClient.place", "serve.client_place",
     "method", None),
    ("repro.serve.schema", "decode_array", "serve.decode_array", "function",
     None),
    ("repro.serve.schema", "encode_array", "serve.encode_array", "function",
     None),
    ("repro.sim.executors.wire", "recv_frame", "serve.recv_frame", "function",
     lambda a, k, r: {
         "bytes": int(r[1]),
         "seconds": (r[0] or {}).get("seconds"),
         "type": (r[0] or {}).get("type"),
     }),
)


class Patches:
    """Install and remove the span wrappers of :data:`TRACED_CALLS`."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple] = []

    def install(self) -> None:
        # Import every module before patching any: a module first imported
        # in between would bind an already installed wrapper by name, and
        # keep it after ``uninstall``.
        modules = [importlib.import_module(name) for name, *_ in TRACED_CALLS]
        for module, (_, attr, span, kind, describe) in zip(modules, TRACED_CALLS):
            if kind == "function":
                self._patch_function(getattr(module, attr), span, describe)
                continue
            class_name, method = attr.split(".")
            owner = getattr(module, class_name)
            own = owner.__dict__.get(method)
            if kind == "classmethod":
                fn = own.__func__
                replacement = classmethod(_wrapper(fn, span, self.recorder, describe))
            else:
                fn = getattr(owner, method)
                replacement = _wrapper(fn, span, self.recorder, describe)
            setattr(owner, method, replacement)
            self._undo.append((owner, method, own))

    def _patch_function(self, fn, span, describe) -> None:
        wrapped = _wrapper(fn, span, self.recorder, describe)
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")) or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
                    self._undo.append((module, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)  # the method was inherited
            else:
                setattr(owner, attr, original)
        self._undo.clear()


# -- Reading the spans ---------------------------------------------------------


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[str, list[float]]:
    """``{span name: [self seconds per call]}`` (duration minus children)."""
    child_time: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None and span["end"] is not None:
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + _duration(span)
    out: dict[str, list[float]] = {}
    for span in spans:
        if span["end"] is not None:
            out.setdefault(span["name"], []).append(
                _duration(span) - child_time.get(span["id"], 0.0)
            )
    return out


def unattributed_fraction(spans: list[dict], phase: str) -> float:
    """Share of the phase's unit time that no layer span covers."""
    unit_ids = {
        s["id"] for s in spans if s["name"] == "unit" and s["attrs"]["phase"] == phase
    }
    total = sum(_duration(spans[i]) for i in unit_ids)
    covered = sum(
        _duration(s) for s in spans if s["parent"] in unit_ids and s["end"] is not None
    )
    return (total - covered) / total if total > 0 else 0.0


def roots(spans: list[dict]) -> list[int]:
    """The id of each span's root span (a parent always precedes its child)."""
    out: list[int] = []
    for span in spans:
        out.append(span["id"] if span["parent"] is None else out[span["parent"]])
    return out


def under_units(spans: list[dict], phases) -> list[dict]:
    """Completed spans whose root is a unit span of one of ``phases``."""
    units = {
        s["id"] for s in spans if s["name"] == "unit" and s["attrs"]["phase"] in phases
    }
    return [
        span for span, root in zip(spans, roots(spans))
        if root in units and span["end"] is not None
    ]


def mean_ms(spans: list[dict]) -> float | None:
    """Mean call duration in milliseconds (None when the call never ran)."""
    if not spans:
        return None
    return 1e3 * sum(_duration(s) for s in spans) / len(spans)


def total_s(spans: list[dict]) -> float:
    return sum(_duration(s) for s in spans)
