"""Placement-service request schema: canonical, JSON-native, solvable.

A placement request describes everything a :class:`~repro.sim.TrialWorld`
needs — terrain geometry, the propagation realization's seed and noise
level, the (designed or explicitly enumerated) beacon field — plus the
algorithm to run.  Requests are **pure JSON**: no pickled payloads cross
the service boundary, so any language can speak it (contrast the sweep
wire protocol, whose cells ship arbitrary Python objects between trusted
peers).

Three contracts anchor the service:

* **Canonical fingerprints.**  :meth:`PlacementRequest.fingerprint` is a
  sha256 over the canonical JSON payload — stable across processes and
  machines, same conventions as :func:`repro.sim.sweep_fingerprint`.  The
  *field* identity (what the expected-LE cache is keyed on) additionally
  goes through :func:`repro.sim.incremental.field_fingerprint`, so two
  requests that describe the same physical field share a cache entry even
  when they ask for different algorithms.

* **Byte-identity.**  :func:`solve_request` *is* the direct library call:
  the server runs exactly this function, so a placement served over the
  wire is byte-identical to calling ``placement.*`` locally with the
  canonical RNG stream (``derive_rng(seed, "serve", algorithm, noise,
  count, field_index)``).  ``tests/test_serve.py`` pins this across
  algorithms, noise levels and fault-masked fields.

* **NaN-safe encoding.**  Expected-LE maps may legitimately contain NaN
  (excluded points, all-beacons-down fields), and the wire envelope is
  strict JSON (:func:`repro.sim.executors.wire.send_frame` refuses bare
  ``NaN`` tokens).  Arrays therefore ride as ``{"dtype", "shape",
  "data"}`` base64 blocks (:func:`encode_array`/:func:`decode_array`) and
  scalar statistics as JSON numbers when finite, or the explicit strings
  ``"NaN"``/``"Infinity"``/``"-Infinity"`` otherwise
  (:func:`encode_float`/:func:`decode_float`).
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from ..exploration import Survey
from ..field import Beacon, BeaconField
from ..geometry import Point
from ..localization import CentroidLocalizer, ErrorSurface, UnlocalizedPolicy
from ..obs import get_metrics, get_tracer
from ..placement import (
    GreedyKPlacement,
    GridPlacement,
    MaxPlacement,
    RandomPlacement,
)
from ..sim import build_world, derive_rng
from ..sim.config import ExperimentConfig
from ..sim.incremental import FieldCache, FieldState, field_fingerprint

__all__ = [
    "ALGORITHM_NAMES",
    "PlacementRequest",
    "PlacementSolution",
    "decode_array",
    "decode_float",
    "encode_array",
    "encode_float",
    "solve_request",
]

#: Algorithms a request may name (the paper's three plus greedy-k).
ALGORITHM_NAMES = ("random", "max", "grid", "greedy")

_POLICY_NAMES = tuple(policy.value for policy in UnlocalizedPolicy)


def _number(name: str, value, kind=float):
    """``value`` as a finite ``kind``; integral floats such as ``40.0`` are ints."""
    try:
        number = kind(value)
        if math.isfinite(number) and (kind is float or number == value):
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be a finite {kind.__name__}, got {value!r}")


def encode_float(value: float) -> float | str:
    """A JSON-safe scalar: the number itself, or an explicit token string.

    Strict JSON has no NaN/Infinity; encoding them as the strings
    ``"NaN"`` / ``"Infinity"`` / ``"-Infinity"`` keeps the frame parseable
    from any language (``float()`` accepts all three back in Python).
    """
    value = float(value)
    if math.isfinite(value):
        return value
    return repr(value).replace("inf", "Infinity").replace("nan", "NaN")


def decode_float(value) -> float:
    """Invert :func:`encode_float`."""
    return float(value)


def encode_array(values: np.ndarray) -> dict:
    """A float64 array as a language-neutral base64 block.

    Little-endian IEEE-754 bytes plus dtype/shape — decodable without
    pickle from any language, and NaN-safe (the bytes carry non-finite
    values exactly, where strict JSON cannot).
    """
    contiguous = np.ascontiguousarray(values, dtype="<f8")
    return {
        "dtype": "<f8",
        "shape": list(contiguous.shape),
        "data": base64.b64encode(contiguous.tobytes()).decode("ascii"),
    }


def decode_array(block: dict) -> np.ndarray:
    """Invert :func:`encode_array`; the result is read-only."""
    if block.get("dtype") != "<f8":
        raise ValueError(f"unsupported array dtype {block.get('dtype')!r}")
    data = base64.b64decode(block["data"].encode("ascii"))
    values = np.frombuffer(data, dtype="<f8").reshape(tuple(block["shape"]))
    values.setflags(write=False)
    return values


@dataclass(frozen=True)
class PlacementRequest:
    """One placement query: a field spec plus the algorithm to run on it.

    Attributes:
        side: terrain side in meters.
        step: measurement-lattice spacing in meters.
        radio_range: nominal radio range ``R`` in meters.
        num_grids: overlapping grids ``N_G`` for the Grid algorithm.
        seed: master seed; the field, realization and algorithm RNG all
            derive from it (same streams as the sweep engine).
        policy: unlocalized-point convention, by enum value name.
        cm_thresh: noise-model threshold interpretation (see
            :class:`~repro.sim.ExperimentConfig`); None = symmetric.
        noise: the realization's noise level.
        count: designed beacon count.  The generated field and the
            propagation realization are keyed on it, exactly as
            :func:`repro.sim.build_world` keys them.
        field_index: replication index of the generated field.
        beacons: optional explicit field as ``[[id, x, y], ...]`` —
            overrides the generated field's membership while keeping the
            realization keyed on ``count``.  This is how a client ships a
            fault-masked field: survivors keep their designed ids, so
            their propagation links match the pristine world's.
        algorithm: one of :data:`ALGORITHM_NAMES`.
        k: beacons to place (greedy only; the others place one).
        subsample: candidate-lattice stride (greedy only).
    """

    side: float = 100.0
    step: float = 1.0
    radio_range: float = 15.0
    num_grids: int = 400
    seed: int = 20010416
    policy: str = "terrain_center"
    cm_thresh: float | None = 0.9
    noise: float = 0.0
    count: int = 40
    field_index: int = 0
    beacons: tuple | None = None
    algorithm: str = "grid"
    k: int = 1
    subsample: int = 1

    def __post_init__(self) -> None:
        for name in ("seed", "count", "field_index", "num_grids", "k", "subsample"):
            object.__setattr__(self, name, _number(name, getattr(self, name), int))
        if min(_number(n, getattr(self, n)) for n in ("side", "step", "radio_range")) <= 0:
            raise ValueError("side, step and radio_range must be positive")
        if self.num_grids < 1:
            raise ValueError(f"num_grids must be >= 1, got {self.num_grids}")
        if self.policy not in _POLICY_NAMES:
            raise ValueError(
                f"unknown policy {self.policy!r} (choose from {_POLICY_NAMES})"
            )
        if not 0 <= self.noise < 1:
            raise ValueError(f"noise must be in [0, 1), got {self.noise}")
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")
        if self.field_index < 0:
            raise ValueError(f"field_index must be >= 0, got {self.field_index}")
        if self.algorithm not in ALGORITHM_NAMES:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r} "
                f"(choose from {ALGORITHM_NAMES})"
            )
        if self.k < 1 or self.subsample < 1:
            raise ValueError("k and subsample must be >= 1")
        if self.beacons is not None:
            normalized = []
            for entry in self.beacons:
                if len(entry) != 3:
                    raise ValueError(
                        f"beacon entries are [id, x, y], got {entry!r}"
                    )
                beacon_id = _number("beacon id", entry[0], int)
                if not 0 <= beacon_id < 2**64 - self.k:  # uint64 noise-hash keys
                    raise ValueError(f"beacon id {beacon_id} outside [0, 2**64 - k)")
                x, y = _number("beacon x", entry[1]), _number("beacon y", entry[2])
                normalized.append((beacon_id, x, y))
            object.__setattr__(self, "beacons", tuple(normalized))

    # -- Canonical form ------------------------------------------------------

    def payload(self) -> dict:
        """The canonical JSON-ready dict (what travels in a ``place`` frame)."""
        spec = {
            "side": float(self.side),
            "step": float(self.step),
            "radio_range": float(self.radio_range),
            "num_grids": int(self.num_grids),
            "seed": int(self.seed),
            "policy": self.policy,
            "cm_thresh": None if self.cm_thresh is None else float(self.cm_thresh),
            "noise": float(self.noise),
            "count": int(self.count),
            "field_index": int(self.field_index),
            "algorithm": self.algorithm,
            "k": int(self.k),
            "subsample": int(self.subsample),
        }
        if self.beacons is not None:
            spec["beacons"] = [[i, x, y] for i, x, y in self.beacons]
        return spec

    @classmethod
    def from_payload(cls, payload: dict) -> "PlacementRequest":
        """Validate and build a request from a decoded ``spec`` dict.

        Unknown keys are rejected — a typo'd parameter silently falling
        back to a default would return a *valid-looking but wrong*
        placement, the worst possible service failure.
        """
        if not isinstance(payload, dict):
            raise ValueError(f"spec must be an object, got {type(payload).__name__}")
        known = {
            "side", "step", "radio_range", "num_grids", "seed", "policy",
            "cm_thresh", "noise", "count", "field_index", "beacons",
            "algorithm", "k", "subsample",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown spec field(s): {', '.join(unknown)}")
        kwargs = dict(payload)
        if kwargs.get("beacons") is not None:
            kwargs["beacons"] = tuple(tuple(entry) for entry in kwargs["beacons"])
        return cls(**kwargs)

    def fingerprint(self) -> str:
        """Canonical request identity, 16 hex chars (process-independent)."""
        blob = json.dumps(self.payload(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    # -- World construction --------------------------------------------------

    def experiment_config(self) -> ExperimentConfig:
        """The :class:`ExperimentConfig` this request describes."""
        return ExperimentConfig(
            side=self.side,
            radio_range=self.radio_range,
            step=self.step,
            num_grids=self.num_grids,
            beacon_counts=(max(self.count, 1),),
            fields_per_density=1,
            seed=self.seed,
            policy=UnlocalizedPolicy(self.policy),
            cm_thresh=self.cm_thresh,
        )

    def build_algorithm(self):
        """The requested placement algorithm instance."""
        if self.algorithm == "random":
            return RandomPlacement()
        if self.algorithm == "max":
            return MaxPlacement()
        if self.algorithm == "grid":
            return GridPlacement.paper_configuration(
                self.side, self.radio_range, self.num_grids
            )
        return GreedyKPlacement(k=self.k, subsample=self.subsample)

    def build_field(self, generated: BeaconField) -> BeaconField:
        """The field to place on: explicit beacons, or the generated one."""
        if self.beacons is None:
            return generated
        next_id = max(
            [self.count] + [beacon_id + 1 for beacon_id, _, _ in self.beacons]
        )
        return BeaconField(
            [
                Beacon(beacon_id, Point(x, y))
                for beacon_id, x, y in self.beacons
            ],
            next_id=next_id,
        )


@dataclass(frozen=True)
class PlacementSolution:
    """What :func:`solve_request` computes (and the server serializes).

    Attributes:
        algorithm: resolved algorithm name.
        picks: placement coordinates in deployment order, ``[(x, y), ...]``.
        base_mean: mean expected LE of the *base* field, meters (NaN when
            unmeasurable).
        base_median: median expected LE of the base field, meters.
        errors: the base field's expected-LE map over the lattice, ``(P,)``.
        cache_hit: whether ``errors`` came from the field cache.
        fingerprint: the field's canonical cache key (None = uncacheable).
    """

    algorithm: str
    picks: tuple
    base_mean: float
    base_median: float
    errors: np.ndarray = dataclass_field(repr=False)
    cache_hit: bool
    fingerprint: str | None


def solve_request(
    request: PlacementRequest, cache: FieldCache | None = None
) -> PlacementSolution:
    """Answer one placement request — the reference the wire must match.

    The expected-LE map is served through ``cache`` when the field has a
    canonical fingerprint; algorithm decisions always derive from the
    named RNG stream ``(seed, "serve", algorithm, noise, count,
    field_index)``, so repeat queries are deterministic and every backend
    (direct call, threaded server, benchmark harness) returns identical
    bytes.
    """
    metrics = get_metrics()
    config = request.experiment_config()
    world = build_world(config, request.noise, request.count, request.field_index)
    field = request.build_field(world.field)
    grid, layout = world.grid, world.layout
    localizer: CentroidLocalizer = world.localizer
    fingerprint = field_fingerprint(field, world.realization, grid, localizer)
    cached = cache.get(fingerprint) if (cache is not None and fingerprint) else None
    state: FieldState | None = None
    if cached is not None:
        metrics.counter("serve.cache_hits").inc()
        errors = cached
    else:
        with get_tracer().span("serve.solve.build", beacons=len(field)):
            state = FieldState.build(
                field, world.realization, grid, layout, localizer
            )
            errors = state.errors()
        if cache is not None and fingerprint:
            errors = cache.put(fingerprint, errors)
    surface = ErrorSurface(grid, errors)
    survey = Survey.from_error_surface(surface)
    algorithm = request.build_algorithm()
    rng = derive_rng(
        request.seed,
        "serve",
        algorithm.name,
        request.noise,
        request.count,
        request.field_index,
    )
    with get_tracer().span("serve.solve.place", algorithm=algorithm.name):
        if isinstance(algorithm, GreedyKPlacement):
            if state is None:
                # Cache hit: the LE map is served, but greedy's candidate
                # scans still need live connectivity (built lazily here).
                state = FieldState(
                    field, world.realization, grid, layout, localizer
                )
            picks = algorithm.plan(survey, rng, state)
        elif algorithm.requires_world:
            if state is None:
                state = FieldState(
                    field, world.realization, grid, layout, localizer
                )
            picks = [algorithm.propose(survey, rng, state)]
        else:
            picks = [algorithm.propose(survey, rng)]
    return PlacementSolution(
        algorithm=algorithm.name,
        picks=tuple((float(p.x), float(p.y)) for p in picks),
        base_mean=surface.mean_error(),
        base_median=surface.median_error(),
        errors=errors,
        cache_hit=cached is not None,
        fingerprint=fingerprint,
    )
