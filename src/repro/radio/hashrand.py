"""Deterministic, counter-based randomness for static noise fields.

The paper's propagation noise is *"location based and static with respect to
time"*: the connectivity between a point P and a beacon B is decided once per
field realization and never changes, no matter in what order (or how often)
the simulator queries it — and crucially it must not change when a new beacon
is added later.

Sequential RNG streams cannot provide that (the answer would depend on query
order), so realizations derive every random quantity from a *hash* of
``(realization seed, beacon id, quantized location, tag)``.  This module
implements the underlying vectorized hash: SplitMix64 finalization over a
running 64-bit mix, which passes standard avalanche expectations and is
plenty for simulation noise.

All functions are pure and vectorized over NumPy ``uint64`` arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "mix64",
    "splitmix_fold",
    "hash_uniform",
    "hash_symmetric",
    "hash_normal",
    "uniform_from_bits",
    "symmetric_from_bits",
    "quantize",
    "quantize_coords",
]

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INITIAL_STATE = np.uint64(0x243F6A8885A308D3)  # pi digits; arbitrary non-zero
_TWO64 = float(2**64)


def splitmix_fold(state, key):
    """Fold one ``uint64`` key into a running hash state (one SplitMix64 round).

    ``mix64(k1, …, kn, k)`` equals ``splitmix_fold(mix64(k1, …, kn), k)``, so
    a caller hashing many keys that share a prefix folds the prefix once and
    continues each key from it.  ``state`` and ``key`` broadcast.
    """
    with np.errstate(over="ignore"):
        z = (state + _GAMMA) ^ np.asarray(key, dtype=np.uint64)
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
    return z


def mix64(*keys) -> np.ndarray:
    """Hash one or more ``uint64`` keys (scalars or broadcastable arrays).

    Applies the SplitMix64 finalizer after folding each key into a running
    state (:func:`splitmix_fold`), so every input bit influences every
    output bit.

    Returns:
        ``uint64`` array of the broadcast shape of the inputs.
    """
    if not keys:
        raise ValueError("mix64 requires at least one key")
    state = _INITIAL_STATE
    for key in keys:
        state = splitmix_fold(state, key)
    return state


def uniform_from_bits(bits) -> np.ndarray:
    """Map :func:`mix64` output to uniforms in the closed ``[0, 1]``.

    The float64 conversion rounds bits ≥ 2⁶⁴ − 1024 to 2⁶⁴, so those map to
    exactly 1.0; bits 0 map to 0.0.
    """
    return bits.astype(np.float64) / _TWO64


def symmetric_from_bits(bits) -> np.ndarray:
    """Map :func:`mix64` output to uniforms in the closed ``[-1, 1]``.

    ``2·uniform − 1``: bits 0 and 1 give exactly −1.0, and bits ≥ 2⁶⁴ − 1024
    give exactly 1.0 (see :func:`uniform_from_bits`).
    """
    return 2.0 * uniform_from_bits(bits) - 1.0


def hash_uniform(*keys) -> np.ndarray:
    """Deterministic uniforms in ``[0, 1]`` from integer keys.

    The same keys always yield the same value; distinct keys yield
    independent-looking values.
    """
    return uniform_from_bits(mix64(*keys))


def hash_symmetric(*keys) -> np.ndarray:
    """Deterministic uniforms in ``[-1, 1]`` — the paper's ``u`` variate.

    Both ends occur (see :func:`symmetric_from_bits`).
    """
    return symmetric_from_bits(mix64(*keys))


def hash_normal(*keys) -> np.ndarray:
    """Deterministic standard normals via Box–Muller on two derived uniforms.

    Used by the log-normal shadowing model's static per-link fades.

    Only the cosine half of the Box–Muller pair is kept — **by design**, not
    oversight.  The transform yields two independent normals
    (``r·cos θ``, ``r·sin θ``) per uniform pair; a sequential generator
    would bank the sine half for the next call, but a *counter-based* hash
    has no "next call" — every key must map to one value, statelessly and
    order-independently.  Discarding the sine half costs one extra
    ``hash_uniform`` per normal (cheap) and keeps the map pure, which is
    the property the static noise field is built on.
    """
    u1 = hash_uniform(*keys, np.uint64(0x5BF0A8B1))
    u2 = hash_uniform(*keys, np.uint64(0x3C6EF372))
    # Guard against log(0): the hash can produce exactly 0.
    u1 = np.maximum(u1, 1e-300)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def quantize(values, resolution: float = 1e-6) -> np.ndarray:
    """Quantize coordinates to integer keys, elementwise (int64-as-uint64).

    Two queries within ``resolution`` meters of each other see the same
    noise — this is what makes the noise a *field over locations* rather
    than a property of query objects.
    """
    q = np.round(np.asarray(values, dtype=float) / resolution).astype(np.int64)
    return q.view(np.uint64)


def quantize_coords(points: np.ndarray, resolution: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """Quantize ``(P, 2)`` coordinates to integer keys (see :func:`quantize`).

    Returns:
        ``(qx, qy)`` int64-as-uint64 arrays of shape ``(P,)``.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected (P, 2) points, got shape {pts.shape}")
    q = quantize(pts, resolution)
    return q[:, 0], q[:, 1]
