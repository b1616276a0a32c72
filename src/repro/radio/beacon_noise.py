"""The paper's propagation-noise model (Section 4.2.1).

Connectivity between a point P and a beacon B exists iff::

    distance(P, B) ≤ R · (1 + u · nf(B))

where ``nf(B) ~ U[0, Noise]`` is the beacon's *noise factor* (drawn once per
beacon per field) and ``u ~ U[-1, 1]`` is drawn per (point, beacon) pair.
The intent (quoting the paper) is *"to create non-uniform propagation noise
for the beacons, and to create random regions with higher propagation noise
than the rest of the location field"*; the noise is *"location based and
static with respect to time"*.

Staticness is implemented by deriving both variates from counter-based
hashes (:mod:`repro.radio.hashrand`) keyed on the realization seed, the
beacon id and — for ``u`` — the quantized query location:

* querying any location repeatedly gives the same answer, in any order;
* a beacon added mid-trial gets fresh noise without disturbing any existing
  link (its id is new);
* the whole world is reproducible from one seed.

With ``Noise = 0`` the model degenerates exactly to the ideal disk.
"""

from __future__ import annotations

import numpy as np

from ..geometry import MeasurementGrid, as_point_array
from .base import PropagationModel, PropagationRealization, beacon_rows
from .hashrand import hash_symmetric, hash_uniform, quantize_coords

__all__ = ["BeaconNoiseModel", "BeaconNoiseRealization"]

_NF_TAG = np.uint64(0xBEAC01)
_U_TAG = np.uint64(0xBEAC02)


class BeaconNoiseRealization(PropagationRealization):
    """One static noise field drawn from :class:`BeaconNoiseModel`."""

    def __init__(
        self,
        radio_range: float,
        noise: float,
        seed: int,
        u_granularity: str = "pair",
        cm_thresh: float | None = None,
    ):
        if u_granularity not in ("pair", "beacon"):
            raise ValueError(f"u_granularity must be 'pair' or 'beacon', got {u_granularity!r}")
        if cm_thresh is not None and not 0.5 <= cm_thresh <= 1.0:
            raise ValueError(f"cm_thresh must be in [0.5, 1], got {cm_thresh}")
        self._radio_range = radio_range
        self._noise = noise
        self._seed = np.uint64(seed)
        self._u_granularity = u_granularity
        self._cm_thresh = cm_thresh

    @property
    def radio_range(self) -> float:
        """Nominal range R."""
        return self._radio_range

    @property
    def noise(self) -> float:
        """Maximum noise factor for the field (``Noise`` in the paper)."""
        return self._noise

    @property
    def seed(self) -> int:
        """The realization's identity; equal seeds ⇒ identical worlds."""
        return int(self._seed)

    def noise_factors(self, beacons) -> np.ndarray:
        """``nf(B) ∈ [0, Noise]`` for each beacon, ``(N,)``."""
        ids, _ = beacon_rows(beacons)
        return self._noise * hash_uniform(self._seed, ids, _NF_TAG)

    def pair_u(self, points, beacons) -> np.ndarray:
        """The variate ``u ∈ [-1, 1)``, broadcast to ``(P, N)``.

        With ``u_granularity="pair"`` each (point, beacon) link draws its
        own u; with ``"beacon"`` each beacon draws one u shared by every
        point (its whole disk shrinks or grows coherently).
        """
        ids, _ = beacon_rows(beacons)
        pts = as_point_array(points)
        if self._u_granularity == "beacon":
            per_beacon = hash_symmetric(self._seed, ids, _U_TAG)
            return np.broadcast_to(per_beacon[None, :], (pts.shape[0], ids.shape[0]))
        qx, qy = quantize_coords(pts)
        return hash_symmetric(
            self._seed, ids[None, :], _U_TAG, qx[:, None], qy[:, None]
        )

    def connectivity(self, points, beacons) -> np.ndarray:
        """Boolean connectivity ``(P, N)``.

        A :class:`~repro.geometry.MeasurementGrid` as ``points`` runs the
        windowed lattice kernel
        (:func:`repro.radio.kernels.windowed_connectivity`), which compares
        only the pairs within each beacon's reach; a point array takes the
        dense §4.2.1 path.  Both give the same bytes on the lattice.
        """
        if not isinstance(points, MeasurementGrid):
            return super().connectivity(points, beacons)
        # Deferred: ``radio.kernels`` imports this module.
        from .kernels import batch_params_from_realization, windowed_connectivity

        ids, positions = beacon_rows(beacons)
        return windowed_connectivity(
            batch_params_from_realization(self),
            np.asarray([self._seed]),
            ids[None, :],
            positions[None, :, :],
            points,
        )[0]

    def effective_ranges(self, points, beacons) -> np.ndarray:
        nf = self.noise_factors(beacons)
        if nf.shape[0] == 0:
            pts = as_point_array(points)
            return np.zeros((pts.shape[0], 0))
        ranges = self._radio_range * (1.0 + self.pair_u(points, beacons) * nf[None, :])
        if self._cm_thresh is not None:
            # §2.2 protocol semantics: a link counts as connected only when
            # the fraction of received periodic messages clears CM_thresh.
            # With per-message symmetric jitter of amplitude nf(B)·R around
            # the static range, the success fraction at margin m is
            # (1 + m/(nf·R))/2, so the threshold pulls the connectivity
            # boundary inward by (2·CM_thresh − 1)·nf(B)·R.
            ranges = ranges - (2.0 * self._cm_thresh - 1.0) * nf[None, :] * self._radio_range
        return ranges


class BeaconNoiseModel(PropagationModel):
    """The paper's static per-beacon noise model.

    Args:
        radio_range: nominal range R (15 m in the paper).
        noise: maximum noise factor ``Noise`` (0, 0.1, 0.3, 0.5 in §4.2.1).
            Effective ranges then span ``[R(1-Noise), R(1+Noise)]``.
    """

    def __init__(
        self,
        radio_range: float,
        noise: float,
        u_granularity: str = "pair",
        cm_thresh: float | None = None,
    ):
        if radio_range <= 0:
            raise ValueError(f"radio_range must be positive, got {radio_range}")
        if not 0.0 <= noise < 1.0:
            raise ValueError(f"noise must be in [0, 1), got {noise}")
        if u_granularity not in ("pair", "beacon"):
            raise ValueError(f"u_granularity must be 'pair' or 'beacon', got {u_granularity!r}")
        if cm_thresh is not None and not 0.5 <= cm_thresh <= 1.0:
            raise ValueError(f"cm_thresh must be in [0.5, 1], got {cm_thresh}")
        self._radio_range = float(radio_range)
        self._noise = float(noise)
        self._u_granularity = u_granularity
        self._cm_thresh = cm_thresh

    def __repr__(self) -> str:
        return (
            f"BeaconNoiseModel(radio_range={self._radio_range}, noise={self._noise}, "
            f"u_granularity={self._u_granularity!r}, cm_thresh={self._cm_thresh})"
        )

    @property
    def nominal_range(self) -> float:
        return self._radio_range

    @property
    def noise(self) -> float:
        """Maximum noise factor ``Noise``."""
        return self._noise

    def realize(self, rng: np.random.Generator) -> BeaconNoiseRealization:
        seed = int(rng.integers(0, 2**63, dtype=np.int64))
        return BeaconNoiseRealization(
            self._radio_range, self._noise, seed, self._u_granularity, self._cm_thresh
        )
