"""Unit tests for repro.radio.hashrand (counter-based static randomness)."""

import numpy as np
import pytest

from repro.radio.hashrand import (
    hash_normal,
    hash_symmetric,
    hash_uniform,
    mix64,
    quantize_coords,
    symmetric_from_bits,
    uniform_from_bits,
)


class TestMix64:
    def test_deterministic(self):
        assert mix64(1, 2, 3) == mix64(1, 2, 3)

    def test_different_keys_differ(self):
        assert mix64(1, 2, 3) != mix64(1, 2, 4)

    def test_key_order_matters(self):
        assert mix64(1, 2) != mix64(2, 1)

    def test_broadcasting(self):
        ids = np.arange(5, dtype=np.uint64)
        out = mix64(7, ids)
        assert out.shape == (5,)
        assert len(set(out.tolist())) == 5

    def test_2d_broadcast(self):
        a = np.arange(3, dtype=np.uint64)[:, None]
        b = np.arange(4, dtype=np.uint64)[None, :]
        assert mix64(a, b).shape == (3, 4)

    def test_requires_a_key(self):
        with pytest.raises(ValueError):
            mix64()

    def test_avalanche_single_bit_flips(self):
        """Flipping any single input bit flips ~half the output bits.

        SplitMix64's finalizer is expected to give each input bit full
        avalanche; the vectorized implementation must preserve that (a
        truncated shift or wrong constant would show up here as a heavily
        biased flip count).
        """
        base_keys = np.uint64(0xDEADBEEFCAFEF00D)
        base = mix64(base_keys)
        flips = []
        for bit in range(64):
            flipped = mix64(base_keys ^ (np.uint64(1) << np.uint64(bit)))
            flips.append(bin(int(base ^ flipped)).count("1"))
        flips = np.asarray(flips, dtype=float)
        # Per-bit flips ~ Binomial(64, 0.5): mean 32, sd 4.  4 sigma per
        # bit keeps the deterministic test safe; the mean is much tighter.
        assert np.all(np.abs(flips - 32.0) < 16.0), flips
        assert abs(flips.mean() - 32.0) < 2.0

    def test_output_bit_uniformity(self):
        """Each of the 64 output bit positions is set about half the time."""
        out = mix64(9, np.arange(4096, dtype=np.uint64))
        ones = np.array(
            [np.count_nonzero(out & (np.uint64(1) << np.uint64(b))) for b in range(64)],
            dtype=float,
        )
        # Binomial(4096, 0.5): sd = 32; allow 5 sigma per position.
        assert np.all(np.abs(ones - 2048.0) < 160.0), ones

    def test_low_bit_of_sequential_keys_unbiased(self):
        """Counter-style consecutive keys must not leak into the low bit."""
        out = mix64(np.arange(8192, dtype=np.uint64))
        low = (out & np.uint64(1)).astype(float)
        assert abs(low.mean() - 0.5) < 0.03


class TestHashUniform:
    def test_range(self):
        vals = hash_uniform(123, np.arange(10000, dtype=np.uint64))
        assert vals.min() >= 0.0
        assert vals.max() < 1.0

    def test_approximately_uniform(self):
        vals = hash_uniform(5, np.arange(50000, dtype=np.uint64))
        assert abs(vals.mean() - 0.5) < 0.01
        assert abs(np.quantile(vals, 0.25) - 0.25) < 0.01

    def test_symmetric_range(self):
        vals = hash_symmetric(9, np.arange(10000, dtype=np.uint64))
        assert vals.min() >= -1.0
        assert vals.max() < 1.0
        assert abs(vals.mean()) < 0.05

    def test_independence_across_seeds(self):
        a = hash_uniform(1, np.arange(1000, dtype=np.uint64))
        b = hash_uniform(2, np.arange(1000, dtype=np.uint64))
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


class TestClosedRange:
    """The float64 mapping reaches both ends: the windowed kernel's ring
    rule relies on ``u ∈ [−1, 1]``, and every noisy link on the mapping
    staying exactly as it is."""

    BITS = np.array([0, 1, 2**64 - 1, 2**64 - 1024, 2**64 - 1025], dtype=np.uint64)

    def test_uniform_extremes(self):
        assert uniform_from_bits(self.BITS).tolist() == [
            0.0, 2.0**-64, 1.0, 1.0, 1.0 - 2.0**-53,
        ]

    def test_symmetric_extremes(self):
        assert symmetric_from_bits(self.BITS).tolist() == [
            -1.0, -1.0, 1.0, 1.0, 0.9999999999999998,
        ]


class TestHashNormal:
    def test_moments(self):
        vals = hash_normal(42, np.arange(50000, dtype=np.uint64))
        assert abs(vals.mean()) < 0.02
        assert abs(vals.std() - 1.0) < 0.02

    def test_deterministic(self):
        a = hash_normal(3, np.arange(10, dtype=np.uint64))
        b = hash_normal(3, np.arange(10, dtype=np.uint64))
        assert np.array_equal(a, b)


class TestQuantizeCoords:
    def test_nearby_points_same_key(self):
        pts = np.array([[1.0, 2.0], [1.0 + 1e-9, 2.0 - 1e-9]])
        qx, qy = quantize_coords(pts)
        assert qx[0] == qx[1]
        assert qy[0] == qy[1]

    def test_distinct_points_distinct_keys(self):
        pts = np.array([[1.0, 2.0], [1.1, 2.0]])
        qx, _ = quantize_coords(pts)
        assert qx[0] != qx[1]

    def test_negative_coordinates_supported(self):
        pts = np.array([[-1.0, -2.0]])
        qx, qy = quantize_coords(pts)
        assert qx.shape == (1,)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match=r"\(P, 2\)"):
            quantize_coords(np.zeros(4))
