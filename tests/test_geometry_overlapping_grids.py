"""Unit tests for repro.geometry.overlapping_grids (§3.2.3 geometry)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro
from repro import CentroidLocalizer, ExperimentConfig, UnlocalizedPolicy
from repro.geometry import MeasurementGrid, OverlappingGridLayout
from repro.sim import build_world


@pytest.fixture
def paper_layout():
    """The exact paper layout: Side=100, gridSide=2R=30, N_G=400."""
    return OverlappingGridLayout.for_radio_range(100.0, 15.0, 400)


class TestConstruction:
    def test_for_radio_range_sets_grid_side(self, paper_layout):
        assert paper_layout.grid_side == 30.0

    def test_grids_per_axis(self, paper_layout):
        assert paper_layout.grids_per_axis == 20

    def test_rejects_non_square_num_grids(self):
        with pytest.raises(ValueError, match="perfect square"):
            OverlappingGridLayout(100.0, 30.0, 300)

    def test_rejects_single_grid(self):
        with pytest.raises(ValueError, match="perfect square"):
            OverlappingGridLayout(100.0, 30.0, 1)

    def test_rejects_grid_side_exceeding_side(self):
        with pytest.raises(ValueError, match="grid_side"):
            OverlappingGridLayout(100.0, 120.0, 4)


class TestCenters:
    def test_paper_center_formula(self, paper_layout):
        # Xc(i,j) = gridSide/2 + (i-1)(Side - gridSide)/(sqrt(NG)-1)
        for i in (1, 2, 20):
            expected = 15.0 + (i - 1) * 70.0 / 19.0
            assert paper_layout.center(i, 1).x == pytest.approx(expected)

    def test_extreme_grids_flush_with_borders(self, paper_layout):
        first = paper_layout.center(1, 1)
        last = paper_layout.center(20, 20)
        half = paper_layout.grid_side / 2.0
        assert first.x - half == pytest.approx(0.0)
        assert last.x + half == pytest.approx(100.0)

    def test_centers_count_and_order(self, paper_layout):
        centers = paper_layout.centers()
        assert centers.shape == (400, 2)
        # Row-major over (i, j): row k <-> G(k//20+1, k%20+1)
        assert centers[0].tolist() == [15.0, 15.0]
        assert np.allclose(centers[19], [15.0, 85.0])
        assert np.allclose(centers[20], paper_layout.center(2, 1).as_array())

    def test_center_rejects_out_of_range_indices(self, paper_layout):
        with pytest.raises(ValueError):
            paper_layout.center(0, 1)
        with pytest.raises(ValueError):
            paper_layout.center(1, 21)

    def test_centers_cached(self, paper_layout):
        assert paper_layout.centers() is paper_layout.centers()


class TestMembership:
    def test_masks_shape(self, paper_layout):
        grid = MeasurementGrid(100.0, 5.0)
        masks = paper_layout.membership_masks(grid)
        assert masks.shape == (400, grid.num_points)

    def test_points_per_grid_close_to_paper_formula(self, paper_layout):
        grid = MeasurementGrid(100.0, 1.0)
        pg = paper_layout.points_per_grid(grid)
        # P_G = P_T (2R)^2 / Side^2 = 10201 * 900/10000 ≈ 918; lattice
        # quantization makes it 900–961 (31^2) depending on alignment.
        assert pg.min() >= 900
        assert pg.max() <= 31 * 31

    def test_mask_matches_direct_check(self, paper_layout):
        grid = MeasurementGrid(100.0, 10.0)
        masks = paper_layout.membership_masks(grid)
        centers = paper_layout.centers()
        pts = grid.points()
        g = 137
        expected = (np.abs(pts[:, 0] - centers[g, 0]) <= 15.0 + 1e-9) & (
            np.abs(pts[:, 1] - centers[g, 1]) <= 15.0 + 1e-9
        )
        assert np.array_equal(masks[g], expected)

    def test_masks_cached_per_lattice(self, paper_layout):
        grid = MeasurementGrid(100.0, 10.0)
        assert paper_layout.membership_masks(grid) is paper_layout.membership_masks(grid)

    def test_rejects_mismatched_side(self, paper_layout):
        with pytest.raises(ValueError, match="side"):
            paper_layout.membership_masks(MeasurementGrid(60.0, 3.0))


class TestCumulativeValues:
    def test_uniform_values_give_point_counts(self, small_layout, small_grid):
        ones = np.ones(small_grid.num_points)
        cumulative = small_layout.cumulative_values(small_grid, ones)
        assert np.array_equal(cumulative, small_layout.points_per_grid(small_grid))

    def test_delta_value_hits_containing_grids_only(self, small_layout, small_grid):
        values = np.zeros(small_grid.num_points)
        idx = small_grid.index_of((30.0, 30.0))
        values[idx] = 5.0
        cumulative = small_layout.cumulative_values(small_grid, values)
        masks = small_layout.membership_masks(small_grid)
        containing = masks[:, idx]
        assert np.all(cumulative[containing] == 5.0)
        assert np.all(cumulative[~containing] == 0.0)

    def test_rejects_wrong_length(self, small_layout, small_grid):
        with pytest.raises(ValueError, match="shape"):
            small_layout.cumulative_values(small_grid, np.ones(3))


#: (side, step, R) of the lattices the blocked product is held to: the
#: paper's, a coarse one and two small ones.
LATTICES = ((100.0, 1.0, 15.0), (100.0, 5.0, 15.0), (60.0, 5.0, 15.0), (30.0, 5.0, 10.0))
#: Every perfect-square N_G from 4 to 900.
NUM_GRIDS = tuple(root * root for root in range(2, 31))

_ONE_SHOT = """
import json, sys
import numpy as np
from repro.geometry import MeasurementGrid, OverlappingGridLayout
for line in sys.stdin:
    side, step, grid_side, num_grids, vectors = json.loads(line)
    grid = MeasurementGrid(side, step)
    products = {}
    for n in num_grids:
        weights = OverlappingGridLayout(side, grid_side, n).membership_masks(grid)
        weights = weights.astype(float)
        products[n] = [(weights @ np.asarray(v)).tolist() for v in vectors]
    print(json.dumps(products), flush=True)
"""


class OneShotProduct:
    """The one-shot ``masks.astype(float) @ vals`` that the blocked
    ``cumulative_values`` replaced, kept here as its reference.

    It runs in a child process pinned to one BLAS thread.  A multithreaded
    gemv splits the N_G rows between threads, and a share that is not a
    multiple of four rows moves the one-shot sums' last bits (seen at
    N_G ≡ 4 mod 8 with two OpenBLAS threads), so only the one-thread
    product is a fixed reference.  Floats cross the pipe as JSON, whose
    shortest round-trip repr is exact.
    """

    def __init__(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        env = dict(
            os.environ,
            PYTHONPATH=path,
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self._child = subprocess.Popen(
            [sys.executable, "-c", _ONE_SHOT],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )

    def __call__(self, grid, grid_side, num_grids, vectors) -> dict:
        """``{N_G: [product per vector]}`` for each N_G in ``num_grids``."""
        request = [grid.side, grid.step, grid_side, list(num_grids)]
        request.append([np.asarray(v, dtype=float).tolist() for v in vectors])
        self._child.stdin.write(json.dumps(request) + "\n")
        self._child.stdin.flush()
        reply = self._child.stdout.readline()
        if not reply:
            raise RuntimeError("the one-shot reference process exited")
        return {
            int(n): [np.asarray(p, dtype=float) for p in products]
            for n, products in json.loads(reply).items()
        }

    def close(self):
        self._child.stdin.close()
        self._child.wait(timeout=60)


@pytest.fixture(scope="module")
def one_shot():
    product = OneShotProduct()
    yield product
    product.close()


def error_vectors(side, step, radio_range) -> list:
    """Grid's inputs on one lattice: all-zero, real LE surfaces at a sparse
    and a dense noisy field, and an ``EXCLUDE`` surface with NaN → 0 as
    :meth:`~repro.placement.GridPlacement.cumulative_errors` feeds it."""
    config = ExperimentConfig(
        side=side, radio_range=radio_range, step=step, fields_per_density=1, seed=5
    )
    sparse = build_world(config, 0.0, 6, 0).errors()
    dense = build_world(config, 0.3, 40, 0).errors()
    exclude = build_world(
        config, 0.5, 12, 0,
        localizer=CentroidLocalizer(side, UnlocalizedPolicy.EXCLUDE),
    ).errors()
    assert np.isnan(exclude).any() and not np.isnan(exclude).all()
    zeros = np.zeros_like(sparse)
    return [zeros, sparse, dense, np.nan_to_num(exclude, nan=0.0)]


def assert_bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


class TestBlockedProductMatchesOneShot:
    """``cumulative_values`` casts the bool masks eight rows at a time; its
    sums must equal the one-shot product's to the bit, for every N_G."""

    @pytest.fixture(scope="class")
    def references(self, one_shot):
        cache = {}

        def lookup(side, step, radio_range):
            key = (side, step, radio_range)
            if key not in cache:
                grid = MeasurementGrid(side, step)
                vectors = error_vectors(side, step, radio_range)
                products = one_shot(grid, 2.0 * radio_range, NUM_GRIDS, vectors)
                cache[key] = (grid, vectors, products)
            return cache[key]

        return lookup

    @pytest.mark.parametrize("num_grids", NUM_GRIDS)
    @pytest.mark.parametrize("side,step,radio_range", LATTICES)
    def test_error_surfaces(self, references, side, step, radio_range, num_grids):
        grid, vectors, products = references(side, step, radio_range)
        layout = OverlappingGridLayout.for_radio_range(side, radio_range, num_grids)
        for values, expected in zip(vectors, products[num_grids]):
            assert_bits_equal(layout.cumulative_values(grid, values), expected)

    @given(data=st.data(), lattice=st.sampled_from(LATTICES[1:]))
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_vectors(self, one_shot, data, lattice):
        side, step, radio_range = lattice
        grid = MeasurementGrid(side, step)
        num_grids = data.draw(st.sampled_from(NUM_GRIDS))
        values = data.draw(
            arrays(
                np.float64,
                grid.num_points,
                elements=st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
            )
        )
        layout = OverlappingGridLayout.for_radio_range(side, radio_range, num_grids)
        (expected,) = one_shot(grid, layout.grid_side, [num_grids], [values])[num_grids]
        assert_bits_equal(layout.cumulative_values(grid, values), expected)
