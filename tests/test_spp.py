"""Pyramid pooling contracts: bin geometry, fixed-length outputs, gradient
routing, and agreement between the sliding-window and fractional-bin forms."""

import numpy as np
import pytest

from pyrapool import spp, tensor
from pyrapool.errors import ShapeError
from _oracles import numerical_grad, rel_error, separated_uniform


class TestSlidingPoolParams:
    def test_thirteen_into_three(self):
        assert spp.sliding_pool_params(13, 3) == (5, 4)

    def test_ten_into_three(self):
        assert spp.sliding_pool_params(10, 3) == (4, 3)

    def test_single_bin_covers_map(self):
        assert spp.sliding_pool_params(7, 1) == (7, 7)

    def test_window_sequence_fits_and_covers(self):
        # n windows always fit inside the map; they cover it fully whenever
        # a mod n <= 1 (which holds for every divisor-style configuration the
        # sliding form is used with; the fractional-bin form covers always)
        for a in range(1, 40):
            for n in range(1, a + 1):
                win, stride = spp.sliding_pool_params(a, n)
                last_start = stride * (n - 1)
                assert last_start >= 0
                assert last_start + win <= a
                if a % n <= 1:
                    assert last_start + win == a

    def test_grid_larger_than_map_rejected(self):
        with pytest.raises(ShapeError, match="fractional"):
            spp.sliding_pool_params(3, 4)


class TestBinRange:
    def test_ten_into_three_columns(self):
        ranges = [spp.bin_range(i, 1, 3, 10, 10) for i in (1, 2, 3)]
        assert [(r.c0, r.c1) for r in ranges] == [(0, 4), (3, 7), (6, 10)]

    def test_whole_map_bin(self):
        r = spp.bin_range(1, 1, 1, 7, 7)
        assert (r.c0, r.c1, r.r0, r.r1) == (0, 7, 0, 7)

    def test_more_bins_than_cells_overlap_but_never_empty(self):
        ranges = [spp.bin_range(i, 1, 3, 2, 1) for i in (1, 2, 3)]
        assert [(r.c0, r.c1) for r in ranges] == [(0, 1), (0, 2), (1, 2)]

    def test_coverage_no_gap_sweep(self):
        # exhaustive: bins tile [0, w) with no gaps and no empty bin
        for n in range(1, 9):
            for w in range(1, 65):
                ranges = [spp.bin_range(i, 1, n, w, 1) for i in range(1, n + 1)]
                covered = np.zeros(w, dtype=bool)
                for r in ranges:
                    assert r.c1 > r.c0
                    assert 0 <= r.c0 and r.c1 <= w
                    covered[r.c0:r.c1] = True
                assert covered.all()
                for a, b in zip(ranges, ranges[1:]):
                    assert b.c0 <= a.c1  # no gap

    def test_agreement_with_sliding_when_divisible(self):
        rng = np.random.default_rng(11)
        for a in (4, 6, 8, 12, 16):
            for n in (1, 2, 4):
                if a % n:
                    continue
                x = rng.normal(size=(1, 3, a, a)).astype(np.float32)
                win, stride = spp.sliding_pool_params(a, n)
                slid, _ = tensor.maxpool_forward(x, (win, win), (stride, stride))
                assert slid.shape[-2:] == (n, n)
                binned, _ = spp.spp_forward_batch(x, spp.PyramidSpec([n]))
                # sliding output is (B,C,n,n); binned is (bin, channel)-ordered
                reordered = slid[0].transpose(1, 2, 0).reshape(-1)
                np.testing.assert_array_equal(binned[0], reordered)


class TestSppForward:
    def test_fifty_bin_pyramid_length(self):
        x = np.zeros((256, 4, 5), np.float32)
        out, _ = spp.spp_forward(x, spp.PyramidSpec([6, 3, 2, 1]))
        assert out.shape == (12800,)

    def test_thirty_bin_pyramid_length(self):
        x = np.zeros((256, 7, 9), np.float32)
        out, _ = spp.spp_forward(x, spp.PyramidSpec([4, 3, 2, 1]))
        assert out.shape == (7680,)

    def test_constant_map(self):
        x = np.full((3, 5, 7), 2.5, np.float32)
        out, _ = spp.spp_forward(x, spp.PyramidSpec([3, 2, 1]))
        np.testing.assert_array_equal(out, np.full(3 * 14, 2.5))

    def test_output_order_level_bin_channel(self):
        # 2 channels, 2x2 map, pyramid [2,1]: level 2 bins are single cells
        x = np.array([[[1, 2], [3, 4]], [[10, 20], [30, 40]]], dtype=np.float32)
        out, _ = spp.spp_forward(x, spp.PyramidSpec([2, 1]))
        expect = [1, 10, 2, 20, 3, 30, 4, 40,  # level 2, bins row-major
                  4, 40]                       # level 1, global max
        np.testing.assert_array_equal(out, expect)

    def test_single_level_is_global_max(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(5, 9, 4)).astype(np.float32)
        out, _ = spp.spp_forward(x, spp.PyramidSpec([1]))
        np.testing.assert_array_equal(out, x.max(axis=(1, 2)))

    def test_fixed_length_sweep(self):
        pyr = spp.PyramidSpec([6, 3, 2, 1])
        rng = np.random.default_rng(13)
        base = rng.normal(size=(2, 40, 40)).astype(np.float32)
        for h in range(1, 41, 7):
            for w in range(1, 41, 5):
                out, _ = spp.spp_forward(base[:, :h, :w], pyr)
                assert out.shape == (2 * 50,)

    def test_channel_permutation_equivariance(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(6, 8, 11)).astype(np.float32)
        pyr = spp.PyramidSpec([3, 1])
        perm = rng.permutation(6)
        out, _ = spp.spp_forward(x, pyr)
        pout, _ = spp.spp_forward(x[perm], pyr)
        np.testing.assert_array_equal(pout.reshape(-1, 6),
                                      out.reshape(-1, 6)[:, perm])

    def test_empty_map_rejected(self):
        with pytest.raises(ShapeError):
            spp.spp_forward(np.zeros((3, 0, 4), np.float32),
                            spp.PyramidSpec([1]))

    def test_bad_levels_rejected(self):
        with pytest.raises(ShapeError):
            spp.PyramidSpec([2, 0])

    def test_matches_bin_max_oracle_on_every_small_map(self):
        # maps the grids do not divide, and grids finer than the map (n > h
        # or n > w): each output is the max over its `bin_range` cells, and
        # its argmax index points at a cell of that bin holding the value
        rng = np.random.default_rng(15)
        levels = (6, 5, 4, 3, 2, 1)
        for h in range(1, 13):
            for w in range(1, 13):
                x = rng.normal(size=(2, h, w)).astype(np.float32)
                out, argmax = spp.spp_forward(x, spp.PyramidSpec(levels))
                expect, cells = [], []
                for n in levels:
                    for j in range(1, n + 1):
                        for i in range(1, n + 1):
                            r = spp.bin_range(i, j, n, w, h)
                            for c in range(2):
                                expect.append(
                                    np.max(x[c, r.r0:r.r1, r.c0:r.c1]))
                                cells.append((c, r))
                np.testing.assert_array_equal(out, expect)
                for idx, (c, r) in zip(argmax, cells):
                    cc, rest = divmod(int(idx), h * w)
                    row, col = divmod(rest, w)
                    assert cc == c
                    assert r.r0 <= row < r.r1 and r.c0 <= col < r.c1
                np.testing.assert_array_equal(x.reshape(-1)[argmax], out)


class TestSppBackward:
    def test_zero_grad(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 3)).astype(np.float32)
        pyr = spp.PyramidSpec([2, 1])
        out, argmax = spp.spp_forward(x, pyr)
        g = spp.spp_backward(np.zeros_like(out), argmax, x.shape)
        assert not g.any()

    def test_single_bin_routes_to_global_max(self):
        rng = np.random.default_rng(15)
        x = separated_uniform(rng, (1, 4, 5)).astype(np.float32)
        out, argmax = spp.spp_forward(x, spp.PyramidSpec([1]))
        g = spp.spp_backward(np.array([2.0], np.float32), argmax, x.shape)
        assert g.sum() == 2.0
        assert g.ravel()[x.ravel().argmax()] == 2.0

    def test_length_mismatch_rejected(self):
        x = np.zeros((1, 2, 2), np.float32)
        out, argmax = spp.spp_forward(x, spp.PyramidSpec([1]))
        with pytest.raises(ShapeError):
            spp.spp_backward(np.zeros(5, np.float32), argmax, x.shape)

    @pytest.mark.parametrize("trial", range(50))
    def test_finite_differences(self, trial):
        rng = np.random.default_rng(900 + trial)
        k = int(rng.integers(1, 4))
        h = int(rng.integers(1, 7))
        w = int(rng.integers(1, 7))
        x = separated_uniform(rng, (k, h, w))
        pyr = spp.PyramidSpec([3, 2, 1])
        out, argmax = spp.spp_forward(x, pyr)
        r = rng.normal(size=out.shape)
        g = spp.spp_backward(r, argmax, x.shape)
        num = numerical_grad(
            lambda v: float((spp.spp_forward(v, pyr)[0] * r).sum()), x)
        assert rel_error(g, num) < 1e-4
