"""Pyramid pooling contracts: bin geometry, fixed-length outputs, gradient
routing, and agreement between the sliding-window and fractional-bin forms."""

import numpy as np
import pytest

from pyrapool import spp, tensor
from pyrapool.errors import ShapeError
from _oracles import (numerical_grad, rel_error, separated_uniform,
                      tied_relu)


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


def pool_one_map(featmap, rects, pyr):
    """`pool_rects` of (N,4) rects (fx0, fy0, fx1, fy1), all on `featmap`."""
    rects = np.asarray(rects, dtype=np.int64).reshape(-1, 4)
    return spp.pool_rects([featmap], np.insert(rects, 0, 0, axis=1), pyr)


class TestPoolRects:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_subrect_of_every_map_matches_crop(self, dtype):
        # Every rect of an h x w map (h, w in 1..12) is also a rect of the
        # 12 x 12 map whose top-left block it is, with the same cells, so one
        # reference per rect of the 12 x 12 map serves all 144 map sizes.
        # The reference pools the crops of one size as a batch, which is
        # `spp_forward` of each crop.
        rng = np.random.default_rng(1201)
        pyr = spp.PyramidSpec([6, 5, 4, 3, 2, 1])
        big = tied_relu(rng, (3, 12, 12), dtype)
        reference = {}
        for ch in range(1, 13):
            for cw in range(1, 13):
                crops = np.lib.stride_tricks.sliding_window_view(
                    big, (ch, cw), axis=(1, 2))  # (K, py, px, ch, cw)
                py, px = crops.shape[1:3]
                batch = crops.transpose(1, 2, 0, 3, 4).reshape(
                    py * px, 3, ch, cw)
                pooled, _ = spp.spp_forward_batch(batch, pyr)
                for p, vec in enumerate(pooled):
                    y, x = divmod(p, px)
                    reference[(x, y, x + cw - 1, y + ch - 1)] = vec
        for h in range(1, 13):
            for w in range(1, 13):
                featmap = np.ascontiguousarray(big[:, :h, :w])
                rects = [(x0, y0, x1, y1)
                         for y0 in range(h) for y1 in range(y0, h)
                         for x0 in range(w) for x1 in range(x0, w)]
                out = pool_one_map(featmap, rects, pyr)
                assert out.dtype == dtype
                expect = np.array([reference[r] for r in rects])
                np.testing.assert_array_equal(out, expect)

    def test_single_crop_matches_spp_forward(self):
        rng = np.random.default_rng(1202)
        x = tied_relu(rng, (4, 9, 13), np.float32)
        pyr = spp.PyramidSpec([6, 3, 2, 1])
        out = spp.pool_rects([x], [(0, 2, 1, 10, 7)], pyr)
        expect, _ = spp.spp_forward(x[:, 1:8, 2:11], pyr)
        assert out.shape == (1, 4 * 50)
        np.testing.assert_array_equal(out[0], expect)

    def test_no_rects(self):
        x = np.zeros((2, 3, 3), np.float32)
        out = spp.pool_rects([x], np.zeros((0, 5), int),
                             spp.PyramidSpec([2, 1]))
        assert out.shape == (0, 10)

    @pytest.mark.parametrize("rect", [
        (-1, 0, 2, 2), (0, 0, 5, 2), (0, 0, 2, 3), (2, 0, 1, 2), (0, 2, 2, 1)])
    def test_bad_rect_rejected(self, rect):
        x = np.zeros((2, 3, 5), np.float32)
        with pytest.raises(ShapeError, match="outside the 3x5 map"):
            spp.pool_rects([x], [(0, *rect)], spp.PyramidSpec([1]))

    @pytest.mark.parametrize("featmaps, rects, message", [
        (np.zeros((2, 3, 5)), [(0, 0, 0, 1, 1)], "sequence of (K,H,W) maps"),
        (np.zeros((2, 3, 5)), [(0, 0, 1, 1)], "(N,5) rows"),
        ([np.zeros((2, 3, 5))], [(0, 0, 1, 1)], "(N,5) rows"),
        ([np.zeros((2, 3, 5))], [0, 0, 0, 1, 1], "(N,5) rows")],
        ids=["bare-map", "bare-map-4-columns", "4-columns", "1-d"])
    def test_only_map_sequence_and_five_column_rows(self, featmaps, rects,
                                                    message):
        # a bare (K,H,W) map and rows without the map index were once
        # accepted as a one-map form
        with pytest.raises(ShapeError) as err:
            spp.pool_rects(featmaps, rects, spp.PyramidSpec([1]))
        assert message in str(err.value)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stack_equals_per_map_calls(self, dtype):
        # every map size 1..12, stacks of 1-3 maps with ties, rects in mixed
        # map order: row i is the single-map pooling of its own map
        rng = np.random.default_rng(1204)
        pyr = spp.PyramidSpec([4, 3, 2, 1])
        for h in range(1, 13):
            for w in range(1, 13):
                nmaps = int(rng.integers(1, 4))
                stack = tied_relu(rng, (nmaps, 3, h, w), dtype)
                n = 40
                x0, x1 = np.sort(rng.integers(0, w, (2, n)), axis=0)
                y0, y1 = np.sort(rng.integers(0, h, (2, n)), axis=0)
                maps = rng.integers(0, nmaps, n)
                rects = np.stack([maps, x0, y0, x1, y1], 1)
                out = spp.pool_rects(stack, rects, pyr)
                assert out.dtype == dtype
                for b in range(nmaps):
                    rows = maps == b
                    expect = pool_one_map(stack[b], rects[rows, 1:], pyr)
                    np.testing.assert_array_equal(out[rows], expect)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_maps_of_any_sizes_equal_per_map_calls(self, dtype):
        # 1-5 maps of 1-12 cells a side with ties, rects in mixed map order:
        # row i is the single-map pooling of its own map, bit for bit
        rng = np.random.default_rng(1205)
        for trial in range(150):
            pyr = spp.PyramidSpec([(6, 3, 2, 1), (4, 2, 1), (1,)][trial % 3])
            nmaps = int(rng.integers(1, 6))
            sides = rng.integers(1, 13, (nmaps, 2))
            maps = [tied_relu(rng, (3, h, w), dtype) for h, w in sides]
            n = int(rng.integers(0, 30))
            which = rng.integers(0, nmaps, n)
            h, w = sides[which].T
            x0, x1 = np.sort(rng.integers(0, w, (2, n)), axis=0)
            y0, y1 = np.sort(rng.integers(0, h, (2, n)), axis=0)
            rects = np.stack([which, x0, y0, x1, y1], 1).reshape(-1, 5)
            out = spp.pool_rects(maps, rects, pyr)
            assert out.dtype == dtype
            assert out.shape == (n, 3 * pyr.num_bins)
            for b, featmap in enumerate(maps):
                rows = which == b
                expect = pool_one_map(featmap, rects[rows, 1:], pyr)
                assert out[rows].tobytes() == expect.tobytes(), (trial, b)

    @pytest.mark.parametrize("rect", [
        (0, 0, 0, 5, 1), (0, 0, 0, 1, 2), (1, 2, 0, 2, 3), (2, 0, 3, 0, 3)])
    def test_rect_outside_its_own_map_rejected(self, rect):
        # each rect lies inside the 6-wide or the 4-tall map, but not in the
        # map it names: the error names the rect and that map's size
        maps = [np.zeros((2, 2, 3), np.float32),
                np.zeros((2, 4, 2), np.float32),
                np.zeros((2, 1, 6), np.float32)]
        b = rect[0]
        _, h, w = maps[b].shape
        with pytest.raises(ShapeError) as err:
            spp.pool_rects(maps, [(1, 0, 0, 1, 3), rect], spp.PyramidSpec([1]))
        assert str(list(rect[1:])) in str(err.value)
        assert f"outside the {h}x{w} map {b}" in str(err.value)

    def test_maps_of_any_sizes_no_rects(self):
        maps = [np.zeros((2, 3, 3), np.float32), np.zeros((2, 5, 1), np.float32)]
        out = spp.pool_rects(maps, np.zeros((0, 5), int), spp.PyramidSpec([2, 1]))
        assert out.shape == (0, 10)
        assert out.dtype == np.float32

    def test_maps_must_share_channels(self):
        maps = [np.zeros((2, 3, 3), np.float32), np.zeros((3, 3, 3), np.float32)]
        with pytest.raises(ShapeError, match="one channel count"):
            spp.pool_rects(maps, [(0, 0, 0, 1, 1)], spp.PyramidSpec([1]))

    @pytest.mark.parametrize("index", [-1, 2, 7])
    def test_bad_map_index_rejected(self, index):
        x = np.zeros((2, 2, 3, 5), np.float32)
        rects = [(0, 0, 0, 1, 1), (index, 0, 0, 1, 1)]
        with pytest.raises(ShapeError, match=f"names map {index} of a stack "
                                             f"of 2"):
            spp.pool_rects(x, rects, spp.PyramidSpec([1]))

    def test_stack_rects_must_be_n_by_5(self):
        with pytest.raises(ShapeError, match=r"\(N,5\)"):
            spp.pool_rects(np.zeros((2, 2, 3, 5)), [(0, 0, 1, 1)],
                           spp.PyramidSpec([1]))

    def test_memory_stays_under_docstring_bound(self):
        # zf5-sized conv5 map, then a stack of two, then three maps of
        # unequal sizes, and a selective-search-sized proposal set
        import tracemalloc
        k, h, w, n = 256, 75, 100, 2000
        pyr = spp.PyramidSpec([6, 3, 2, 1])
        for nmaps in (1, 2, "ragged"):
            rng = np.random.default_rng(1203)
            if nmaps == "ragged":
                sides = [(h, w), (56, 75), (38, 50)]
                featmap = [np.maximum(rng.normal(size=(k, *hw)), 0).astype(
                    np.float32) for hw in sides]
            else:
                featmap = np.maximum(rng.normal(size=(nmaps, k, h, w)),
                                     0).astype(np.float32)
                sides = [(h, w)] * nmaps
            which = rng.integers(0, len(sides), n)
            mh, mw = np.array(sides)[which].T
            x0 = rng.integers(0, mw)
            y0 = rng.integers(0, mh)
            rects = np.stack(
                [which, x0, y0,
                 np.minimum(mw - 1, x0 + rng.integers(0, 60, n)),
                 np.minimum(mh - 1, y0 + rng.integers(0, 45, n))], 1)
            tracemalloc.start()
            try:
                out = spp.pool_rects(featmap, rects, pyr)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            bins = n * pyr.num_bins
            # the table: sum of heights x widest width x K values
            table = sum(hh for hh, _ in sides) * max(ww for _, ww in sides) * k
            bound = (out.nbytes + 3 * table * 4
                     + 2 * max(table, 1 << 16) * 4 + 120 * bins)
            assert peak < bound, (f"{nmaps} maps: peak {peak / 1e6:.1f} MB "
                                  f">= {bound / 1e6:.1f} MB")


class TestPoolMaps:
    @pytest.mark.parametrize("trial", range(20))
    def test_matches_spp_forward_batch(self, trial):
        rng = np.random.default_rng(1300 + trial)
        b, k, h, w = (int(v) for v in rng.integers(1, 9, 4))
        x = tied_relu(rng, (b, k, h, w), np.float32)
        pyr = spp.PyramidSpec([4, 3, 2, 1])
        expect, _ = spp.spp_forward_batch(x, pyr)
        np.testing.assert_array_equal(spp.pool_maps(x, pyr), expect)
