"""Image<->feature-map geometry: stride products, boundary projection,
scale selection, bilinear resizing, and the IoU matrix."""

import numpy as np
import pytest

from pyrapool import geometry as geo
from pyrapool.errors import GraphError, ShapeError
from _oracles import oracle_resize_to, reference_iou

W = geo.WindowRect


class TestStrideProduct:
    def test_zf5_conv5(self):
        assert geo.stride_product(geo.ZF5_CONV5_LAYERS) == 16

    def test_overfeat(self):
        assert geo.stride_product(geo.OVERFEAT_CONV_LAYERS) == 12

    def test_all_stride_one(self):
        layers = [geo.GeomLayer(3, 1, 1)] * 5
        assert geo.stride_product(layers) == 1

    def test_geometry_rejects_wrong_padding(self):
        with pytest.raises(GraphError, match="pads 0"):
            geo.FeatureGeometry([geo.GeomLayer(3, 1, 0)])

    def test_geometry_accepts_deploy_padding(self):
        g = geo.FeatureGeometry(geo.ZF5_CONV5_LAYERS)
        assert g.stride == 16


class TestReceptiveCenter:
    def test_origin(self):
        assert geo.receptive_center(0, 16) == 0

    def test_cell_seven(self):
        assert geo.receptive_center(7, 16) == 112

    def test_overfeat_stride(self):
        assert geo.receptive_center(3, 12) == 36


class TestMapWindow:
    def test_left_formula(self):
        r = geo.map_window(geo.WindowRect(100, 100, 200, 200), 16, (30, 30))
        assert r.fx0 == 100 // 16 + 1 == 7
        assert r.fy0 == 7

    def test_right_formula(self):
        r = geo.map_window(geo.WindowRect(100, 100, 200, 200), 16, (30, 30))
        assert r.fx1 == -(-200 // 16) - 1 == 12

    def test_left_edge_quirk_and_clamp(self):
        # x=0 maps to cell 1 under the verbatim formula; the full-image
        # window still lands inside the map after clamping
        full = geo.WindowRect(0, 0, 224, 224)
        r = geo.map_window(full, 16, (14, 14))
        assert (r.fx0, r.fy0) == (1, 1)
        assert (r.fx1, r.fy1) == (13, 13)

    def test_tiny_window_never_empty(self):
        r = geo.map_window(geo.WindowRect(40, 40, 44, 44), 16, (14, 14))
        assert r.fx1 >= r.fx0 and r.fy1 >= r.fy0
        assert r.width == 1 and r.height == 1

    def test_outside_window_rejected(self):
        with pytest.raises(ShapeError, match="outside"):
            geo.map_window(geo.WindowRect(500, 0, 600, 10), 16, (14, 14))

    def test_mapping_consistency_sweep(self):
        # the receptive-field-center window of any cell maps to a rect
        # containing that cell
        for s in (4, 8, 12, 16):
            for cell in range(21):
                center = geo.receptive_center(cell, s)
                for half in (s // 2, s, 2 * s):
                    win = geo.WindowRect(center - half, center - half,
                                         center + half, center + half)
                    r = geo.map_window(win, s, (40, 40))
                    assert r.fx0 <= cell <= r.fx1
                    assert r.fy0 <= cell <= r.fy1

    def test_monotonicity(self):
        # enlarging a window never shrinks its feature rect; windows at least
        # 2S wide so no rect needs the degenerate right=left fixup (the fixup
        # direction is not monotone for sub-2S slivers)
        rng = np.random.default_rng(21)
        for _ in range(300):
            s = int(rng.choice([4, 8, 16]))
            x0 = int(rng.integers(0, 28 * s))
            y0 = int(rng.integers(0, 28 * s))
            w = int(rng.integers(2 * s, 10 * s))
            h = int(rng.integers(2 * s, 10 * s))
            inner = geo.WindowRect(x0, y0, x0 + w, y0 + h)
            grow = [int(g) for g in rng.integers(0, 30, size=4)]
            outer = geo.WindowRect(x0 - grow[0], y0 - grow[1],
                                   x0 + w + grow[2], y0 + h + grow[3])
            ri = geo.map_window(inner, s, (40, 40))
            ro = geo.map_window(outer, s, (40, 40))
            assert ro.fx0 <= ri.fx0 and ro.fy0 <= ri.fy0
            assert ro.fx1 >= ri.fx1 and ro.fy1 >= ri.fy1

    def test_boundary_distance_oracle(self):
        # the chosen boundary cell's receptive center stays within
        # S/2 + S/2 rounding slack of the window boundary (pre-clamp rule)
        rng = np.random.default_rng(22)
        for _ in range(1000):
            s = int(rng.choice([4, 8, 12, 16]))
            x0 = int(rng.integers(0, 400))
            x1 = x0 + int(rng.integers(2 * s, 200))
            fx0 = x0 // s + 1
            fx1 = -(-x1 // s) - 1
            bound = s / 2 + s / 2
            assert abs(geo.receptive_center(fx0, s) - x0) <= bound
            assert abs(geo.receptive_center(fx1, s) - x1) <= bound
            # and map_window applies exactly these formulas
            r = geo.map_window(geo.WindowRect(x0, 0, x1, s), s, (1000, 1000))
            assert r.fx0 == fx0 and r.fx1 == fx1


class TestSelectScale:
    SCALES = (480, 576, 688, 864, 1200)

    def test_hundred_pixel_window(self):
        win = geo.WindowRect(0, 0, 100, 100)
        assert geo.select_scale(win, (400, 500), self.SCALES) == 864

    def test_exact_match(self):
        win = geo.WindowRect(10, 10, 234, 234)
        assert geo.select_scale(win, (400, 500), (300, 400, 500)) == 400

    def test_tiny_window_takes_largest_scale(self):
        win = geo.WindowRect(5, 5, 6, 6)
        assert geo.select_scale(win, (400, 500), self.SCALES) == 1200

    def test_tie_goes_to_smaller_scale(self):
        # windows 56x56 in a 112-min-side image: scales 112 and 336 give
        # areas 56^2*1=3136... construct a symmetric tie around the target
        win = geo.WindowRect(0, 0, 112, 112)
        # f=1 -> 112^2=12544; f=3 -> 336^2=112896: target 224^2=50176
        # |12544-50176|=37632, |112896-50176|=62720 -> no tie; use crafted pair
        assert geo.select_scale(win, (112, 112), (224, 224)) == 224

    def test_matches_brute_force(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            iw = int(rng.integers(50, 800))
            ih = int(rng.integers(50, 800))
            x0 = int(rng.integers(0, iw - 2))
            y0 = int(rng.integers(0, ih - 2))
            win = geo.WindowRect(x0, y0, x0 + int(rng.integers(1, iw - x0)),
                                 y0 + int(rng.integers(1, ih - y0)))
            best, best_err = None, None
            for s in sorted(self.SCALES):
                f = s / min(iw, ih)
                err = abs(win.width * f * win.height * f - 224 * 224)
                if best_err is None or err < best_err:
                    best, best_err = s, err
            assert geo.select_scale(win, (iw, ih), self.SCALES) == best


class TestResize:
    def test_exact_halving(self):
        img = np.zeros((1, 600, 400), np.float32)  # h=600, w=400
        out = geo.resize_image(img, 200)
        assert out.shape == (1, 300, 200)

    def test_identity(self):
        rng = np.random.default_rng(24)
        img = rng.uniform(0, 255, size=(3, 64, 64)).astype(np.float32)
        out = geo.resize_image(img, 64)
        np.testing.assert_array_equal(out, img)

    def test_round_half_up(self):
        img = np.zeros((1, 341, 256), np.float32)
        out = geo.resize_image(img, 224)
        assert out.shape == (1, 298, 224)  # 341*224/256 = 298.375

    def test_bilinear_interpolates(self):
        img = np.array([[0.0, 2.0]], np.float64)[None]
        out = geo.resize_to(img, 1, 4)
        assert out[0, 0, 0] <= out[0, 0, 1] <= out[0, 0, 2] <= out[0, 0, 3]
        np.testing.assert_allclose(out[0, 0].mean(), 1.0, atol=0.26)


    @pytest.mark.parametrize("trial", range(40))
    def test_matches_two_gather_oracle(self, trial):
        # up- and down-scaling, one side of each, same size, and sides of
        # 1 to 60 pixels resized to 1 to 130, byte for byte
        rng = np.random.default_rng(900 + trial)
        c = (1, 3)[trial % 2]
        dtype = (np.float32, np.float64, np.uint8)[trial % 3]
        for _ in range(50):
            h, w = (int(v) for v in rng.integers(1, 61, 2))
            kind = int(rng.integers(4))
            if kind == 0:
                new_h, new_w = h, w
            elif kind == 1:
                new_h, new_w = (int(rng.integers(1, m + 1)) for m in (h, w))
            elif kind == 2:
                new_h, new_w = (int(rng.integers(m, 131)) for m in (h, w))
            else:
                new_h, new_w = (int(v) for v in rng.integers(1, 131, 2))
            img = rng.uniform(0, 255, (c, h, w)).astype(dtype)
            got = geo.resize_to(img, new_h, new_w)
            expect = oracle_resize_to(img, new_h, new_w)
            assert got.dtype == expect.dtype and got.shape == expect.shape
            assert got.tobytes() == expect.tobytes(), (h, w, new_h, new_w)

    def test_stacked_images_resize_as_one(self):
        # axis 0 is carried along: a (N*C,H,W) stack resizes to the stack
        # of each image's resize
        rng = np.random.default_rng(940)
        imgs = rng.uniform(0, 255, (5, 3, 17, 23)).astype(np.float32)
        got = geo.resize_to(imgs.reshape(15, 17, 23), 32, 40)
        for i, img in enumerate(imgs):
            assert (got[3 * i:3 * i + 3].tobytes()
                    == geo.resize_to(img, 32, 40).tobytes())


def _related_windows(rng, n):
    """n random windows, each followed by an identical, a nested, an
    edge-touching, a corner-touching, a disjoint and a shifted partner."""
    out = []
    for _ in range(n):
        x0, y0 = (int(v) for v in rng.integers(-50, 2000, size=2))
        w, h = (int(v) for v in rng.integers(1, 400, size=2))
        dx, dy = int(rng.integers(0, w)), int(rng.integers(0, h))
        out += [W(x0, y0, x0 + w, y0 + h),
                W(x0, y0, x0 + w, y0 + h),
                W(x0 + dx, y0 + dy, x0 + w, y0 + h),
                W(x0 + w, y0, x0 + 2 * w, y0 + h),
                W(x0 + w, y0 + h, x0 + w + 3, y0 + h + 3),
                W(x0 - 9, y0 + h + 1, x0, y0 + 2 * h + 1),
                W(x0 + dx, y0 - dy, x0 + dx + w, y0 - dy + h)]
    return out


class TestIouMatrix:
    def test_equals_scalar_reference_bit_for_bit(self):
        rng = np.random.default_rng(25)
        for _ in range(5):
            a = _related_windows(rng, 12)
            b = [a[i] for i in rng.permutation(len(a))][:50]
            b += _related_windows(rng, 3)
            m = geo.iou_matrix(a, b)
            expect = np.array([[reference_iou(p, q) for q in b] for p in a])
            assert m.dtype == np.float64 and m.shape == (len(a), len(b))
            assert m.tobytes() == expect.tobytes()
            assert (m == 0).any() and (m == 1).any()
            assert ((m > 0) & (m < 1)).any()

    def test_exactly_symmetric(self):
        a = _related_windows(np.random.default_rng(26), 20)
        m = geo.iou_matrix(a, a)
        assert m.tobytes() == m.T.copy().tobytes()
        assert (np.diag(m) == 1.0).all()

    def test_empty_sides(self):
        a = _related_windows(np.random.default_rng(27), 2)
        assert geo.iou_matrix([], a).shape == (0, len(a))
        assert geo.iou_matrix(a, []).shape == (len(a), 0)
        assert geo.iou_matrix([], []).dtype == np.float64

    def test_arrays_equal_sequences_bit_for_bit(self):
        rng = np.random.default_rng(29)
        a = _related_windows(rng, 10)
        b = _related_windows(rng, 4)
        m = geo.iou_matrix(a, b)
        for x, y in ((geo.window_array(a), b), (a, geo.window_array(b)),
                     (geo.window_array(a), geo.window_array(b))):
            assert geo.iou_matrix(x, y).tobytes() == m.tobytes()


def _scalar_projection(win, image_size, sizes, stride, view):
    """The per-window chain that `project_windows` vectorises: the row of
    `sizes` the window pools from, and its rect."""
    img_w, img_h = image_size
    win = win.clamped(img_w, img_h)
    scales = [min(rw, rh) for rw, rh, _, _ in sizes.tolist()]
    s = geo.select_scale(win, image_size, tuple(scales), view)
    row = scales.index(s)
    rw, rh, map_h, map_w = sizes[row].tolist()
    scaled = win.scaled(s / min(img_w, img_h)).clamped(rw, rh)
    r = geo.map_window(scaled, stride, (map_h, map_w))
    return row, (r.fx0, r.fy0, r.fx1, r.fy1)


def _sizes(image_size, scales, stride, extra=0):
    """`inference.image_maps`'s size table for a floor(kernel/2)-padded
    trunk: per scale, the resized size and at least ceil(side/stride)
    cells, `extra` more for an even pool kernel."""
    rows = []
    for s in scales:
        rw, rh = geo.resized_dims(*image_size, s)
        rows.append((rw, rh, -(-rh // stride) + extra,
                     -(-rw // stride) + extra))
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


class TestProjectWindows:
    def _check(self, windows, image_size, sizes, stride, view):
        arr = geo.window_array(windows)
        rows = geo.project_windows(arr, image_size, sizes, stride, view,
                                   "img")
        assert rows.dtype == np.int64 and rows.shape == (len(windows), 5)
        for win, (row, *rect) in zip(windows, rows.tolist()):
            assert (row, tuple(rect)) == _scalar_projection(
                win, image_size, sizes, stride, view)

    def _random_windows(self, rng, iw, ih):
        windows = []
        for _ in range(int(rng.integers(1, 40))):
            x0 = int(rng.integers(-20, iw))
            y0 = int(rng.integers(-20, ih))
            x1 = max(x0 + 1, 1) + int(rng.integers(0, iw + 20))
            y1 = max(y0 + 1, 1) + int(rng.integers(0, ih + 20))
            windows.append(W(x0, y0, x1, y1))
        return windows

    def test_matches_scalar_chain_on_random_windows(self):
        rng = np.random.default_rng(28)
        for _ in range(200):
            iw, ih = (int(v) for v in rng.integers(8, 200, 2))
            stride = int(rng.choice([1, 2, 3, 4, 12, 16]))
            view = int(rng.choice([8, 16, 32, 224]))
            scales = sorted({int(v) for v in rng.integers(8, 260, 4)})
            sizes = _sizes((iw, ih), scales, stride, int(rng.integers(0, 2)))
            self._check(self._random_windows(rng, iw, ih), (iw, ih), sizes,
                        stride, view)

    def test_rows_in_any_order_and_repeated(self):
        # the table comes in key order, which need not be rising, and a
        # repeated scale pools from its first row
        rng = np.random.default_rng(29)
        for _ in range(100):
            iw, ih = (int(v) for v in rng.integers(8, 200, 2))
            stride = int(rng.choice([1, 2, 4, 16]))
            view = int(rng.choice([8, 16, 32]))
            scales = [int(v) for v in rng.integers(8, 260, 5)]
            scales.append(scales[int(rng.integers(0, 5))])
            sizes = _sizes((iw, ih), scales, stride)
            windows = self._random_windows(rng, iw, ih)
            self._check(windows, (iw, ih), sizes, stride, view)
            reversed_rows = geo.project_windows(
                geo.window_array(windows), (iw, ih), sizes[::-1], stride,
                view, "img")
            in_order = geo.project_windows(
                geo.window_array(windows), (iw, ih), sizes, stride, view,
                "img")
            assert reversed_rows[:, 1:].tolist() == in_order[:, 1:].tolist()

    def test_half_pixel_corners_round_to_even(self):
        # min side 64 at scale 32 halves every coordinate: odd corners land
        # on k + 0.5, and 1.5 -> 2, 2.5 -> 2, 4.5 -> 4, 5.5 -> 6 (half up
        # would give [3, 4, 4, 5] and [3, 4, 5, 4] at stride 1)
        sizes = _sizes((96, 64), (32,), 2)
        windows = [W(3, 5, 9, 11), W(5, 3, 11, 9), W(1, 1, 3, 3),
                   W(0, 0, 96, 64), W(95, 63, 96, 64)]
        self._check(windows, (96, 64), sizes, 2, 16)
        rows = geo.project_windows(geo.window_array(windows[:2]),
                                   (96, 64), sizes, 1, 16, "img")
        assert rows.tolist() == [[0, 3, 3, 3, 5], [0, 3, 3, 5, 3]]

    def test_flush_and_narrow_windows(self):
        iw, ih, stride = 80, 64, 4
        sizes = _sizes((iw, ih), (48, 64, 96), stride)
        windows = [W(0, 0, iw, ih), W(0, 0, 1, 1), W(iw - 1, ih - 1, iw, ih),
                   W(0, 10, 2, 12), W(40, 0, 43, ih), W(10, 10, 11, 60)]
        windows += [W(x, x, x + 3, x + 2) for x in range(0, 60, 7)]
        for view in (4, 32, 64):
            self._check(windows, (iw, ih), sizes, stride, view)

    def test_ties_go_to_the_smaller_scale(self):
        # f = s / 100: 16x20 at scale 50 gives 80 pixels, at 150 gives 720;
        # both are exactly 320 from view 20's 400
        sizes = _sizes((100, 100), (150, 50), 2)
        win = W(0, 0, 16, 20)
        rows = geo.project_windows(geo.window_array([win]), (100, 100),
                                   sizes, 2, 20, "img")
        assert rows[:, 0].tolist() == [1]  # the row of scale 50
        self._check([win], (100, 100), sizes, 2, 20)

    def test_outside_window_names_it_and_the_image(self):
        sizes = _sizes((80, 64), (64,), 4)
        windows = geo.window_array([W(-5, -5, 10, 10), W(80, 0, 90, 10),
                                    W(0, 64, 10, 70)])
        with pytest.raises(ShapeError) as e:
            geo.project_windows(windows, (80, 64), sizes, 4, 32, "img7")
        assert str(e.value) == (f"proposal {W(80, 0, 90, 10)} of image img7 "
                                f"lies outside 80x64")

    def test_window_array_forms(self):
        wins = [W(1, 2, 3, 4), W(5, 6, 7, 9)]
        arr = geo.window_array(wins)
        assert arr.dtype == np.int64 and arr.tolist() == [[1, 2, 3, 4],
                                                          [5, 6, 7, 9]]
        assert geo.window_array(arr.astype(np.int32)).dtype == np.int64
        assert geo.window_array([]).shape == (0, 4)
        with pytest.raises(ShapeError, match=r"\(N,4\) windows"):
            geo.window_array(np.zeros((2, 3)))
        with pytest.raises(ShapeError,
                           match=r"degenerate window \[5, 6, 5, 9\]"):
            geo.window_array(np.array([[1, 2, 3, 4], [5, 6, 5, 9]]))
