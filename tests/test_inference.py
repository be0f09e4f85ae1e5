"""View generation and feature-map view pooling."""

import numpy as np
import pytest

from pyrapool import inference, net
from pyrapool import spp as spp_mod
from pyrapool.errors import ShapeError
from pyrapool.geometry import WindowRect, resized_dims
from pyrapool.tensor import softmax

from _oracles import hflipped, oracle_predict_views, view_to_feature_rect


class TestTenViews:
    def test_positions_on_256_square(self):
        views = inference.ten_view_windows((256, 256), s=256, view=224)
        assert len(views) == 10
        corners = {(v.window.x0, v.window.y0) for v in views if not v.flip}
        assert corners == {(16, 16), (0, 0), (0, 32), (32, 0), (32, 32)}
        assert {v.flip for v in views} == {False, True}

    def test_full_size_view_degenerates_to_identical_windows(self):
        views = inference.ten_view_windows((256, 256), s=256, view=256)
        unflipped = [v.window for v in views if not v.flip]
        assert len(unflipped) == 5
        assert all(w == unflipped[0] for w in unflipped)

    def test_count_always_ten(self):
        for size in ((256, 256), (300, 400), (640, 256)):
            assert len(inference.ten_view_windows(size)) == 10

    def test_too_small_rejected(self):
        with pytest.raises(ShapeError, match="do not fit"):
            inference.ten_view_windows((300, 300), s=200, view=224)


class TestMultiViews:
    def test_96_views_for_six_scales(self):
        views = inference.multi_view_windows((500, 375))
        assert len(views) == 96

    def test_six_views_at_scale_224(self):
        views = inference.multi_view_windows((500, 375), scales=(224,))
        assert len(views) == 6

    def test_exact_dedup(self):
        views = inference.multi_view_windows((500, 375))
        assert len(views) == len(set((v.scale, v.window, v.flip)
                                     for v in views))

    def test_square_image_collapses_further(self):
        # on a square image every scale-==view position coincides entirely
        views = inference.multi_view_windows((300, 300), scales=(224,))
        assert len(views) == 2  # one position x two flips


class TestPredictViews:
    def setup_method(self):
        self.spec = net.toy_shape_net()
        self.params = net.ParameterStore(seed=41, sigma=0.05)
        rng = np.random.default_rng(42)
        self.pixels = rng.uniform(0, 255, size=(1, 40, 40)).astype(np.float32)

    def test_single_full_image_view_equals_plain_forward(self):
        full = [inference.View(40, WindowRect(0, 0, 40, 40), False)]
        via_views = inference.predict_views(self.spec, self.params,
                                            self.pixels, full)
        inst = net.instantiate(self.spec, (40, 40), self.params)
        from pyrapool import dataio
        x = dataio.preprocess(self.pixels)
        direct = inst.predict_proba(x[None])[0]
        np.testing.assert_allclose(via_views, direct, atol=1e-7)

    @pytest.mark.parametrize("flip", [False, True])
    def test_full_image_view_is_exactly_the_full_forward(self, flip):
        # the border snapping makes a whole-image view pool exactly the whole
        # map, at any scale and on either flip, so its probabilities are the
        # plain forward pass's bit for bit
        wide = np.random.default_rng(50).uniform(
            0, 255, (1, 40, 57)).astype(np.float32)
        softmax_layer = self.spec.layers[-1].name
        for pixels in (self.pixels, wide):
            for s in (24, 29, 36, 40, 47):
                rw, rh = resized_dims(pixels.shape[2], pixels.shape[1], s)
                full = inference.View(s, WindowRect(0, 0, rw, rh), flip)
                got = inference.predict_views(
                    self.spec, self.params, pixels, [full]).astype(np.float32)
                inst, x = inference.network_input(self.spec, self.params,
                                                  pixels, s, (flip,))
                expect = inst.predict_proba(x)[0]
                assert got.tobytes() == expect.tobytes(), (pixels.shape, s)
                if not flip:
                    rep = inference.full_image_representation(
                        self.spec, self.params, pixels, s, layer=softmax_layer)
                    assert got.tobytes() == rep.tobytes(), (pixels.shape, s)

    def test_duplicated_views_do_not_change_prediction(self):
        views = inference.ten_view_windows((40, 40), s=36, view=32)
        once = inference.predict_views(self.spec, self.params, self.pixels,
                                       views)
        twice = inference.predict_views(self.spec, self.params, self.pixels,
                                        views + views)
        np.testing.assert_allclose(once, twice, atol=1e-12)

    def test_view_order_invariance(self):
        views = inference.ten_view_windows((40, 40), s=36, view=32)
        fwd = inference.predict_views(self.spec, self.params, self.pixels,
                                      views)
        rev = inference.predict_views(self.spec, self.params, self.pixels,
                                      views[::-1])
        np.testing.assert_allclose(fwd, rev, atol=1e-12)

    def test_conv_pass_economy(self):
        views = inference.multi_view_windows((40, 40), scales=(32, 36, 40),
                                             view=28)
        assert len(views) > 6
        net.stats.reset()
        inference.predict_views(self.spec, self.params, self.pixels, views)
        assert net.stats.trunk_passes == 6  # one per (scale, flip), never per view
        net.stats.reset()
        crops = inference.ten_view_windows((40, 40), s=36, view=32)
        inference.predict_crops(self.spec, self.params, self.pixels, crops)
        assert net.stats.trunk_passes == 10  # the baseline pays per view

    def test_prediction_is_distribution(self):
        views = inference.ten_view_windows((40, 40), s=36, view=32)
        p = inference.predict_views(self.spec, self.params, self.pixels, views)
        assert p.shape == (5,)
        assert np.isclose(p.sum(), 1.0, atol=1e-9)


    def test_head_once_per_call(self, monkeypatch):
        views = inference.multi_view_windows((40, 40), scales=(32, 36, 40),
                                             view=28)
        head_forward = net.NetworkInstance.head_forward
        batches = []

        def counted(inst, pooled):
            batches.append(len(pooled))
            return head_forward(inst, pooled)

        monkeypatch.setattr(net.NetworkInstance, "head_forward", counted)
        inference.predict_views(self.spec, self.params, self.pixels, views)
        assert batches == [len(views)]  # one head call, one row per view

    def test_batched_head_equals_per_view_sum(self):
        # oracle: one head call per view, summed in view order in float64
        views = inference.multi_view_windows((40, 40), scales=(32, 36),
                                             view=28)
        stride = self.spec.trunk_geometry().stride
        total = None
        for view in views:
            inst, x = inference.network_input(self.spec, self.params,
                                              self.pixels, view.scale,
                                              (view.flip,))
            rh, rw = inst.input_size
            featmap = inst.conv_features(x)[0]
            win = hflipped(view.window, rw) if view.flip else view.window
            r = view_to_feature_rect(win, (rw, rh), stride,
                                     featmap.shape[1:])
            vec, _ = spp_mod.spp_forward(
                featmap[:, r.fy0:r.fy1 + 1, r.fx0:r.fx1 + 1],
                self.spec.pyramid())
            row = softmax(inst.head_forward(vec[None]))[0]
            total = row.astype(np.float64) if total is None else total + row
        got = inference.predict_views(self.spec, self.params, self.pixels,
                                      views)
        np.testing.assert_array_equal(got, total / len(views))

    def test_view_outside_image_rejected_before_any_trunk_pass(
            self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("instantiate reached")

        monkeypatch.setattr(inference, "instantiate", unreachable)
        inside = inference.View(36, WindowRect(0, 0, 36, 36), False)
        for window in (WindowRect(0, 0, 100, 100), WindowRect(-1, 0, 30, 30),
                       WindowRect(0, 4, 36, 37)):
            outside = inference.View(36, window, True)
            with pytest.raises(ShapeError, match="36x36") as err:
                inference.predict_views(self.spec, self.params, self.pixels,
                                        [inside, outside])
            assert str(outside) in str(err.value)

    def _crops_error_equals_views_error(self, monkeypatch, window):
        # the crop baseline checks its views as predict_views does, before
        # any resize or trunk pass, and raises the same error
        view = inference.View(36, window, False)
        with pytest.raises(ShapeError) as views_err:
            inference.predict_views(self.spec, self.params, self.pixels,
                                    [view])

        def unreachable(*args, **kwargs):
            raise AssertionError("resize or instantiate reached")

        monkeypatch.setattr(inference, "resize_image", unreachable)
        monkeypatch.setattr(inference, "instantiate", unreachable)
        with pytest.raises(ShapeError) as crops_err:
            inference.predict_crops(self.spec, self.params, self.pixels,
                                    [view])
        assert str(crops_err.value) == str(views_err.value)
        assert str(view) in str(crops_err.value)
        assert "36x36" in str(crops_err.value)

    def test_crop_larger_than_image_rejected(self, monkeypatch):
        # before: silently classified the whole 36x36 resized image
        self._crops_error_equals_views_error(monkeypatch,
                                             WindowRect(0, 0, 100, 100))

    def test_crop_left_of_image_rejected(self, monkeypatch):
        # before: an empty slice, then a GraphError naming no view
        self._crops_error_equals_views_error(monkeypatch,
                                             WindowRect(-4, 0, 30, 30))

    def test_network_input_rows_are_single_flip_inputs(self):
        inst, x = inference.network_input(self.spec, self.params, self.pixels,
                                          36, (False, True, True))
        assert x.shape == (3, 1, 36, 36)
        for row, flip in zip(x, (False, True, True)):
            _, single = inference.network_input(self.spec, self.params,
                                                self.pixels, 36, (flip,))
            np.testing.assert_array_equal(row, single[0])
        np.testing.assert_array_equal(x[1], x[0][:, :, ::-1])

    def test_nan_pixel_rejected(self):
        pixels = self.pixels.copy()
        pixels[0, 10, 10] = np.nan
        views = inference.ten_view_windows((40, 40), s=36, view=32)
        with pytest.raises(ShapeError, match="non-finite"):
            inference.predict_views(self.spec, self.params, pixels, views)

    def test_sum_is_the_per_row_float64_loop(self, monkeypatch):
        # a large head gain spreads one class's probabilities over many
        # decades, so the sum depends on the order the rows are added in
        params = net.ParameterStore(seed=43, sigma=0.05)
        net.instantiate(self.spec, (32, 32), params)
        params["fc2.weight"].value *= 3000
        views = inference.multi_view_windows((40, 40), scales=(32, 36, 40),
                                             view=20)
        head_forward = net.NetworkInstance.head_forward
        logits = []

        def kept(inst, pooled):
            logits.append(head_forward(inst, pooled))
            return logits[-1]

        monkeypatch.setattr(net.NetworkInstance, "head_forward", kept)
        got = inference.predict_views(self.spec, params, self.pixels, views)
        total = np.zeros(logits[0].shape[1])
        for row in softmax(logits[0]):
            total = total + row.astype(np.float64)
        assert got.tobytes() == (total / len(views)).tobytes()
        backward = np.zeros_like(total)
        for row in softmax(logits[0])[::-1]:
            backward = backward + row.astype(np.float64)
        assert got.tobytes() != (backward / len(views)).tobytes()


class TestImageMaps:
    """`image_maps`: one trunk pass per scale over that scale's flips, the
    maps and size rows in key order, threads chosen by the largest pass."""

    def setup_method(self):
        self.spec = net.toy_shape_net()
        self.params = net.ParameterStore(seed=44, sigma=0.05)
        rng = np.random.default_rng(45)
        self.pixels = rng.uniform(0, 255, (1, 50, 64)).astype(np.float32)
        # not in rising order, one scale with both flips, one scale repeated
        self.keys = [(96, True), (40, False), (96, False), (64, False),
                     (40, True), (64, False)]

    def _calls(self, monkeypatch):
        """Record each `network_input` scale and each `map_threads` list."""
        network_input, map_threads = (inference.network_input,
                                      inference.map_threads)
        calls = {"scales": [], "threaded": []}

        def counted_input(spec, params, pixels, s, flips):
            calls["scales"].append(s)
            return network_input(spec, params, pixels, s, flips)

        def counted_map(fn, items):
            calls["threaded"].append(list(items))
            return map_threads(fn, items)

        monkeypatch.setattr(inference, "network_input", counted_input)
        monkeypatch.setattr(inference, "map_threads", counted_map)
        return calls

    def test_maps_and_sizes_equal_one_pass_per_key(self, monkeypatch):
        calls = self._calls(monkeypatch)
        passes = net.stats.trunk_passes
        maps, sizes, inst = inference.image_maps(self.spec, self.params,
                                                 self.pixels, self.keys)
        assert net.stats.trunk_passes - passes == len(self.keys)
        assert sorted(calls["scales"]) == [40, 64, 96]
        assert sizes.dtype == np.int64 and sizes.shape == (len(self.keys), 4)
        for (s, flip), featmap, row in zip(self.keys, maps, sizes.tolist()):
            single, x = inference.network_input(self.spec, self.params,
                                                self.pixels, s, (flip,))
            expect = single.conv_features(x)[0]
            assert featmap.tobytes() == expect.tobytes()
            rh, rw = single.input_size
            assert row == [rw, rh, *expect.shape[1:]]
        pooled = np.ones((2, self.spec.pyramid().output_length(16)),
                         np.float32)
        assert inst.head_forward(pooled).tobytes() == \
            single.head_forward(pooled).tobytes()

    @pytest.mark.parametrize("threshold", [1, 10**9],
                             ids=["threaded", "serial"])
    def test_scales_run_in_rising_order(self, monkeypatch, threshold):
        monkeypatch.setenv("PYRAPOOL_THREADS", "1")
        monkeypatch.setattr(inference, "THREADED_PASS_PIXELS", threshold)
        calls = self._calls(monkeypatch)
        inference.image_maps(self.spec, self.params, self.pixels, self.keys)
        assert calls["scales"] == [40, 64, 96]
        assert calls["threaded"] == ([[40, 64, 96]] if threshold == 1
                                     else [])

    def test_threads_from_the_largest_pass(self, monkeypatch):
        # the largest pass is scale 96's two flips of the 123 x 96 image
        # (64 * 96 / 50 = 122.88); scale 64's is 2 x 82 x 64
        largest = 2 * 123 * 96
        calls = self._calls(monkeypatch)
        for threshold, threaded in ((largest, 1), (largest + 1, 0)):
            monkeypatch.setattr(inference, "THREADED_PASS_PIXELS", threshold)
            calls["threaded"].clear()
            inference.image_maps(self.spec, self.params, self.pixels,
                                 self.keys)
            assert len(calls["threaded"]) == threaded, threshold

    def test_no_keys_rejected(self):
        with pytest.raises(ShapeError, match="^scale list is empty$"):
            inference.image_maps(self.spec, self.params, self.pixels, [])

    @pytest.mark.parametrize("keys, threaded", [
        ([(96, True), (40, False), (96, False), (64, False), (40, True)],
         True),
        ([(24, False), (28, True), (32, False), (28, False)], False)],
        ids=["above", "below"])
    def test_same_bytes_for_any_thread_count(self, monkeypatch, keys,
                                             threaded):
        calls = self._calls(monkeypatch)
        monkeypatch.delenv("PYRAPOOL_THREADS", raising=False)
        maps, sizes, _ = inference.image_maps(self.spec, self.params,
                                              self.pixels, keys)
        assert bool(calls["threaded"]) == threaded
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("PYRAPOOL_THREADS", threads)
            got, got_sizes, _ = inference.image_maps(
                self.spec, self.params, self.pixels, keys)
            assert got_sizes.tobytes() == sizes.tobytes()
            assert [m.tobytes() for m in got] == [m.tobytes() for m in maps]


class TestProjectViews:
    """`project_views` against the scalar projection it replaced
    (`_oracles.view_to_feature_rect`), byte for byte."""

    @staticmethod
    def oracle(windows, flips, sizes, stride):
        rects = []
        for (x0, y0, x1, y1), flip, (rw, rh, map_h, map_w) in zip(
                windows.tolist(), flips, sizes.tolist()):
            win = WindowRect(x0, y0, x1, y1)
            win = hflipped(win, rw) if flip else win
            r = view_to_feature_rect(win, (rw, rh), stride, (map_h, map_w))
            rects.append((r.fx0, r.fy0, r.fx1, r.fy1))
        return np.array(rects, dtype=np.int64).reshape(-1, 4)

    def test_equals_scalar_oracle(self):
        rng = np.random.default_rng(49)
        for trial in range(300):
            stride = int(rng.choice([1, 2, 3, 4, 8, 16]))
            n = 24
            rw, rh = rng.integers(1, 90, (2, n))
            # a padded trunk gives ceil(side/stride) cells for odd kernels
            # and floor(side/stride) + 1 for even ones: map*stride >= side,
            # often with cells past the image's right or bottom edge
            odd = rng.random((2, n)) < 0.5
            map_w = np.where(odd[0], -(-rw // stride), rw // stride + 1)
            map_h = np.where(odd[1], -(-rh // stride), rh // stride + 1)
            x0 = rng.integers(0, rw)
            y0 = rng.integers(0, rh)
            x1 = rng.integers(x0 + 1, rw + 1)
            y1 = rng.integers(y0 + 1, rh + 1)
            # flush with each edge, and whole-image views
            edge = rng.integers(0, 6, n)
            x0 = np.where((edge == 0) | (edge == 4), 0, x0)
            y0 = np.where((edge == 1) | (edge == 4), 0, y0)
            x1 = np.where((edge == 2) | (edge == 4), rw, x1)
            y1 = np.where((edge == 3) | (edge == 4), rh, y1)
            windows = np.stack([x0, y0, x1, y1], 1)
            flips = rng.random(n) < 0.5
            sizes = np.stack([rw, rh, map_h, map_w], 1)
            got = inference.project_views(windows, flips, sizes, stride)
            expect = self.oracle(windows, flips, sizes, stride)
            assert got.dtype == np.int64
            assert got.tobytes() == expect.tobytes(), trial

    def test_whole_image_views_take_the_whole_map(self):
        sizes = np.array([(36, 48, 9, 12), (37, 37, 10, 10), (5, 3, 1, 2)])
        windows = np.array([(0, 0, rw, rh) for rw, rh, _, _ in sizes])
        for flip in (False, True):
            got = inference.project_views(windows, np.full(3, flip), sizes, 4)
            expect = [(0, 0, map_w - 1, map_h - 1)
                      for _, _, map_h, map_w in sizes]
            np.testing.assert_array_equal(got, expect)


class TestMatchesOracle:
    """`predict_views` against the one-pass-per-(scale, flip) path it
    replaced (`_oracles`), byte for byte, for any view list."""

    spec = net.toy_shape_net()

    def params(self, head_gain):
        # a large gain on the last fc layer spreads one class's per-view
        # probabilities over many decades, so that the float64 sum depends
        # on the order the rows are added in
        params = net.ParameterStore(seed=46, sigma=0.05)
        net.instantiate(self.spec, (32, 32), params)
        params["fc2.weight"].value *= head_gain
        return params

    def lists(self, rng, size):
        ten = inference.ten_view_windows(size, s=28, view=24)
        multi = inference.multi_view_windows(size, scales=(24, 32, 40),
                                             view=20)
        shuffled = list(multi)
        rng.shuffle(shuffled)
        by_group = {}
        for v in multi:
            by_group.setdefault((v.scale, v.flip), []).append(v)
        # interleaved: round robin over the (scale, flip) groups
        interleaved = [g[i] for i in range(max(map(len, by_group.values())))
                       for g in by_group.values() if i < len(g)]
        flipped_only = [v for v in multi if v.scale != 32 or v.flip]
        picks = rng.choice(len(multi), 7)
        duplicates = [multi[i] for i in picks] + [multi[picks[0]]] * 3
        return {"ten": ten, "multi": multi, "reversed": multi[::-1],
                "shuffled": shuffled, "interleaved": interleaved,
                "flipped only at 32": flipped_only,
                "duplicates": duplicates, "ten twice": ten + ten[::-1],
                "single": [multi[int(rng.integers(len(multi)))]]}

    @pytest.mark.parametrize("head_gain", [1, 3000])
    @pytest.mark.parametrize("dtype", [np.float32, np.uint8])
    def test_byte_equal_on_random_images(self, dtype, head_gain):
        rng = np.random.default_rng(47 if dtype == np.float32 else 48)
        params = self.params(head_gain)
        for _ in range(4):
            h, w = (int(v) for v in rng.integers(24, 73, 2))
            if h == w:
                w += 1
            pixels = rng.uniform(0, 255, (1, h, w)).astype(dtype)
            for name, views in self.lists(rng, (w, h)).items():
                got = inference.predict_views(self.spec, params, pixels,
                                              views)
                expect = oracle_predict_views(self.spec, params, pixels,
                                              views)
                assert got.tobytes() == expect.tobytes(), (h, w, name)


class TestFlipConsistency:
    def test_pooling_mirrored_rect_of_mirrored_map(self):
        # pooling is exactly flip-consistent at the bin level: pooling the
        # horizontally flipped crop equals the bin-mirrored pooled vector
        rng = np.random.default_rng(43)
        levels = (3, 2, 1)
        pyr = spp_mod.PyramidSpec(levels)
        k = 4
        for trial in range(20):
            h = int(rng.integers(1, 9))
            w = int(rng.integers(1, 9))
            crop = rng.normal(size=(k, h, w)).astype(np.float32)
            pooled, _ = spp_mod.spp_forward(crop, pyr)
            flipped, _ = spp_mod.spp_forward(crop[:, :, ::-1], pyr)
            perm = []
            base = 0
            for n in levels:
                for j in range(n):
                    for i in range(n):
                        mirrored_bin = j * n + (n - 1 - i)
                        for c in range(k):
                            perm.append((base + mirrored_bin * k + c))
                base += n * n * k
            np.testing.assert_array_equal(flipped, pooled[np.array(perm)])


class TestFullImageRepresentation:
    def setup_method(self):
        self.spec = net.toy_shape_net()
        self.params = net.ParameterStore(seed=44, sigma=0.05)
        rng = np.random.default_rng(45)
        self.tall = rng.uniform(0, 255, (1, 60, 40)).astype(np.float32)
        self.wide = rng.uniform(0, 255, (1, 40, 60)).astype(np.float32)

    def test_l2_unit_norm(self):
        vec = inference.full_image_representation(
            self.spec, self.params, self.tall, 32, l2=True)
        assert np.isclose(np.linalg.norm(vec), 1.0, atol=1e-6)

    def test_aspect_ratios_same_length(self):
        a = inference.full_image_representation(self.spec, self.params,
                                                self.tall, 32)
        b = inference.full_image_representation(self.spec, self.params,
                                                self.wide, 32)
        assert a.shape == b.shape == (16 * 14,)

    def test_scales_differ_in_values_not_length(self):
        a = inference.full_image_representation(self.spec, self.params,
                                                self.tall, 32)
        b = inference.full_image_representation(self.spec, self.params,
                                                self.tall, 48)
        assert a.shape == b.shape
        assert not np.array_equal(a, b)

    def test_named_layer(self):
        vec = inference.full_image_representation(self.spec, self.params,
                                                  self.tall, 32, layer="fc1")
        assert vec.shape == (64,)

    def test_counts_one_trunk_pass(self):
        net.stats.reset()
        inference.full_image_representation(self.spec, self.params,
                                            self.tall, 32, layer="fc1")
        assert net.stats.trunk_passes == 1
