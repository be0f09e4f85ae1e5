"""View generation and feature-map view pooling."""

import numpy as np
import pytest

from pyrapool import inference, net
from pyrapool import spp as spp_mod
from pyrapool.errors import ShapeError
from pyrapool.geometry import WindowRect
from pyrapool.tensor import softmax


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
        views = inference.multi_view_windows((48, 40), scales=(32, 36, 40),
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


    def test_head_once_per_scale_flip_group(self, monkeypatch):
        views = inference.multi_view_windows((48, 40), scales=(32, 36, 40),
                                             view=28)
        head_forward = net.NetworkInstance.head_forward
        batches = []

        def counted(inst, pooled):
            batches.append(len(pooled))
            return head_forward(inst, pooled)

        monkeypatch.setattr(net.NetworkInstance, "head_forward", counted)
        inference.predict_views(self.spec, self.params, self.pixels, views)
        assert len(batches) == 6  # (scale, flip) groups
        assert sum(batches) == len(views)

    def test_batched_head_equals_per_view_sum(self):
        # oracle: one head call per view, summed in view order in float64
        views = inference.multi_view_windows((40, 40), scales=(32, 36),
                                             view=28)
        stride = self.spec.trunk_geometry().stride
        total = None
        for view in views:
            inst, x = inference.network_input(self.spec, self.params,
                                              self.pixels, view.scale,
                                              view.flip)
            rh, rw = inst.input_size
            featmap = inst.conv_features(x)[0]
            win = view.window.hflipped(rw) if view.flip else view.window
            r = inference.view_to_feature_rect(win, (rw, rh), stride,
                                               featmap.shape[1:])
            vec, _ = spp_mod.spp_forward(
                featmap[:, r.fy0:r.fy1 + 1, r.fx0:r.fx1 + 1],
                self.spec.pyramid())
            row = softmax(inst.head_forward(vec[None]))[0]
            total = row.astype(np.float64) if total is None else total + row
        got = inference.predict_views(self.spec, self.params, self.pixels,
                                      views)
        np.testing.assert_array_equal(got, total / len(views))

    def test_nan_pixel_rejected(self):
        pixels = self.pixels.copy()
        pixels[0, 10, 10] = np.nan
        views = inference.ten_view_windows((40, 40), s=36, view=32)
        with pytest.raises(ShapeError, match="non-finite"):
            inference.predict_views(self.spec, self.params, pixels, views)


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
