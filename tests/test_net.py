"""Network graph contracts: shape resolution, shared parameters across
input sizes, end-to-end gradients, and checkpoint round-trips."""

import os
import sys
import threading

import numpy as np
import pytest

from pyrapool import net, tensor, training
from pyrapool.errors import (CheckpointError, GraphError, ShapeError,
                             SpecMismatchError)



def tiny_spec(n_classes=3, levels=(2, 1)):
    return net.NetworkSpec([
        net.Conv(2, 3, 1),
        net.ReLU(),
        net.MaxPool(3, 2),
        net.SPP(levels),
        net.FC(n_classes),
        net.Softmax(),
    ], in_channels=1)


class TestSpecValidation:
    def test_two_spp_layers_rejected(self):
        with pytest.raises(GraphError, match="at most one"):
            net.NetworkSpec([net.SPP((1,)), net.SPP((1,)), net.FC(2)])

    def test_conv_after_spp_rejected(self):
        with pytest.raises(GraphError, match="last spatially-aware"):
            net.NetworkSpec([net.SPP((1,)), net.Conv(2, 3), net.FC(2)])

    def test_spp_after_fc_rejected(self):
        with pytest.raises(GraphError, match="before every fc"):
            net.NetworkSpec([net.Conv(2, 3), net.FC(2), net.SPP((1,))])

    def test_softmax_must_be_last(self):
        with pytest.raises(GraphError, match="final"):
            net.NetworkSpec([net.FC(2), net.Softmax(), net.FC(2)])

    def test_auto_names(self):
        spec = tiny_spec()
        names = [l.name for l in spec.layers]
        assert names == ["conv1", "relu1", "pool1", "spp1", "fc1", "softmax1"]

    @pytest.mark.parametrize("build", [
        lambda: net.Conv(2, 0), lambda: net.Conv(2, 3, 0),
        lambda: net.Conv(2, 3, 1, -1), lambda: net.SPP((0,)),
        lambda: net.SPP(())], ids=["kernel-0", "stride-0", "padding-neg",
                                   "level-0", "no-levels"])
    def test_bad_layer_rejected_when_built(self, build):
        # before, a bad kernel, stride or padding failed at the first
        # forward pass, and bad levels at the first shape resolution
        with pytest.raises(ShapeError):
            build()

    def test_padding_resolved_when_built(self):
        assert net.Conv(8, 3).padding == 1
        assert net.Conv(8, 5, 2, 0).padding == 0
        assert net.MaxPool(3, 2).padding == 1
        assert net.SPP([3, 2, 1]).levels == (3, 2, 1)

    def test_slot_names_are_the_bound_slots(self):
        for spec in (tiny_spec(), net.toy_shape_net(), net.zf5_net(
                fc_dims=(8,), n_classes=4)):
            params = net.ParameterStore()
            size = (64, 64) if spec.in_channels == 3 else (24, 24)
            net.instantiate(spec, size, params)
            assert spec.slot_names() == params.names()


class TestShapes:
    def test_fc_length_size_independent(self):
        spec = net.toy_shape_net()
        a = dict(net.compute_shapes(spec, (32, 32)))
        b = dict(net.compute_shapes(spec, (24, 24)))
        assert a["spp1"] == b["spp1"] == (16 * 14,)
        assert a["fc2"] == b["fc2"] == (5,)

    def test_zf5_conv5_map_at_224(self):
        spec = net.zf5_net(fc_dims=(8,), n_classes=4)
        shapes = dict(net.compute_shapes(spec, (224, 224)))
        assert shapes["pool1"] == (96, 55, 55)
        assert shapes["conv2"] == (256, 27, 27)
        assert shapes["conv5"] == (256, 13, 13)

    def test_zf5_conv5_map_at_180(self):
        spec = net.zf5_net(fc_dims=(8,), n_classes=4)
        shapes = dict(net.compute_shapes(spec, (180, 180)))
        assert shapes["conv5"] == (256, 10, 10)

    def test_too_small_input_names_layer(self):
        # the toy net's floor(k/2) padding keeps maps >= 1x1 at any size;
        # zf5's unpadded pool2 collapses below ~36px
        spec = net.zf5_net(fc_dims=(8,), n_classes=4)
        with pytest.raises(GraphError, match="collapses.*pool2"):
            net.compute_shapes(spec, (20, 20))

    def test_zf5_deploy_padding_differs(self):
        spec = net.zf5_net(fc_dims=(8,), n_classes=4, table_padding=False)
        shapes = dict(net.compute_shapes(spec, (224, 224)))
        assert shapes["conv5"] == (256, 14, 14)
        # stride product is the same either way
        assert spec.trunk_geometry().stride == 16


class TestForwardBackward:
    def test_zero_weight_network_uniform_softmax(self):
        spec = tiny_spec(n_classes=4)
        params = net.ParameterStore(seed=0, sigma=0.0)
        inst = net.instantiate(spec, (9, 9), params)
        x = np.random.default_rng(0).normal(size=(2, 1, 9, 9)).astype(np.float32)
        probs = inst.predict_proba(x)
        np.testing.assert_allclose(probs, 0.25, atol=1e-7)

    def test_same_output_length_across_sizes(self):
        spec = net.toy_shape_net()
        params = net.ParameterStore(seed=1)
        a = net.instantiate(spec, (32, 32), params)
        b = net.instantiate(spec, (24, 24), params)
        xa = np.zeros((1, 1, 32, 32), np.float32)
        xb = np.zeros((1, 1, 24, 24), np.float32)
        assert a.forward(xa)[0].shape == b.forward(xb)[0].shape

    def test_eval_kernels_match_train_kernels(self):
        # eval pools max-only, train also computes argmaxes; with dropout off
        # the logits must agree bit for bit, ties included
        spec = net.NetworkSpec(
            [net.Dropout(0.0) if isinstance(layer, net.Dropout) else layer
             for layer in net.toy_shape_net().layers])
        params = net.ParameterStore(seed=4)
        inst = net.instantiate(spec, (29, 35), params)
        rng = np.random.default_rng(4)
        x = np.round(rng.normal(size=(3, 1, 29, 35))).astype(np.float32)
        eval_logits, _ = inst.forward(x, train_mode=False)
        train_logits, _ = inst.forward(x, train_mode=True, rng=rng)
        np.testing.assert_array_equal(eval_logits, train_logits)

    def test_conv_layer_runs_as_its_conv_spec(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 3, 11, 9)).astype(np.float32)
        w = rng.normal(size=(4, 3, 5, 5)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        layer = net.Conv(4, 5, 2, name="conv1")
        spec = tensor.ConvSpec(4, 5, 2, 2)
        out, cache = tensor.conv_forward(x, w, b, layer)
        ref, ref_cache = tensor.conv_forward(x, w, b, spec)
        assert out.shape == ref.shape and out.tobytes() == ref.tobytes()
        g = rng.normal(size=out.shape).astype(np.float32)
        got = tensor.conv_backward(g, cache, w, layer, input_grad=True)
        want = tensor.conv_backward(g, ref_cache, w, spec, input_grad=True)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_train_mode_requires_rng(self):
        # before, a missing rng fell back to default_rng(0), so every such
        # call drew the same dropout masks
        inst = net.instantiate(net.toy_shape_net(), (24, 24),
                               net.ParameterStore())
        with pytest.raises(GraphError, match="rng"):
            inst.forward(np.zeros((2, 1, 24, 24), np.float32),
                         train_mode=True)
        assert inst.forward(np.zeros((2, 1, 24, 24), np.float32))[0].shape \
            == (2, 5)

    def test_batch_shape_validated(self):
        spec = tiny_spec()
        inst = net.instantiate(spec, (8, 8), net.ParameterStore())
        with pytest.raises(ShapeError, match="instance expects"):
            inst.forward(np.zeros((1, 1, 9, 9), np.float32))

    def test_backward_requires_train_mode(self):
        spec = tiny_spec()
        inst = net.instantiate(spec, (8, 8), net.ParameterStore())
        logits, saved = inst.forward(np.zeros((1, 1, 8, 8), np.float32),
                                     train_mode=False)
        with pytest.raises(GraphError, match="train_mode"):
            inst.backward(saved, np.zeros_like(logits))

    def test_end_to_end_gradient_check(self):
        spec = net.NetworkSpec([
            net.Conv(2, 3, 1),
            net.ReLU(),
            net.MaxPool(3, 2),
            net.SPP((2, 1)),
            net.FC(3),
            net.Softmax(),
        ], in_channels=1)
        params = net.ParameterStore(seed=3, sigma=0.5)
        inst = net.instantiate(spec, (7, 7), params)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 1, 7, 7)).astype(np.float64)
        labels = np.array([0, 2])

        def loss_fn():
            logits, saved = inst.forward(x, train_mode=True,
                                         rng=np.random.default_rng(0))
            loss, grad = tensor.softmax_cross_entropy(logits, labels)
            return loss, grad, saved

        loss, grad, saved = loss_fn()
        for _, slot in params.items():
            slot.grad[...] = 0.0
        inst.backward(saved, grad)
        for name, slot in params.items():
            analytic = slot.grad.copy()
            num = np.zeros_like(slot.value, dtype=np.float64)
            it = np.nditer(slot.value, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = slot.value[idx]
                slot.value[idx] = orig + 1e-3
                lp = loss_fn()[0]
                slot.value[idx] = orig - 1e-3
                lm = loss_fn()[0]
                slot.value[idx] = orig
                num[idx] = (lp - lm) / 2e-3
                it.iternext()
            np.testing.assert_allclose(analytic, num, rtol=1e-3, atol=1e-4,
                                       err_msg=f"gradient mismatch in {name}")

    def test_deterministic_given_seed(self):
        spec = net.toy_shape_net()
        outs = []
        for _ in range(2):
            params = net.ParameterStore(seed=7)
            inst = net.instantiate(spec, (24, 24), params)
            x = np.random.default_rng(8).normal(size=(2, 1, 24, 24)).astype(np.float32)
            logits, _ = inst.forward(x, train_mode=True,
                                     rng=np.random.default_rng(9))
            outs.append(logits)
        np.testing.assert_array_equal(outs[0], outs[1])


class TestFeatureAt:
    def setup_method(self):
        self.spec = net.toy_shape_net()
        self.params = net.ParameterStore(seed=5)
        self.inst = net.instantiate(self.spec, (24, 24), self.params)
        self.x = np.random.default_rng(6).normal(
            size=(1, 1, 24, 24)).astype(np.float32)

    def test_last_conv_has_k_channels(self):
        feat = self.inst.feature_at(self.x, "conv2")
        assert feat.shape[:2] == (1, 16)

    def test_after_spp_flat_k_times_m(self):
        feat = self.inst.feature_at(self.x, "spp1")
        assert feat.shape == (1, 16 * 14)

    def test_dropout_in_eval_equals_its_input(self):
        np.testing.assert_array_equal(self.inst.feature_at(self.x, "drop1"),
                                      self.inst.feature_at(self.x, "relu3"))

    def test_softmax_layer_gives_probabilities(self):
        p = self.inst.feature_at(self.x, "softmax1")
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)

    def test_unknown_layer(self):
        with pytest.raises(GraphError, match="no layer named"):
            self.inst.feature_at(self.x, "conv9")


class TestParameterSharing:
    def test_update_visible_bit_for_bit(self):
        spec = net.toy_shape_net()
        params = net.ParameterStore(seed=11)
        a = net.instantiate(spec, (32, 32), params)
        b = net.instantiate(spec, (24, 24), params)
        x = np.random.default_rng(12).normal(size=(2, 1, 32, 32)).astype(np.float32)
        logits, saved = a.forward(x, train_mode=True,
                                  rng=np.random.default_rng(13))
        loss, grad = tensor.softmax_cross_entropy(logits, np.array([0, 1]))
        a.backward(saved, grad)
        training.sgd_step(params, 0.01, 0.9)
        for name in ("conv1", "conv2", "fc1", "fc2"):
            assert a.slots[name][0] is b.slots[name][0]
            np.testing.assert_array_equal(a.slots[name][0].value,
                                          b.slots[name][0].value)

    def test_flatten_fc_shape_mismatch_across_sizes(self):
        spec = net.NetworkSpec([net.Conv(2, 3, 1), net.FC(3)], in_channels=1)
        params = net.ParameterStore()
        net.instantiate(spec, (8, 8), params)
        with pytest.raises(SpecMismatchError, match="fc1.weight"):
            net.instantiate(spec, (10, 10), params)


def wide_trunk_spec():
    return net.NetworkSpec([
        net.Conv(32, 5, 1),
        net.ReLU(),
        net.MaxPool(3, 2),
        net.Conv(96, 3, 2),
        net.ReLU(),
        net.Conv(64, 3, 1),
        net.ReLU(),
        net.SPP((3, 2, 1)),
        net.FC(4),
        net.Softmax(),
    ], in_channels=3)


class TestConvFeaturesBatch:
    @pytest.mark.parametrize("make_spec", [net.toy_shape_net, wide_trunk_spec])
    def test_flip_pair_equals_two_single_passes(self, make_spec):
        # predict_views runs each scale's unflipped and mirrored inputs as
        # one batch; each map must be the map of its own batch-1 pass
        spec = make_spec()
        params = net.ParameterStore(seed=24)
        rng = np.random.default_rng(24)
        for _ in range(6):
            h, w = (int(v) for v in rng.integers(8, 65, 2))
            inst = net.instantiate(spec, (h, w), params)
            x = rng.normal(size=(1, spec.in_channels, h, w)).astype(np.float32)
            pair = np.concatenate([x, x[:, :, :, ::-1]])
            maps = inst.conv_features(pair)
            for row, image in zip(maps, pair):
                single = inst.conv_features(image[None])[0]
                assert row.tobytes() == single.tobytes(), (h, w)

    def test_trunk_passes_count_images(self):
        inst = net.instantiate(tiny_spec(), (8, 8), net.ParameterStore())
        before = net.stats.trunk_passes
        inst.conv_features(np.zeros((3, 1, 8, 8), np.float32))
        inst.feature_at(np.zeros((2, 1, 8, 8), np.float32), "spp1")
        assert net.stats.trunk_passes - before == 5

    def test_threads_count_every_pass(self):
        # the parallel detect workers share the counter
        inst = net.instantiate(tiny_spec(), (4, 4), net.ParameterStore())
        batch = np.zeros((2, 1, 4, 4), np.float32)
        calls, threads = 200, 4
        interval = sys.getswitchinterval()
        before = net.stats.trunk_passes
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(
                target=lambda: [inst.conv_features(batch)
                                for _ in range(calls)])
                for _ in range(threads)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        assert (net.stats.trunk_passes - before
                == threads * calls * len(batch))


class TestNonFiniteInput:
    def test_nan_pixel_rejected_with_count(self):
        spec = net.toy_shape_net()
        inst = net.instantiate(spec, (24, 24), net.ParameterStore(seed=23))
        batch = np.zeros((1, 1, 24, 24), dtype=np.float32)
        batch[0, 0, 3, 5] = np.nan
        with pytest.raises(ShapeError, match="1 non-finite"):
            inst.predict_proba(batch)
        batch[0, 0, 7, 7] = -np.inf
        for run in (inst.predict_proba, inst.conv_features,
                    lambda b: inst.feature_at(b, "fc1")):
            with pytest.raises(ShapeError, match="2 non-finite"):
                run(batch)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        spec = net.toy_shape_net()
        params = net.ParameterStore(seed=21)
        net.instantiate(spec, (32, 32), params)
        path = tmp_path / "model.ckpt"
        net.save_checkpoint(params, path)
        loaded = net.load_checkpoint(path)
        assert set(loaded) == set(params.names())
        for name, slot in params.items():
            np.testing.assert_array_equal(loaded[name], slot.value)
            assert loaded[name].dtype == np.float32

    def test_round_trip_through_store(self, tmp_path):
        params = net.ParameterStore(seed=22)
        net.instantiate(net.toy_shape_net(), (24, 24), params)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        net.save_checkpoint(params, p1)
        restored = net.ParameterStore()
        restored.load_values(net.load_checkpoint(p1))
        net.save_checkpoint(restored, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_rename_keeps_old_file(self, tmp_path, monkeypatch):
        stores = [net.ParameterStore(seed=seed) for seed in (25, 26)]
        for store in stores:
            net.instantiate(net.toy_shape_net(), (24, 24), store)
        path = tmp_path / "model.ckpt"
        net.save_checkpoint(stores[0], path)
        before = path.read_bytes()
        assert before == net.checkpoint_bytes(stores[0])

        def failing_replace(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename failed"):
            net.save_checkpoint(stores[1], path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.ckpt"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\0" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            net.load_checkpoint(path)

    def test_truncation(self, tmp_path):
        spec = net.toy_shape_net()
        params = net.ParameterStore(seed=23)
        net.instantiate(spec, (24, 24), params)
        path = tmp_path / "model.ckpt"
        net.save_checkpoint(params, path)
        blob = path.read_bytes()
        rng = np.random.default_rng(23)
        for cut in (*rng.integers(0, len(blob), size=20), len(blob) // 2):
            path.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError, match="truncated"):
                net.load_checkpoint(path)
        for pad in (1, 7, *rng.integers(2, 64, size=8)):
            path.write_bytes(blob + rng.bytes(int(pad)))
            with pytest.raises(CheckpointError,
                               match=f"{pad} trailing bytes at byte "
                                     f"{len(blob)}") as err:
                net.load_checkpoint(path)
            assert str(path) in str(err.value)

    def test_spec_mismatch_detected(self, tmp_path):
        params = net.ParameterStore(seed=24)
        net.instantiate(net.toy_shape_net(channels=(4, 8)), (24, 24), params)
        path = tmp_path / "model.ckpt"
        net.save_checkpoint(params, path)
        restored = net.ParameterStore()
        restored.load_values(net.load_checkpoint(path))
        with pytest.raises(SpecMismatchError):
            net.instantiate(net.toy_shape_net(channels=(8, 16)), (24, 24),
                            restored)
