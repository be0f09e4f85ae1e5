"""Optimizer, size schedules, the training loop, and fc-only fine-tuning."""

import numpy as np
import pytest

from pyrapool import detection, inference, net, training
from pyrapool.errors import TrainingDivergedError
from pyrapool.geometry import WindowRect


def toy_data(rng, n=60, sizes=(24, 32)):
    """In-memory stand-in dataset: class = brightest quadrant."""
    data = []
    for _ in range(n):
        s = int(rng.choice(sizes))
        label = int(rng.integers(0, 4))
        px = rng.normal(20, 5, size=(1, s, s)).astype(np.float32)
        qy = (label // 2) * (s // 2)
        qx = (label % 2) * (s // 2)
        px[0, qy:qy + s // 2, qx:qx + s // 2] += 150
        data.append((np.clip(px, 0, 255), label))
    return data


class TestSgdStep:
    def test_single_step_arithmetic(self):
        params = net.ParameterStore()
        slot = params.slot("w", (1,), "zeros")
        slot.value[:] = 1.0
        slot.grad[:] = 2.0
        training.sgd_step(params, lr=0.1, momentum=0.0)
        assert np.isclose(slot.value[0], 0.8)
        assert slot.grad[0] == 0.0

    def test_zero_gradient_keeps_parameters(self):
        params = net.ParameterStore(seed=1)
        slot = params.slot("w", (3, 3))
        before = slot.value.copy()
        training.sgd_step(params, lr=0.5, momentum=0.9)
        np.testing.assert_array_equal(slot.value, before)

    def test_momentum_accumulates(self):
        params = net.ParameterStore()
        slot = params.slot("w", (1,), "zeros")
        for _ in range(2):
            slot.grad[:] = 1.0
            training.sgd_step(params, lr=0.1, momentum=0.5)
        # v1 = -0.1; v2 = 0.5*(-0.1) - 0.1 = -0.15; w = -0.25
        assert np.isclose(slot.value[0], -0.25)

    def test_unnamed_slots_untouched(self):
        params = net.ParameterStore(seed=2)
        for name in ("a", "b", "c"):
            slot = params.slot(name, (2, 3))
            slot.grad[:] = 1.5
            slot.momentum[:] = -0.25
        before = {n: (s.value.copy(), s.momentum.copy(), s.grad.copy())
                  for n, s in params.items()}
        training.sgd_step(params, lr=0.1, momentum=0.9, names=["b"])
        for name in ("a", "c"):
            for arr, old in zip((params[name].value, params[name].momentum,
                                 params[name].grad), before[name]):
                np.testing.assert_array_equal(arr, old)
        b = params["b"]
        np.testing.assert_allclose(b.momentum, 0.9 * -0.25 - 0.1 * 1.5,
                                   rtol=1e-6)
        np.testing.assert_array_equal(b.value, before["b"][0] + b.momentum)
        assert not b.grad.any()

    def test_nan_gradient_aborts_with_slot_name(self):
        params = net.ParameterStore()
        slot = params.slot("fc1.weight", (2, 2), "zeros")
        slot.grad[0, 0] = np.nan
        with pytest.raises(TrainingDivergedError, match="fc1.weight"):
            training.sgd_step(params, 0.1, 0.9)


class TestSchedule:
    def test_alternating(self):
        cfg = training.TrainConfig(schedule="alternate", sizes=(224, 180),
                                   epochs=4)
        assert list(training.multi_size_schedule(cfg)) == [224, 180, 224, 180]

    def test_single(self):
        cfg = training.TrainConfig(schedule="single", sizes=(224,), epochs=3)
        assert list(training.multi_size_schedule(cfg)) == [224, 224, 224]

    def test_random_seeded_and_bounded(self):
        cfg = training.TrainConfig(schedule="random", sizes=(180, 224),
                                   epochs=20, seed=5)
        a = list(training.multi_size_schedule(cfg))
        b = list(training.multi_size_schedule(cfg))
        assert a == b
        assert all(180 <= s <= 224 for s in a)
        assert len(set(a)) > 3

    def test_bad_schedule_rejected(self):
        with pytest.raises(ValueError, match="schedule"):
            training.TrainConfig(schedule="bogus")

    def test_nonpositive_lr_rejected(self):
        with pytest.raises(ValueError, match="learning rate"):
            training.TrainConfig(lr=0.0)

    @pytest.mark.parametrize("field,value", [
        ("batch_size", 0), ("epochs", 0), ("epochs", -1), ("sizes", ()),
        ("sizes", (32, 0)), ("eval_size", 0)])
    def test_nonpositive_count_or_size_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            training.TrainConfig(**{field: value})


class TestNormalisation:
    def test_training_batch_equals_network_input(self):
        # the training batch of a square image at size s (no mirroring) is
        # bit for bit the input the inference path feeds the network
        rng = np.random.default_rng(74)
        spec = net.toy_shape_net(n_classes=4)
        params = net.ParameterStore(seed=0)
        for side in (24, 37, 40):
            px = rng.uniform(0, 255, size=(1, side, side)).astype(np.float32)
            for s in (24, 32, 40):
                xs, _ = training._make_batch([(px, 0)], [0], s, rng=None)
                _, x = inference.network_input(spec, params, px, s)
                assert xs.dtype == x.dtype
                np.testing.assert_array_equal(xs, x)


class TestPlateauDecay:
    def test_fires_after_patience_and_at_most_twice(self):
        cfg = training.TrainConfig(lr=0.1)
        decay = training._PlateauDecay(cfg)
        lrs = [decay.update(0.5) for _ in range(20)]
        assert lrs[0] == 0.1                    # first update sets the best
        assert np.isclose(min(lrs), 0.001)      # two decays, no more
        assert all(a >= b - 1e-12 for a, b in zip(lrs, lrs[1:]))

    def test_improvement_resets_counter(self):
        cfg = training.TrainConfig(lr=0.1)
        decay = training._PlateauDecay(cfg)
        seq = [0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99]
        for acc in seq:
            assert decay.update(acc) == 0.1     # steady improvement: no decay


class TestTrainLoop:
    def test_loss_decreases_early(self):
        rng = np.random.default_rng(71)
        data = toy_data(rng, n=96)
        spec = net.toy_shape_net(n_classes=4)
        cfg = training.TrainConfig(lr=0.01, epochs=3, batch_size=16,
                                   schedule="single", sizes=(24,), seed=3)
        _, reports = training.train(spec, data, cfg)
        assert reports[2].loss < reports[0].loss

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            training.train(net.toy_shape_net(), [],
                           training.TrainConfig(sizes=(24,)))

    def test_identical_seeds_identical_trajectories(self):
        rng = np.random.default_rng(72)
        data = toy_data(rng, n=48)
        spec = net.toy_shape_net(n_classes=4)
        cfg = training.TrainConfig(lr=0.01, epochs=2, batch_size=16,
                                   schedule="single", sizes=(24,), seed=9)
        p1, r1 = training.train(spec, data, cfg)
        p2, r2 = training.train(spec, data, cfg)
        assert [r.loss for r in r1] == [r.loss for r in r2]
        for name, slot in p1.items():
            np.testing.assert_array_equal(slot.value, p2[name].value)

    def test_multi_size_shares_parameters_bit_for_bit(self):
        rng = np.random.default_rng(73)
        data = toy_data(rng, n=48)
        spec = net.toy_shape_net(n_classes=4)
        cfg = training.TrainConfig(lr=0.01, epochs=4, batch_size=16,
                                   schedule="alternate", sizes=(32, 24),
                                   seed=4)
        checks = []

        def on_epoch(report, params):
            a = net.instantiate(spec, (32, 32), params)
            b = net.instantiate(spec, (24, 24), params)
            same_storage = all(a.slots[n][0] is b.slots[n][0]
                               for n in a.slots)
            assert a.shape_at("spp1") == b.shape_at("spp1")
            checks.append(same_storage)

        _, reports = training.train(spec, data, cfg, on_epoch_end=on_epoch)
        assert checks == [True] * 4
        assert [r.size for r in reports] == [32, 24, 32, 24]


class TestFinetune:
    def _pretrained(self):
        rng = np.random.default_rng(74)
        data = toy_data(rng, n=48)
        spec = net.toy_shape_net(n_classes=4)
        cfg = training.TrainConfig(lr=0.01, epochs=1, batch_size=16,
                                   schedule="single", sizes=(24,), seed=1)
        params, _ = training.train(spec, data, cfg)
        return spec, params

    def _region_features(self, rng, n=200, dim=16 * 14, classes=3):
        feats = rng.normal(size=(n, dim)).astype(np.float32)
        labels = rng.integers(0, classes + 1, size=n)
        # give each class a recognizable direction
        for i in range(n):
            if labels[i] > 0:
                feats[i, labels[i] * 7] += 4.0
        return feats, labels

    def test_conv_slots_bit_identical(self):
        spec, params = self._pretrained()
        rng = np.random.default_rng(75)
        feats, labels = self._region_features(rng)
        before = {n: s.value.copy() for n, s in params.items()
                  if n.startswith("conv")}
        cfg = training.FinetuneConfig(n_classes=4, steps=40, seed=2)
        scores = training.finetune_fc(params, spec, feats, labels, cfg)
        for name, value in before.items():
            np.testing.assert_array_equal(params[name].value, value)
        assert scores(feats[:5]).shape == (5, 4)

    def test_minibatches_are_quarter_positive(self):
        spec, params = self._pretrained()
        rng = np.random.default_rng(76)
        feats, labels = self._region_features(rng)
        fractions = []
        cfg = training.FinetuneConfig(n_classes=4, steps=25, batch_size=32,
                                      seed=3)
        training.finetune_fc(params, spec, feats, labels, cfg,
                             on_batch=lambda step, yb, loss:
                             fractions.append((yb > 0).mean()))
        assert fractions == [0.25] * 25

    def test_new_head_initialized_small(self):
        spec, params = self._pretrained()
        rng = np.random.default_rng(77)
        feats, labels = self._region_features(rng)
        cfg = training.FinetuneConfig(n_classes=4, steps=0, sigma=0.01,
                                      seed=4)
        training.finetune_fc(params, spec, feats, labels, cfg)
        w = params["fc_det.weight"].value
        assert abs(float(w.std()) - 0.01) < 0.003
        assert not params["fc_det.bias"].value.any()

    def test_needs_both_sample_kinds(self):
        spec, params = self._pretrained()
        feats = np.zeros((4, 16 * 14), np.float32)
        cfg = training.FinetuneConfig(n_classes=4, steps=1)
        with pytest.raises(ValueError, match="positive"):
            training.finetune_fc(params, spec, feats, np.zeros(4, int), cfg)

    def test_head_learns_separable_features(self):
        spec, params = self._pretrained()
        rng = np.random.default_rng(78)
        feats, labels = self._region_features(rng, n=400)
        cfg = training.FinetuneConfig(n_classes=4, steps=300, seed=5,
                                      lr_initial=0.01, lr_late=0.001)
        scores = training.finetune_fc(params, spec, feats, labels, cfg)
        pred = scores(feats).argmax(axis=1)
        assert (pred == labels).mean() > 0.8


class TestFinetuneLabelAssignment:
    def test_iou_bands(self):
        gt = [(2, WindowRect(0, 0, 100, 100))]
        proposals = [
            WindowRect(0, 0, 100, 100),   # IoU 1.0 -> class 3 (=1+2)
            WindowRect(0, 0, 100, 50),    # IoU 0.5 -> positive
            WindowRect(0, 0, 100, 49),    # IoU 0.49 -> background
            WindowRect(0, 0, 100, 10),    # IoU 0.10 -> background
            WindowRect(0, 0, 100, 9),     # IoU 0.09 -> discarded
            WindowRect(200, 200, 300, 300),  # IoU 0 -> discarded
        ]
        labels = detection.assign_finetune_labels(proposals, gt)
        assert labels == [3, 3, 0, 0, None, None]
