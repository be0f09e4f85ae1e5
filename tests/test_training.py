"""Optimizer, size schedules and the training loop."""

import dataclasses
import math
import weakref

import numpy as np
import pytest

from pyrapool import dataio, inference, net, training
from pyrapool.errors import ShapeError, TrainingDivergedError
from _oracles import oracle_train


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

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_lr_rejected(self, lr):
        with pytest.raises(ValueError, match="learning rate"):
            training.TrainConfig(lr=lr)

    @pytest.mark.parametrize("momentum", [
        float("nan"), float("inf"), -1.0, -1e-9, 1.0, 1.5])
    def test_momentum_outside_unit_interval_rejected(self, momentum):
        with pytest.raises(ValueError, match="momentum must lie in"):
            training.TrainConfig(momentum=momentum)

    @pytest.mark.parametrize("momentum", [0.0, 0.5, 0.999])
    def test_momentum_in_unit_interval_accepted(self, momentum):
        assert training.TrainConfig(momentum=momentum).momentum == momentum

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
                xs = training._square_inputs([(px, 0)], s)[[0]]
                _, x = inference.network_input(spec, params, px, s,
                                               (False,))
                assert xs.dtype == x.dtype
                np.testing.assert_array_equal(xs, x)


def report_rows(reports):
    """Epoch reports as comparable tuples; NaN accuracy compares equal."""
    return [repr(dataclasses.astuple(r)) for r in reports]


class TestInputStacks:
    @pytest.mark.parametrize("schedule,sizes", [
        ("single", (28,)), ("alternate", (32, 24)), ("random", (20, 36))])
    @pytest.mark.parametrize("with_eval", [False, True])
    def test_matches_per_batch_resizing(self, schedule, sizes, with_eval):
        # 50 samples in batches of 16: the last batch of an epoch holds 2
        rng = np.random.default_rng(80)
        data = toy_data(rng, n=50, sizes=(20, 27, 33))
        eval_set = toy_data(rng, n=21, sizes=(22, 30)) if with_eval else None
        spec = net.toy_shape_net(n_classes=4)
        cfg = training.TrainConfig(lr=0.01, epochs=5, batch_size=16,
                                   schedule=schedule, sizes=sizes,
                                   eval_size=26 if with_eval else None,
                                   seed=6)
        params, reports = training.train(spec, data, cfg, eval_set=eval_set)
        oparams, oreports = oracle_train(spec, data, cfg, eval_set=eval_set)
        assert net.checkpoint_bytes(params) == net.checkpoint_bytes(oparams)
        assert report_rows(reports) == report_rows(oreports)
        assert np.isnan(reports[-1].accuracy) != with_eval

    def test_one_resize_per_image_and_size(self, monkeypatch):
        # images of one shape share a resize call; each image's rows reach
        # resize_square once per size
        rng = np.random.default_rng(81)
        data = toy_data(rng, n=20)
        eval_set = toy_data(rng, n=7)
        rows = {}
        resize = training.resize_square

        def counting(pixels, s):
            for plane in pixels:  # one channel: a row is an image
                key = (plane.tobytes(), s)
                rows[key] = rows.get(key, 0) + 1
            return resize(pixels, s)

        monkeypatch.setattr(training, "resize_square", counting)
        cfg = training.TrainConfig(lr=0.01, epochs=5, batch_size=8,
                                   schedule="alternate", sizes=(32, 24),
                                   eval_size=28, seed=2)
        training.train(net.toy_shape_net(n_classes=4), data, cfg,
                       eval_set=eval_set)
        expected = ({(px.tobytes(), s) for px, _ in data for s in (32, 24)}
                    | {(px.tobytes(), 28) for px, _ in eval_set})
        assert set(rows) == expected
        assert set(rows.values()) == {1}

    @pytest.mark.parametrize("block", [1, 3000, 1 << 18])
    def test_stack_equals_per_image_resize(self, monkeypatch, block):
        # mixed shapes and dtypes, resized in blocks of at most `block`
        # source values: row i is still preprocess(resize_square(pixels_i))
        rng = np.random.default_rng(83)
        shapes = [(3, 17, 23), (3, 30, 30), (3, 9, 40)]
        dtypes = [np.float32, np.float64, np.uint8]
        data = [(rng.uniform(0, 255, shapes[i % 3])
                 .astype(dtypes[i // 3 % 3]), 0)
                for i in range(int(rng.integers(30, 40)))]
        rng.shuffle(data)
        calls = []
        resize = training.resize_square

        def counting(pixels, s):
            calls.append(pixels.size)
            return resize(pixels, s)

        monkeypatch.setattr(training, "RESIZE_BLOCK", block)
        monkeypatch.setattr(training, "resize_square", counting)
        for s in (12, 32):
            calls.clear()
            xs = training._square_inputs(data, s)
            assert xs.shape == (len(data), 3, s, s)
            for row, (px, _) in enumerate(data):
                expect = dataio.preprocess(resize(px, s))
                assert xs[row].tobytes() == expect.tobytes()
            # a call holds one image, or whole images within the block
            sizes = {px.size for px, _ in data}
            assert all(n in sizes or n <= block for n in calls)
            groups = {}
            for px, _ in data:
                key = (px.shape, px.dtype)
                groups[key] = groups.get(key, 0) + 1
            assert len(calls) == sum(-(-n // max(1, block // math.prod(k[0])))
                                     for k, n in groups.items())

    def test_random_schedule_keeps_two_training_stacks(self, monkeypatch):
        rng = np.random.default_rng(82)
        data = toy_data(rng, n=12)
        cfg = training.TrainConfig(lr=0.01, epochs=8, batch_size=8,
                                   schedule="random", sizes=(20, 26), seed=5)
        drawn = list(training.multi_size_schedule(cfg))
        assert drawn == [24, 25, 20, 25, 23, 23, 24, 22]
        built = []
        built_sizes = []
        live_counts = []
        square_inputs = training._square_inputs

        def live():
            return sum(ref() is not None for ref in built)

        def recording(dataset, size):
            live_counts.append(live())
            stack = square_inputs(dataset, size)
            built.append(weakref.ref(stack))
            built_sizes.append(size)
            live_counts.append(live())
            return stack

        monkeypatch.setattr(training, "_square_inputs", recording)
        _, reports = training.train(
            net.toy_shape_net(n_classes=4), data, cfg,
            on_epoch_end=lambda report, params: live_counts.append(live()))
        assert [r.size for r in reports] == drawn
        # 25 is reused (one of the last two sizes); 24 was dropped for 23
        # and is built again
        assert built_sizes == [24, 25, 20, 23, 24, 22]
        assert max(live_counts) == 2


class TestSampleChecks:
    def _train(self, data, eval_set=None):
        spec = net.toy_shape_net(n_classes=4)
        cfg = training.TrainConfig(epochs=1, batch_size=4, sizes=(24,))
        return training.train(spec, data, cfg, eval_set=eval_set)

    @pytest.fixture
    def no_work(self, monkeypatch):
        # any resizing or network work means the check came too late
        def fail(*args, **kwargs):
            raise AssertionError("work ran before the samples were checked")

        monkeypatch.setattr(training, "_square_inputs", fail)
        monkeypatch.setattr(training, "instantiate", fail)

    def test_mixed_channel_counts_name_the_sample(self, no_work):
        rng = np.random.default_rng(83)
        data = toy_data(rng, n=6)
        data[3] = (np.repeat(data[3][0], 3, axis=0), data[3][1])
        with pytest.raises(ShapeError, match=r"training sample 3 .*\(3, "):
            self._train(data)

    def test_wrong_channel_count_for_the_net(self, no_work):
        rng = np.random.default_rng(84)
        data = [(np.repeat(px, 3, axis=0), label)
                for px, label in toy_data(rng, n=6)]
        with pytest.raises(ShapeError,
                           match=r"training sample 0 .*expects 1 channel"):
            self._train(data)

    @pytest.mark.parametrize("label", [4, -1, 99])
    def test_label_out_of_range(self, no_work, label):
        rng = np.random.default_rng(85)
        data = toy_data(rng, n=9)
        data[7] = (data[7][0], label)
        with pytest.raises(ShapeError, match=rf"training sample 7 has label "
                                             rf"{label}, outside \[0, 4\)"):
            self._train(data)

    def test_eval_samples_checked_too(self, no_work):
        rng = np.random.default_rng(86)
        data = toy_data(rng, n=6)
        eval_set = toy_data(rng, n=4)
        eval_set[2] = (eval_set[2][0], 5)
        with pytest.raises(ShapeError, match="eval sample 2 has label 5"):
            self._train(data, eval_set)
        eval_set[2] = (np.zeros((3, 24, 24), np.float32), 0)
        with pytest.raises(ShapeError, match="eval sample 2 is shaped"):
            self._train(data, eval_set)


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

