"""The training step against the kernels it replaced: every value bit for bit,
with less work done (no input gradient for the first layer of a slice, one
patch matrix per conv layer per step)."""

import tracemalloc

import numpy as np
import pytest

from pyrapool import net, spp, tensor, training
from _oracles import (_oracle_im2col, oracle_conv_backward,
                      oracle_conv_forward, oracle_maxpool_backward,
                      oracle_maxpool_forward,
                      oracle_spp_backward_batch, oracle_spp_forward_batch,
                      oracle_train_step, tied_relu)

TRIALS = 40
# (in, out, kernel, stride) of zf5's conv1 to conv5
ZF5_CONVS = [(3, 96, 7, 2), (96, 256, 5, 2), (256, 384, 3, 1),
             (384, 384, 3, 1), (384, 256, 3, 1)]


def assert_bits(actual, expected):
    """Same dtype, shape and bytes: -0.0 and 0.0 differ here."""
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _with_special_values(rng, x):
    """`x` with -0.0 among its zeros (signed-zero ties), scattered NaN and
    -inf cells, and one plane each of all -inf and of mixed signed zeros."""
    x = x.copy()
    flat = x.reshape(-1)
    flat[(flat == 0) & (rng.random(flat.size) < 0.5)] = -0.0
    flat[rng.random(flat.size) < 0.03] = np.nan
    flat[rng.random(flat.size) < 0.1] = -np.inf
    x[-1, -1] = -np.inf
    x[0, 0] = np.where(rng.random(x.shape[2:]) < 0.5, -0.0, 0.0)
    return x


class TestKernelsMatchOracles:
    @pytest.mark.parametrize("trial", range(TRIALS + 16 + len(ZF5_CONVS)))
    def test_conv_forward_and_gradients(self, trial):
        # small random shapes, then 16 trials at the workloads' shapes: up
        # to 16 channels in and out, sides up to 60, kernels 3, 5 and 7 at
        # strides 1 and 2, some on a row-reversed view; then zf5's channel
        # counts on small maps
        rng = np.random.default_rng(700 + trial)
        dtype = np.float64 if trial % 4 == 3 else np.float32
        if trial < TRIALS:
            b, c = (int(rng.integers(1, 5)) for _ in range(2))
            h, w = (int(rng.integers(1, 14)) for _ in range(2))
            p = int(rng.integers(0, 3))
            k = int(rng.integers(1, min(h, w) + 2 * p + 1))
            s = int(rng.integers(1, 4))
            o = int(rng.integers(1, 6))
        elif trial >= TRIALS + 16:
            c, o, k, s = ZF5_CONVS[trial - TRIALS - 16]
            b = int(rng.integers(1, 3))
            p = int(rng.integers(0, k // 2 + 1))
            h, w = (int(rng.integers(k, 16)) for _ in range(2))
        else:
            b = int(rng.integers(1, 3))
            c, o = (int(rng.integers(1, 17)) for _ in range(2))
            k = (3, 5, 7)[trial % 3]
            s = 1 + trial % 2
            p = int(rng.integers(0, k // 2 + 1))
            h, w = (int(rng.integers(k, 61)) for _ in range(2))
        spec = tensor.ConvSpec(o, k, s, p)
        x = tied_relu(rng, (b, c, h, w), dtype)
        if trial >= TRIALS and trial % 4 == 1:
            x = x[:, :, ::-1]  # the window view follows any strides
        wt = rng.normal(size=(spec.out_channels, c, k, k)).astype(dtype)
        bias = rng.normal(size=spec.out_channels).astype(dtype)

        expected = oracle_conv_forward(x, wt, bias, spec)
        out, cache = tensor.conv_forward(x, wt, bias, spec)
        assert out.flags.c_contiguous  # NCHW memory order, not channel-last
        assert_bits(out, expected)

        r = tied_relu(rng, out.shape, dtype) - 0.5
        gx, gw, gb = tensor.conv_backward(r, cache, wt, spec, input_grad=True)
        ox, ow, ob = oracle_conv_backward(r, x, wt, spec)
        assert_bits(gx, ox)
        assert_bits(gw, ow)
        assert_bits(gb, ob)
        gx, gw, gb = tensor.conv_backward(r, cache, wt, spec, input_grad=False)
        assert gx is None
        assert_bits(gw, ow)
        assert_bits(gb, ob)

    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_maxpool_backward(self, trial):
        rng = np.random.default_rng(800 + trial)
        b, c = (int(rng.integers(1, 5)) for _ in range(2))
        h, w = (int(rng.integers(2, 16)) for _ in range(2))
        if trial % 2:
            window, stride, padding = (3, 3), (2, 2), (1, 1)
        else:
            window = tuple(int(rng.integers(1, 5)) for _ in range(2))
            stride = tuple(int(rng.integers(1, 4)) for _ in range(2))
            padding = tuple(int(rng.integers(0, m)) for m in window)
            if any(wd > side + 2 * pd for wd, side, pd in
                   zip(window, (h, w), padding)):
                window, stride, padding = (3, 3), (2, 2), (1, 1)
        x = tied_relu(rng, (b, c, h, w))
        out, argmax = tensor.maxpool_forward(x, window, stride, padding)
        g = rng.normal(size=out.shape).astype(np.float32)
        assert_bits(tensor.maxpool_backward(g, argmax, x.shape),
                    oracle_maxpool_backward(g, argmax, x.shape))

    @pytest.mark.parametrize("trial", range(TRIALS + 6))
    def test_maxpool_forward(self, trial):
        # by turns: overlapping 3/2 pad-1 windows, window = stride, and
        # random (often non-square) windows with -inf padding; odd trials
        # add NaN, -inf and signed-zero cells, and the last six pool windows
        # of over 255 cells, whose cell index does not fit in uint8
        rng = np.random.default_rng(1000 + trial)
        b, c = (int(rng.integers(1, 5)) for _ in range(2))
        h, w = (int(rng.integers(2, 16)) for _ in range(2))
        dtype = np.float64 if trial % 4 == 3 else np.float32
        kind = trial % 3 if trial < TRIALS else 3
        if kind == 0:
            window, stride, padding = (3, 3), (2, 2), (1, 1)
        elif kind == 1:
            window = tuple(int(rng.integers(1, min(h, w) + 1))
                           for _ in range(2))
            stride, padding = window, (0, 0)
        elif kind == 2:
            window = tuple(int(rng.integers(1, 5)) for _ in range(2))
            stride = tuple(int(rng.integers(1, 4)) for _ in range(2))
            padding = tuple(int(rng.integers(0, m)) for m in window)
            if any(wd > side + 2 * pd for wd, side, pd in
                   zip(window, (h, w), padding)):
                window, stride, padding = (3, 2), (2, 1), (1, 1)
        else:
            window = (16 + trial % 2, 17)
            stride = tuple(int(rng.integers(1, 4)) for _ in range(2))
            padding = (trial % 3, trial % 2)
            h, w = (int(rng.integers(m, m + 5)) for m in window)
        x = tied_relu(rng, (b, c, h, w), dtype)
        if trial % 2:
            x = _with_special_values(rng, x)
        if kind == 3:
            # the first window's last cell, past 255, holds its max
            x[0, 0, window[0] - padding[0] - 1,
              window[1] - padding[1] - 1] = 50.0
        out, argmax = tensor.maxpool_forward(x, window, stride, padding)
        expected_out, expected_argmax = oracle_maxpool_forward(
            x, window, stride, padding)
        assert argmax.dtype == np.intp
        assert_bits(out, expected_out)
        assert_bits(argmax, expected_argmax)
        if kind == 3:
            assert out[0, 0, 0, 0] == 50.0

    @pytest.mark.parametrize("trial", range(TRIALS + 2))
    def test_spp_forward_batch(self, trial):
        # the train workload's two map shapes, then random shapes and
        # pyramids, many with grids finer than the map; every map holds
        # -0.0 ties, NaN cells and an all -inf plane
        rng = np.random.default_rng(1100 + trial)
        if trial < 2:
            shape, levels = ((32, 16, 8, 8), (32, 16, 6, 6))[trial], (3, 2, 1)
        else:
            shape = tuple(int(rng.integers(1, n)) for n in (5, 6, 11, 11))
            levels = tuple(int(n) for n in
                           rng.integers(1, 9, size=rng.integers(1, 5)))
        dtype = np.float64 if trial % 4 == 3 else np.float32
        x = _with_special_values(rng, tied_relu(rng, shape, dtype))
        if trial % 5 == 4:
            x = x[:, :, ::-1]  # a non-contiguous map
        out, argmax = spp.spp_forward_batch(x, spp.PyramidSpec(levels))
        expected_out, expected_argmax = oracle_spp_forward_batch(x, levels)
        assert_bits(out, expected_out)
        assert_bits(argmax, expected_argmax)

    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_spp_backward_batch(self, trial):
        rng = np.random.default_rng(900 + trial)
        b, k = (int(rng.integers(1, 5)) for _ in range(2))
        h, w = (int(rng.integers(1, 9)) for _ in range(2))
        # grids finer than the map overlap their bins
        pyr = spp.PyramidSpec((6, 4, 3, 2, 1) if trial % 2 else (3, 2, 1))
        dtype = np.float64 if trial % 4 == 3 else np.float32
        x = tied_relu(rng, (b, k, h, w), dtype)
        out, argmax = spp.spp_forward_batch(x, pyr)
        g = rng.normal(size=out.shape).astype(dtype)
        assert_bits(spp.spp_backward_batch(g, argmax, x.shape),
                    oracle_spp_backward_batch(g, argmax, x.shape))


def _oracle_cols(x, spec):
    """The float64 patch matrix by the window-view oracle: pad in x's dtype,
    take every window, cast."""
    p = spec.padding
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    cols = _oracle_im2col(xp, spec.kernel, spec.stride)
    return cols.reshape(-1, cols.shape[-1]).astype(np.float64)


def _assert_gather(rng, x, o, k, s, p):
    """`_im2col` of `x`, and of `x` with -0.0, NaN and -inf cells, and the
    conv output of `x`, equal the oracles' bytes."""
    spec = tensor.ConvSpec(o, k, s, p)
    for xs in (x, _with_special_values(rng, x)):
        assert_bits(tensor._im2col(xs, spec), _oracle_cols(xs, spec))
    wt = rng.normal(size=(o, x.shape[1], k, k)).astype(x.dtype)
    bias = rng.normal(size=o).astype(x.dtype)
    assert_bits(tensor.conv_forward(x, wt, bias, spec)[0],
                oracle_conv_forward(x, wt, bias, spec))


class TestGather:
    """`_im2col`'s gather, and the conv output it feeds, against the
    window-view oracle, byte for byte."""

    # (B,C,H,W), out channels, kernel, stride, padding. One image's index
    # exceeds a band in each: whole-row bands with a short last band,
    # one-row bands, and part-row bands when a row alone is too long, also
    # in a one-row output
    BANDED = [((1, 64, 40, 40), 4, 5, 1, 2), ((3, 64, 40, 40), 4, 5, 1, 2),
              ((3, 64, 40, 40), 3, 5, 2, 1), ((1, 64, 50, 50), 2, 5, 1, 0),
              ((2, 64, 5, 60), 2, 5, 1, 0),
              ((2, 64, 47, 61), 2, 5, 3, 4), ((1, 1, 128, 170), 8, 3, 1, 1),
              ((1, 8, 64, 85), 16, 3, 2, 1), ((1, 256, 13, 13), 8, 3, 1, 1),
              ((2, 384, 13, 13), 8, 3, 1, 1), ((1, 3, 60, 75), 96, 7, 2, 1)]

    @pytest.mark.parametrize("case", range(len(BANDED)))
    def test_banded(self, case):
        shape, o, k, s, p = self.BANDED[case]
        rng = np.random.default_rng(1200 + case)
        x = tied_relu(rng, shape, np.float64 if case % 3 == 2 else np.float32)
        if case % 4 == 3:
            x = x[:, :, ::-1]  # the frame's cast follows any strides
        side = [tensor.conv_out_size(n, k, s, p) for n in shape[2:]]
        assert side[0] * side[1] * shape[1] * k * k > tensor.BAND
        _assert_gather(rng, x, o, k, s, p)

    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_single_band(self, trial):
        # batches whose images each fit in one band: strides 1 to 3,
        # paddings 0 to k - 1, float32 and float64, and zf5's channel
        # counts on small maps
        rng = np.random.default_rng(1300 + trial)
        dtype = np.float64 if trial % 2 else np.float32
        s = 1 + trial % 3
        if trial % 4 == 3:
            # at most 4x4 outputs, so 384 channels stay within a band
            c, o, k, _ = ZF5_CONVS[trial // 4 % len(ZF5_CONVS)]
            b, p = 2, int(rng.integers(0, k // 2 + 1))
            h, w = (k - 2 * p + int(rng.integers(0, 3 * s + 1))
                    for _ in range(2))
        else:
            b, c, o = (int(rng.integers(1, 6)) for _ in range(3))
            k = int(rng.integers(1, 6))
            p = int(rng.integers(0, k))
            h, w = (int(rng.integers(k, 20)) for _ in range(2))
        side = [tensor.conv_out_size(n, k, s, p) for n in (h, w)]
        assert side[0] * side[1] * c * k * k <= tensor.BAND
        _assert_gather(rng, tied_relu(rng, (b, c, h, w), dtype), o, k, s, p)

    def test_peak_memory_of_a_banded_image(self):
        # one image in 10 bands of 7 output rows: the gather holds the patch
        # matrix, the float64 frame, one band's index and one output row's
        # offsets (72 KiB, in the slack); the product and output (O = 4)
        # come after the frame and index are gone. It read 5.599 MiB against
        # a bound of 5.626; a per-image index would add 4.5 MiB
        rng = np.random.default_rng(0)
        x = tied_relu(rng, (1, 16, 64, 64))
        wt = rng.normal(size=(4, 16, 3, 3)).astype(np.float32)
        bias = np.zeros(4, np.float32)
        spec = tensor.ConvSpec(4, 3, 1, 1)
        cols = 64 * 64 * 16 * 9 * 8
        frame = 16 * 66 * 66 * 8
        slack = 96 * 2**10
        peak = _traced_peak(lambda: tensor.conv_forward(x, wt, bias, spec))
        assert peak < cols + frame + tensor.BAND * 8 + slack, (
            f"peak {peak / 2**20:.3f} MiB")


def _toy_step(size, seed, batch=6):
    spec = net.toy_shape_net()
    inst = net.instantiate(spec, (size, size), net.ParameterStore(seed=seed))
    rng = np.random.default_rng(seed)
    x = np.round(rng.normal(size=(batch, 1, size, size)) * 2.0).astype(
        np.float32)
    labels = rng.integers(0, 5, size=batch)
    return spec, inst, x, labels


class TestToyNetStep:
    @pytest.mark.parametrize("size,seed", [(32, 1), (24, 2), (29, 3)])
    def test_grads_match_oracle_path(self, size, seed):
        spec, inst, x, labels = _toy_step(size, seed)
        logits, saved = inst.forward(x, train_mode=True,
                                     rng=np.random.default_rng(seed + 10))
        _, grad = tensor.softmax_cross_entropy(logits, labels)
        assert inst.backward(saved, grad) is None

        oracle = net.instantiate(spec, (size, size),
                                 net.ParameterStore(seed=seed))
        oracle_logits = oracle_train_step(
            spec.layers, x, oracle.slots, np.random.default_rng(seed + 10),
            lambda z: tensor.softmax_cross_entropy(z, labels)[1])
        assert_bits(logits, oracle_logits)
        assert inst.params.names() == oracle.params.names()
        for name, slot in inst.params.items():
            assert slot.grad.any(), name
            assert_bits(slot.grad, oracle.params[name].grad)

    def test_conv_relu_masks_are_c_contiguous(self):
        # backward multiplies each mask by an NCHW gradient: one memory order
        spec, inst, x, labels = _toy_step(32, 1)
        _, caches = net.forward_layers(spec.layers, x, inst.slots, True,
                                       np.random.default_rng(0))
        masks = [cache for prev, layer, cache in
                 zip(spec.layers, spec.layers[1:], caches[1:])
                 if isinstance(prev, net.Conv) and isinstance(layer, net.ReLU)]
        assert len(masks) == 2
        for mask in masks:
            assert mask.dtype == bool and mask.ndim == 4
            assert mask.flags.c_contiguous


def _traced_peak(fn):
    """Peak bytes that `tracemalloc` sees allocated while `fn()` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStepDoesLess:
    def test_input_gradient_loop_runs_for_conv2_only(self, monkeypatch):
        # conv_backward's input gradient is a K*K loop of products of the
        # gradient matrix with one (out, in) weight tap each: (16, 8) is
        # conv2, (8, 1) conv1
        spec, inst, x, labels = _toy_step(32, 1)
        logits, saved = inst.forward(x, train_mode=True,
                                     rng=np.random.default_rng(0))
        _, grad = tensor.softmax_cross_entropy(logits, labels)
        taps = []
        real = np.dot

        def spy(a, b, out=None):
            taps.append(np.shape(b))
            return real(a, b, out)

        monkeypatch.setattr(tensor.np, "dot", spy)
        inst.backward(saved, grad)
        assert taps == [(16, 8)] * 9

    def test_first_fc_of_a_head_slice_returns_no_input_gradient(
            self, monkeypatch):
        params = net.ParameterStore(seed=5)
        layers = [net.FC(6, name="fc_a"), net.ReLU(), net.FC(3, name="fc_b")]
        slots = {"fc_a": (params.slot("fc_a.weight", (6, 10)),
                          params.slot("fc_a.bias", (6,), "zeros")),
                 "fc_b": (params.slot("fc_b.weight", (3, 6)),
                          params.slot("fc_b.bias", (3,), "zeros"))}
        x = np.random.default_rng(5).normal(size=(4, 10)).astype(np.float32)
        out, caches = net.forward_layers(layers, x, slots, True,
                                         np.random.default_rng(0))
        calls = []
        real = tensor.fc_backward

        def spy(*args, **kwargs):
            result = real(*args, **kwargs)
            calls.append((args[2].shape, result[0] is None))
            return result

        monkeypatch.setattr(tensor, "fc_backward", spy)
        assert net.backward_layers(layers, caches, slots,
                                   np.ones_like(out)) is None
        assert calls == [((3, 6), False), ((6, 10), True)]
        assert params["fc_a.weight"].grad.any()

    def test_one_patch_matrix_per_conv_layer_per_step(self, monkeypatch):
        spec, inst, x, labels = _toy_step(32, 1)
        calls = []
        real = tensor._im2col

        def spy(*args):
            calls.append(args[0].shape)
            return real(*args)

        monkeypatch.setattr(tensor, "_im2col", spy)
        logits, saved = inst.forward(x, train_mode=True,
                                     rng=np.random.default_rng(0))
        _, grad = tensor.softmax_cross_entropy(logits, labels)
        inst.backward(saved, grad)
        assert len(calls) == 2

    def test_toy_step_peak_memory(self):
        # one train step of the train workload's larger size, B = 32 at
        # 32 px: forward, backward and sgd_step. It peaks in conv1's weight
        # gradient: 7.518 MiB (numpy 2.4) with one float64 copy of the
        # output gradient alive, 9.267 MiB when its NCHW copy lived beside
        # the channel-last one; the bound leaves 0.03 MiB for allocator and
        # version drift
        _, inst, x, labels = _toy_step(32, 1, batch=32)
        rng = np.random.default_rng(0)

        def step():
            logits, saved = inst.forward(x, train_mode=True, rng=rng)
            _, grad = tensor.softmax_cross_entropy(logits, labels)
            inst.backward(saved, grad)
            training.sgd_step(inst.params, 0.01, 0.9)

        step()  # builds what the first step of a size builds once
        peak = _traced_peak(step)
        assert peak < 7.55 * 2**20, f"peak {peak / 2**20:.3f} MiB"

    def test_input_gradient_peak_memory(self):
        # the step's peak is conv1's weight gradient, so conv2's input
        # gradient is pinned on its own: 1.272 MiB channel-last with one
        # float64 copy of the output gradient; 1.522 MiB with two, and 1.65
        # MiB with an NCHW buffer and its per-tap transposed copies
        rng = np.random.default_rng(0)
        x = tied_relu(rng, (32, 8, 16, 16))
        wt = rng.normal(size=(16, 8, 3, 3)).astype(np.float32)
        spec = tensor.ConvSpec(16, 3, 2, 1)
        out, cache = tensor.conv_forward(x, wt, np.zeros(16, np.float32),
                                         spec)
        g = rng.normal(size=out.shape).astype(np.float32)
        peak = _traced_peak(
            lambda: tensor.conv_backward(g, cache, wt, spec, input_grad=True))
        assert peak < 1.30 * 2**20, f"peak {peak / 2**20:.3f} MiB"


class TestReluInPlace:
    """The interpreter's ReLU overwrites intermediates of its own call, and
    never the caller's batch or gradient."""

    def test_forward_from_a_relu_keeps_the_batch(self):
        spec, inst, x, _ = _toy_step(32, 1)
        conv1 = net.forward_layers(spec.layers[:1], x, inst.slots)[0]
        for train_mode in (False, True):
            batch = conv1.copy()
            out, _ = net.forward_layers(spec.layers[1:], batch, inst.slots,
                                        train_mode, np.random.default_rng(0))
            assert_bits(batch, conv1)
            expected, _ = net.forward_layers(
                spec.layers, x, inst.slots, train_mode,
                np.random.default_rng(0))
            assert_bits(out, expected)

    def test_relu_after_a_pass_through_keeps_the_batch(self):
        # eval-mode dropout hands the batch itself on to the ReLU
        x = np.random.default_rng(2).normal(size=(4, 6)).astype(np.float32)
        batch = x.copy()
        out, _ = net.forward_layers([net.Dropout(0.5), net.ReLU()], batch, {})
        assert_bits(batch, x)
        assert_bits(out, np.maximum(x, 0))

    def test_conv_features_keeps_the_batch(self):
        _, inst, x, _ = _toy_step(32, 1)
        batch = x.copy()
        inst.conv_features(batch)
        assert_bits(batch, x)

    @pytest.mark.parametrize("stop", [2, 5, 8, 11])
    def test_backward_keeps_the_gradient(self, stop):
        # slices that end at relu1, relu2 and relu3, and the whole net
        spec, inst, x, _ = _toy_step(32, 1)
        layers = spec.layers[:stop]
        out, caches = net.forward_layers(layers, x, inst.slots, True,
                                         np.random.default_rng(0))
        grad = np.random.default_rng(3).normal(size=out.shape).astype(
            np.float32)
        held = grad.copy()
        net.backward_layers(layers, caches, inst.slots, grad)
        assert_bits(grad, held)

