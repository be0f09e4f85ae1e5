"""Layer primitive contracts: hand-computed forwards plus finite-difference
backward checks."""

import numpy as np
import pytest

from pyrapool import tensor
from pyrapool.errors import ShapeError
from _oracles import numerical_grad, rel_error, separated_uniform

TRIALS = 50
TOL = 1e-4


def rand_shape(rng, maxdim=6):
    return tuple(int(rng.integers(1, maxdim + 1)) for _ in range(4))


class TestConvForward:
    def test_one_by_one_filter_scales(self):
        x = np.array([[1, 2], [3, 4]], dtype=np.float32).reshape(1, 1, 2, 2)
        w = np.full((1, 1, 1, 1), 2.0, dtype=np.float32)
        out = tensor.conv_forward(x, w, np.zeros(1, np.float32),
                                  tensor.ConvSpec(1, 1))[0]
        np.testing.assert_array_equal(out.reshape(2, 2),
                                      [[2, 4], [6, 8]])

    def test_zero_weights_yield_bias(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 5, 6)).astype(np.float32)
        spec = tensor.ConvSpec(4, 3, stride=2, padding=1)
        w = np.zeros((4, 3, 3, 3), np.float32)
        b = np.array([1.5, -2.0, 0.0, 7.0], np.float32)
        out = tensor.conv_forward(x, w, b, spec)[0]
        assert out.shape == (2, 4, 3, 3)
        for o in range(4):
            np.testing.assert_array_equal(out[:, o], np.full((2, 3, 3), b[o]))

    def test_ones_filter_padded_counts_coverage(self):
        # 3x3 ones over 3x3 ones with pad 1: center sees 9 cells, corners 4
        x = np.ones((1, 1, 3, 3), np.float32)
        w = np.ones((1, 1, 3, 3), np.float32)
        out = tensor.conv_forward(x, w, np.zeros(1, np.float32),
                                  tensor.ConvSpec(1, 3, 1, 1))[0][0, 0]
        assert out[1, 1] == 9
        for r, c in [(0, 0), (0, 2), (2, 0), (2, 2)]:
            assert out[r, c] == 4

    def test_channel_mismatch_names_dimension(self):
        x = np.zeros((1, 2, 4, 4), np.float32)
        w = np.zeros((1, 3, 3, 3), np.float32)
        with pytest.raises(ShapeError, match="2 channels.*expect 3"):
            tensor.conv_forward(x, w, np.zeros(1, np.float32),
                                tensor.ConvSpec(1, 3))

    def test_kernel_larger_than_padded_input(self):
        x = np.zeros((1, 1, 2, 2), np.float32)
        w = np.zeros((1, 1, 5, 5), np.float32)
        with pytest.raises(ShapeError, match="smaller than"):
            tensor.conv_forward(x, w, np.zeros(1, np.float32),
                                tensor.ConvSpec(1, 5))

    def test_output_shape_formula_sweep(self):
        rng = np.random.default_rng(1)
        for k in (1, 2, 3, 4):
            for s in (1, 2, 3):
                for p in (0, 1, 2):
                    for size in range(max(1, k - 2 * p), 9):
                        if size + 2 * p < k:
                            continue
                        x = rng.normal(size=(1, 2, size, size)).astype(np.float32)
                        w = rng.normal(size=(3, 2, k, k)).astype(np.float32)
                        out = tensor.conv_forward(
                            x, w, np.zeros(3, np.float32),
                            tensor.ConvSpec(3, k, s, p))[0]
                        expect = (size + 2 * p - k) // s + 1
                        assert out.shape == (1, 3, expect, expect)


class TestConvBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 2, 4, 4))
        w = rng.normal(size=(2, 2, 3, 3))
        spec = tensor.ConvSpec(2, 3, 1, 1)
        _, cache = tensor.conv_forward(x, w, np.zeros(2), spec)
        gx, gw, gb = tensor.conv_backward(np.zeros((1, 2, 4, 4)), cache, w,
                                          spec, input_grad=True)
        assert not gx.any() and not gw.any() and not gb.any()

    def test_one_by_one_chain_rule(self):
        x = np.array([[1, 2], [3, 4]], dtype=np.float64).reshape(1, 1, 2, 2)
        w = np.full((1, 1, 1, 1), 2.0)
        g = np.ones((1, 1, 2, 2))
        spec = tensor.ConvSpec(1, 1)
        _, cache = tensor.conv_forward(x, w, np.zeros(1), spec)
        gx, gw, gb = tensor.conv_backward(g, cache, w, spec, input_grad=True)
        assert gw.item() == 10.0  # sum of inputs
        assert gb.item() == 4.0
        np.testing.assert_array_equal(gx, np.full_like(x, 2.0))

    def test_missing_saved_input(self):
        with pytest.raises(ShapeError, match="ConvCache saved by conv_forward"):
            tensor.conv_backward(np.zeros((1, 1, 1, 1)), None,
                                 np.zeros((1, 1, 1, 1)), tensor.ConvSpec(1, 1),
                                 input_grad=True)

    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_finite_differences(self, trial):
        rng = np.random.default_rng(100 + trial)
        b, c, h, w = rand_shape(rng)
        o = int(rng.integers(1, 4))
        k = int(rng.integers(1, min(h, w) + 1))
        s = int(rng.integers(1, 3))
        p = int(rng.integers(0, 2))
        spec = tensor.ConvSpec(o, k, s, p)
        x = rng.normal(size=(b, c, h, w))
        wt = rng.normal(size=(o, c, k, k))
        bias = rng.normal(size=o)
        out, cache = tensor.conv_forward(x, wt, bias, spec)
        r = rng.normal(size=out.shape)

        gx, gw, gb = tensor.conv_backward(r, cache, wt, spec, input_grad=True)
        num_x = numerical_grad(
            lambda v: float((tensor.conv_forward(v, wt, bias, spec)[0] * r).sum()), x)
        num_w = numerical_grad(
            lambda v: float((tensor.conv_forward(x, v, bias, spec)[0] * r).sum()), wt)
        num_b = numerical_grad(
            lambda v: float((tensor.conv_forward(x, wt, v, spec)[0] * r).sum()), bias)
        assert rel_error(gx, num_x) < TOL
        assert rel_error(gw, num_w) < TOL
        assert rel_error(gb, num_b) < TOL


def _maxpool_reference(x, window, stride, padding):
    """Max pool by argmax over every window, the first max in row-major
    order winning; returns (values, flat row*W+col argmax)."""
    (wh, ww), (sh, sw), (ph, pw) = window, stride, padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)),
                constant_values=-np.inf)
    win = np.lib.stride_tricks.sliding_window_view(
        xp, (wh, ww), axis=(2, 3))[:, :, ::sh, ::sw]
    b, c, oh, ow = win.shape[:4]
    flat = win.reshape(b, c, oh, ow, wh * ww)
    local = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, local[..., None], axis=-1)[..., 0]
    row = np.arange(oh).reshape(1, 1, oh, 1) * sh + local // ww - ph
    col = np.arange(ow).reshape(1, 1, 1, ow) * sw + local % ww - pw
    return out, row * x.shape[3] + col


class TestMaxPool:
    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_max_only_values_and_derived_argmax(self, trial):
        # ReLU-style ties: half-integers clipped at zero
        rng = np.random.default_rng(1900 + trial)
        b, c, h, w = rand_shape(rng, 9)
        wh, ww = (int(v) for v in rng.integers(1, 5, 2))
        ph, pw = int(rng.integers(0, wh)), int(rng.integers(0, ww))
        h, w = max(h, wh), max(w, ww)
        stride = tuple(int(v) for v in rng.integers(1, 4, 2))
        x = np.maximum(np.round(rng.normal(size=(b, c, h, w)) * 2) / 2,
                       0).astype(np.float32)
        args = (x, (wh, ww), stride, (ph, pw))
        ref_out, ref_argmax = _maxpool_reference(*args)
        out, argmax = tensor.maxpool_forward(*args)
        np.testing.assert_array_equal(tensor.maxpool_values(*args), out)
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(argmax, ref_argmax)

    def test_single_window(self):
        x = np.array([[1, 2], [3, 4]], dtype=np.float32).reshape(1, 1, 2, 2)
        out, argmax = tensor.maxpool_forward(x, (2, 2), (2, 2))
        assert out.reshape(()) == 4
        assert argmax.reshape(()) == 3  # flat index of (1,1)

    def test_constant_ties_first_in_scan_order(self):
        x = np.full((1, 1, 4, 4), 5.0, np.float32)
        out, argmax = tensor.maxpool_forward(x, (2, 2), (2, 2))
        np.testing.assert_array_equal(out[0, 0], np.full((2, 2), 5.0))
        np.testing.assert_array_equal(argmax[0, 0], [[0, 2], [8, 10]])

    def test_dominant_corner(self):
        x = np.array([[5, 1], [1, 1]], dtype=np.float32).reshape(1, 1, 2, 2)
        out, _ = tensor.maxpool_forward(x, (2, 2), (2, 2))
        assert out.reshape(()) == 5

    def test_zero_window_rejected(self):
        with pytest.raises(ShapeError, match="positive"):
            tensor.maxpool_forward(np.zeros((1, 1, 2, 2)), (0, 2), (1, 1))

    def test_backward_routes_to_argmax(self):
        x = np.array([[1, 2], [3, 4]], dtype=np.float32).reshape(1, 1, 2, 2)
        _, argmax = tensor.maxpool_forward(x, (2, 2), (2, 2))
        g = tensor.maxpool_backward(np.ones((1, 1, 1, 1), np.float32), argmax,
                                    x.shape)
        np.testing.assert_array_equal(g[0, 0], [[0, 0], [0, 1]])

    def test_nonoverlapping_grad_values(self):
        rng = np.random.default_rng(3)
        x = separated_uniform(rng, (1, 1, 6, 6))
        _, argmax = tensor.maxpool_forward(x, (2, 2), (2, 2))
        go = rng.normal(size=(1, 1, 3, 3))
        g = tensor.maxpool_backward(go, argmax, x.shape)
        assert np.isclose(g.sum(), go.sum())  # non-overlapping: grad conserved
        vals = set(np.round(g.ravel(), 12)) - {0.0}
        assert vals <= set(np.round(go.ravel(), 12))

    def test_stale_argmax_rejected(self):
        x = np.zeros((1, 1, 4, 4), np.float32)
        _, argmax = tensor.maxpool_forward(x, (2, 2), (2, 2))
        with pytest.raises(ShapeError, match="match"):
            tensor.maxpool_backward(np.ones((1, 1, 3, 3)), argmax, x.shape)
        with pytest.raises(ShapeError, match="stale"):
            tensor.maxpool_backward(np.ones((1, 1, 2, 2)), argmax + 20,
                                    (1, 1, 2, 2))

    def test_all_minus_inf_window_error_names_the_padding_cell(self):
        # a padded window whose every cell is -inf takes a padding cell, so
        # its argmax indexes outside the plane; the error says so
        x = np.full((1, 1, 4, 4), -np.inf, np.float32)
        y, argmax = tensor.maxpool_forward(x, (3, 3), (2, 2), (1, 1))
        with pytest.raises(ShapeError) as err:
            tensor.maxpool_backward(np.ones_like(y), argmax, x.shape)
        message = str(err.value)
        assert "outside a 4x4 plane" in message
        assert "stale map" in message
        assert "every cell is -inf" in message and "padding cell" in message

    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_finite_differences(self, trial):
        # overlapping windows included: stride may be below the window size
        rng = np.random.default_rng(300 + trial)
        b, c, h, w = rand_shape(rng)
        wh = int(rng.integers(1, h + 1))
        ww = int(rng.integers(1, w + 1))
        sh = int(rng.integers(1, wh + 1))
        sw = int(rng.integers(1, ww + 1))
        x = separated_uniform(rng, (b, c, h, w))
        out, argmax = tensor.maxpool_forward(x, (wh, ww), (sh, sw))
        r = rng.normal(size=out.shape)
        g = tensor.maxpool_backward(r, argmax, x.shape)
        num = numerical_grad(
            lambda v: float((tensor.maxpool_forward(v, (wh, ww), (sh, sw))[0]
                             * r).sum()), x)
        assert rel_error(g, num) < TOL


class TestFullyConnected:
    def test_forward_matches_matmul(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 5)).astype(np.float32)
        w = rng.normal(size=(2, 5)).astype(np.float32)
        b = rng.normal(size=2).astype(np.float32)
        expect = x.astype(np.float64) @ w.astype(np.float64).T + b
        np.testing.assert_allclose(tensor.fc_forward(x, w, b), expect,
                                   rtol=1e-6)

    def test_feature_mismatch(self):
        with pytest.raises(ShapeError, match="4 features.*expect 5"):
            tensor.fc_forward(np.zeros((1, 4), np.float32),
                              np.zeros((2, 5), np.float32),
                              np.zeros(2, np.float32))

    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_finite_differences(self, trial):
        rng = np.random.default_rng(400 + trial)
        b = int(rng.integers(1, 7))
        d = int(rng.integers(1, 7))
        o = int(rng.integers(1, 7))
        x = rng.normal(size=(b, d))
        w = rng.normal(size=(o, d))
        bias = rng.normal(size=o)
        r = rng.normal(size=(b, o))
        gx, gw, gb = tensor.fc_backward(r, x, w, input_grad=True)
        assert rel_error(gx, numerical_grad(
            lambda v: float((tensor.fc_forward(v, w, bias) * r).sum()), x)) < TOL
        assert rel_error(gw, numerical_grad(
            lambda v: float((tensor.fc_forward(x, v, bias) * r).sum()), w)) < TOL
        assert rel_error(gb, numerical_grad(
            lambda v: float((tensor.fc_forward(x, w, v) * r).sum()), bias)) < TOL


class TestReLU:
    def test_negative_clamps(self):
        out, mask = tensor.relu_forward(np.array([-3.0]))
        assert out[0] == 0 and not mask[0]
        assert tensor.relu_backward(np.array([1.0]), mask)[0] == 0

    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_finite_differences(self, trial):
        rng = np.random.default_rng(500 + trial)
        x = separated_uniform(rng, rand_shape(rng))
        out, mask = tensor.relu_forward(x)
        r = rng.normal(size=x.shape)
        g = tensor.relu_backward(r, mask)
        num = numerical_grad(
            lambda v: float((tensor.relu_forward(v)[0] * r).sum()), x)
        assert rel_error(g, num) < TOL


class TestSoftmaxCrossEntropy:
    def test_symmetric_logits(self):
        for label in (0, 1):
            loss, grad = tensor.softmax_cross_entropy(
                np.zeros((1, 2)), np.array([label]))
            assert np.isclose(loss, np.log(2))
        p = tensor.softmax(np.zeros((1, 2)))
        np.testing.assert_allclose(p, [[0.5, 0.5]])

    def test_probability_vector(self):
        rng = np.random.default_rng(5)
        z = rng.normal(scale=5, size=(20, 7))
        p = tensor.softmax(z)
        assert (p >= 0).all()
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)

    def test_label_out_of_range(self):
        with pytest.raises(ShapeError, match="out of range"):
            tensor.softmax_cross_entropy(np.zeros((1, 3)), np.array([3]))

    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_finite_differences(self, trial):
        rng = np.random.default_rng(600 + trial)
        b = int(rng.integers(1, 7))
        n = int(rng.integers(2, 7))
        z = rng.normal(size=(b, n))
        labels = rng.integers(0, n, size=b)
        _, grad = tensor.softmax_cross_entropy(z, labels)
        num = numerical_grad(
            lambda v: tensor.softmax_cross_entropy(v, labels)[0], z)
        assert rel_error(grad, num) < TOL


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = np.arange(6.0).reshape(1, 6)
        for mode in (True, False):
            out, mask = tensor.dropout(x, 0.0, mode, np.random.default_rng(0))
            np.testing.assert_array_equal(out, x)
            assert mask is None

    def test_eval_mode_is_identity(self):
        x = np.arange(6.0).reshape(1, 6)
        out, mask = tensor.dropout(x, 0.7, False, np.random.default_rng(0))
        np.testing.assert_array_equal(out, x)
        assert mask is None

    def test_train_mode_scales_kept_units(self):
        x = np.ones((4, 100))
        rate = 0.4
        out, mask = tensor.dropout(x, rate, True, np.random.default_rng(7))
        kept = out != 0
        np.testing.assert_allclose(out[kept], 1.0 / (1.0 - rate))
        assert 0.3 < kept.mean() < 0.9

    def test_bad_rate(self):
        with pytest.raises(ShapeError, match="rate"):
            tensor.dropout(np.ones((1, 1)), 1.0, True, np.random.default_rng(0))

    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_finite_differences_fixed_mask(self, trial):
        # with the mask held fixed, dropout is linear
        rng = np.random.default_rng(700 + trial)
        x = rng.normal(size=rand_shape(rng))
        _, mask = tensor.dropout(x, 0.5, True, np.random.default_rng(trial))
        r = rng.normal(size=x.shape)
        g = tensor.dropout_backward(r, mask)
        num = numerical_grad(lambda v: float((v * mask * r).sum()), x)
        assert rel_error(g, num) < TOL
