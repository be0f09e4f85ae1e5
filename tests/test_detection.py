"""Detection pipeline pieces: IoU, sample mining, SVM, NMS, bbox regression,
model combination, AP scoring, region features, and file formats."""

import sys
import threading
import time
import weakref

import numpy as np
import pytest

from pyrapool import dataio, inference, net, spp
from pyrapool import detection as det
from pyrapool.errors import ShapeError
from pyrapool.geometry import (WindowRect, iou_matrix, map_window,
                               window_array)
from _oracles import (brute_force_iou, oracle_apply_rows, oracle_bbox_apply,
                      oracle_extract_many, oracle_fit_hinge, oracle_nms,
                      oracle_ridge_system, oracle_run_detector,
                      reference_iou)

W = WindowRect


class TestIou:
    def test_identical(self):
        assert reference_iou(W(3, 4, 10, 12), W(3, 4, 10, 12)) == 1.0

    def test_disjoint(self):
        assert reference_iou(W(0, 0, 5, 5), W(10, 10, 15, 15)) == 0.0

    def test_half_overlap(self):
        assert np.isclose(reference_iou(W(0, 0, 10, 10), W(5, 0, 15, 10)),
                          1 / 3)

    def test_matches_pixel_set_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            a = sorted(rng.integers(0, 12, size=2))
            b = sorted(rng.integers(0, 12, size=2))
            if a[0] == a[1] or b[0] == b[1]:
                continue
            c = sorted(rng.integers(0, 12, size=2))
            d = sorted(rng.integers(0, 12, size=2))
            if c[0] == c[1] or d[0] == d[1]:
                continue
            ra = W(a[0], b[0], a[1], b[1])
            rb = W(c[0], d[0], c[1], d[1])
            assert np.isclose(
                reference_iou(ra, rb),
                brute_force_iou((ra.x0, ra.y0, ra.x1, ra.y1),
                                (rb.x0, rb.y0, rb.x1, rb.y1)))


class TestMineSvmSamples:
    def test_threshold_edge_is_exclusive_above_30(self):
        gt = [W(0, 0, 100, 100)]
        over = W(0, 0, 100, 31)    # IoU 0.31 -> excluded
        under = W(0, 0, 100, 30)   # IoU 0.30 -> kept
        pos, neg = det.mine_svm_samples([over, under], gt)
        assert pos == gt
        assert neg == [under]

    def test_identical_negatives_dedup(self):
        gt = [W(0, 0, 10, 10)]
        twin = W(50, 50, 60, 60)
        _, neg = det.mine_svm_samples([twin, twin], gt)
        assert neg == [twin]

    def test_six_box_case_matches_brute_force(self):
        gt = [W(0, 0, 20, 20)]
        props = [
            W(2, 2, 22, 22),      # high IoU with gt -> not negative
            W(40, 40, 60, 60),    # kept
            W(41, 41, 61, 61),    # IoU with previous > 0.7 -> dropped
            W(40, 40, 61, 61),    # overlaps kept one heavily -> dropped
            W(80, 0, 100, 20),    # kept
            W(0, 80, 20, 100),    # kept
        ]
        _, neg = det.mine_svm_samples(props, gt)
        # brute-force recomputation
        expect = []
        for p in props:
            if max(reference_iou(p, g) for g in gt) > 0.3:
                continue
            if any(reference_iou(p, k) > 0.7 for k in expect):
                continue
            expect.append(p)
        assert neg == expect
        assert neg == [props[1], props[4], props[5]]


class TestTrainSvm:
    def _separable(self, n=40, seed=52):
        rng = np.random.default_rng(seed)
        pos = rng.normal(loc=(2.0, 2.0), scale=0.3, size=(n, 2))
        neg = rng.normal(loc=(-2.0, -2.0), scale=0.3, size=(n, 2))
        x = np.vstack([pos, neg])
        y = np.concatenate([np.ones(n), -np.ones(n)])
        return x, y

    def test_separable_reaches_full_accuracy(self):
        x, y = self._separable()
        model = det.train_svm(x, y)
        assert ((model.scores(x) > 0) == (y > 0)).all()

    def test_margin_property(self):
        x, y = self._separable()
        model = det.train_svm(x, y)
        assert (model.scores(x) * y >= 1 - 0.05).all()

    def test_single_class_rejected(self):
        with pytest.raises(ShapeError, match="both classes"):
            det.train_svm(np.ones((4, 2)), np.ones(4))

    @pytest.mark.parametrize("change, message", [
        (lambda x, y, kw: x.__setitem__((5, 1), np.nan),
         "feature row 5 is not finite"),
        (lambda x, y, kw: x.__setitem__((7, 0), -np.inf),
         "feature row 7 is not finite"),
        (lambda x, y, kw: y.__setitem__(3, 2.0), "label 3 is 2, not"),
        (lambda x, y, kw: y.__setitem__(4, 0.0), "label 4 is 0, not"),
        (lambda x, y, kw: y.__setitem__(6, np.nan), "label 6 is nan, not"),
        (lambda x, y, kw: kw.update(c=np.nan), "c must be finite and positive"),
        (lambda x, y, kw: kw.update(c=0.0), "c must be finite and positive"),
    ])
    def test_bad_input_rejected_before_any_fit(self, change, message,
                                               monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the inputs were checked")

        x, y = self._separable(n=6)
        kwargs = {}
        change(x, y, kwargs)
        monkeypatch.setattr(det, "_fit_hinge", no_fit)
        with pytest.raises(ShapeError, match=message):
            det.train_svm(x, y, **kwargs)

    def test_one_fit_positives_then_negatives(self):
        # the fit's row order is part of its bytes: all positives, then all
        # negatives, each in input order; input order rounds differently
        rng = np.random.default_rng(55)
        x = rng.normal(size=(60, 24))
        y = np.where(np.arange(60) % 3 == 0, 1.0, -1.0)
        x[y > 0] += 0.5
        idx = np.concatenate([np.flatnonzero(y > 0), np.flatnonzero(y < 0)])
        w, b = det._fit_hinge(x[idx], y[idx], 1.0, det.SVM_EPOCHS, det.SVM_LR)
        w_in, _ = det._fit_hinge(x, y, 1.0, det.SVM_EPOCHS, det.SVM_LR)
        assert w_in.tobytes() != w.tobytes()
        model = det.train_svm(x, y)
        assert model.weight.tobytes() == w.tobytes()
        assert np.float64(model.bias).tobytes() == np.float64(b).tobytes()
        assert model.hard_negatives_added == 0

    @pytest.mark.parametrize("layout", ["float64", "float32", "fortran",
                                        "strided"])
    def test_positives_first_rows_equal_the_gathered_fit(self, layout,
                                                         monkeypatch):
        # rows already positives-first are not gathered: the fit is the
        # bytes of the gathered (C-contiguous) copy, and C-contiguous rows
        # reach `_fit_hinge` as the caller's array
        rng = np.random.default_rng(57)
        x = rng.normal(size=(60, 24))
        y = np.where(np.arange(60) < 20, 1.0, -1.0)
        x[y > 0] += 0.5
        rows = {"float64": x, "float32": x.astype(np.float32),
                "fortran": np.asfortranarray(x),
                "strided": np.repeat(x, 2, axis=1)[:, ::2]}[layout]
        gathered = rows[np.arange(60)]
        w, b = oracle_fit_hinge(gathered, y, 1.0, det.SVM_EPOCHS, det.SVM_LR)
        seen = []
        fit = det._fit_hinge
        monkeypatch.setattr(det, "_fit_hinge",
                            lambda x, *a: seen.append(x) or fit(x, *a))
        model = det.train_svm(rows, y)
        assert model.weight.tobytes() == w.tobytes()
        assert np.float64(model.bias).tobytes() == np.float64(b).tobytes()
        assert (seen[0] is rows) == rows.flags.c_contiguous


U = np.finfo(np.float64).eps / 2


def _gamma(k):
    """Higham's gamma_k = k*u/(1 - k*u): the relative rounding bound of a
    k-term float64 dot product in any summation order."""
    return k * U / (1.0 - k * U)


class _Products(np.ndarray):
    """float64 rows that log the row count of every `rows @ w` product and
    shift products over a strict subset of the rows by `push` times their
    worst-case rounding gamma_d * |rows| @ |w|: a BLAS whose kernel for a few
    rows rounds differently from its kernel for all of them."""

    def __array_finalize__(self, obj):
        self.log = getattr(obj, "log", None)
        self.n_rows = getattr(obj, "n_rows", None)
        self.push = getattr(obj, "push", 0.0)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [np.asarray(a) for a in inputs]
        out = getattr(ufunc, method)(*plain, **kwargs)
        if (ufunc is np.matmul and inputs[0] is self
                and plain[1].ndim == 1):
            self.log.append(len(self))
            if len(self) < self.n_rows:
                d = self.shape[1]
                out = out + self.push * _gamma(d) * (np.abs(plain[0])
                                                     @ np.abs(plain[1]))
        return out


def _products(x, push=0.0):
    rows = np.array(x, dtype=np.float64).view(_Products)
    rows.log, rows.n_rows, rows.push = [], len(rows), push
    return rows


def _epoch1_margins(x, y, lr):
    w, b = oracle_fit_hinge(x, y, 1.0, 1, lr)
    return y * (x @ w + b)


def _fit_problems(seed):
    """Random hinge problems, one per kind: cold and warm starts, duplicate
    rows, all-zero rows, float32, strided and integer-valued features, and
    margins placed on and next to 1.0."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(24, 120)), int(rng.integers(2, 48))
    y = np.where(rng.random(n) < 0.3, 1.0, -1.0)
    y[:2] = (1.0, -1.0)
    gauss = rng.normal(size=(n, d)) * rng.choice([0.1, 1.0, 10.0])
    relu = np.maximum(rng.normal(size=(n, d)), 0).astype(np.float32)
    dup = gauss[rng.integers(0, 5, n)]
    zeros = gauss.copy()
    zeros[rng.random(n) < 0.3] = 0.0
    ints = rng.integers(-3, 4, size=(n, d)).astype(np.float64)
    w_warm = rng.normal(size=d) * 0.3
    # from a cold start the epoch-1 margins are lr * a: the first lr = 1/a_i
    # that rounds a margin to exactly 1.0 puts it there in a screened epoch
    a = _epoch1_margins(ints, y, 1.0)
    lr_on_one = next(lr for lr in 1.0 / a[a > 0]
                     if (_epoch1_margins(ints, y, lr) == 1.0).any())
    # warm start with every positive row's margin at 1.0 or one ulp away
    b_near = 1.0 - float(gauss[0] @ w_warm)
    near = gauss.copy()
    near[y > 0] = gauss[0]
    eps = [np.nextafter(b_near, -np.inf), b_near, np.nextafter(b_near, np.inf)]
    return {
        "cold": (gauss, y, 1.0, 150, 0.5, None, 0.0),
        "warm": (gauss, y, 4.0, 120, 0.3, w_warm, float(rng.normal())),
        "float32": (relu, y, 1.0, 150, 0.5, None, 0.0),
        "strided": (np.repeat(gauss, 2, axis=1)[:, ::2], y, 1.0, 150, 0.5,
                    None, 0.0),
        "duplicates": (dup, y, 1.0, 150, 1.0, None, 0.0),
        "zero_rows": (zeros, y, 0.5, 150, 0.5, w_warm, 0.25),
        "integers": (ints, y, 1.0, 150, 0.5, None, 0.0),
        "integers_on_one": (ints, y, 1.0, 120, lr_on_one, None, 0.0),
        "near_one": (near, y, 1.0, 120, 0.5, w_warm, float(rng.choice(eps))),
        "near_one_slow": (near, y, 1.0, 60, 1e-9, w_warm, b_near),
    }


class TestScreenedFit:
    """`_fit_hinge` screens rows that cannot violate the margin and must give
    the bytes of `oracle_fit_hinge`, which computes every margin each epoch."""

    @staticmethod
    def _assert_same_fit(args):
        x, y, c, epochs, lr, w, b = args
        w_ref, b_ref = oracle_fit_hinge(np.asarray(x), y, c, epochs, lr,
                                        w=w, b=b)
        w_got, b_got = det._fit_hinge(x, y, c, epochs, lr, w=w, b=b)
        assert w_got.tobytes() == w_ref.tobytes()
        assert np.float64(b_got).tobytes() == np.float64(b_ref).tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_oracle_on_random_problems(self, seed):
        for args in _fit_problems(900 + seed).values():
            self._assert_same_fit(args)

    @staticmethod
    def _balanced(b):
        """Row 0's margin is `b` exactly at every epoch (x0.w = 3 - 3 with
        w0 = w1 throughout); rows 1 and 2 sit far above 1, so no row
        violates, w only shrinks and b stays."""
        d = 64
        x = np.zeros((3, d))
        x[0, :2] = (1.0, -1.0)
        x[1, 2] = 1.0
        x[2, 3] = 1.0
        y = np.array([1.0, 1.0, -1.0])
        w = np.full(d, 3.0)
        w[3] = -10.0
        return x, y, w, b

    def test_subset_rounding_cannot_change_violators(self):
        # row 0's full product gives margin 1.0 exactly: not a violator; a
        # subset product rounded half its worst case lower reads it below 1
        x, y, w, b = self._balanced(1.0)
        args = (_products(x, push=-0.5), y, 1.0, 4, 0.5, w, b)
        self._assert_same_fit(args)
        assert args[0].log == [3] + [1, 3] * 3

    def test_margin_within_two_roundings_of_one_runs_full_product(self):
        # a recomputed margin 1.5 one-product rounding bounds above 1 may be
        # a violator once both products' rounding is counted
        x, y, w, _ = self._balanced(0.0)
        one = _gamma(x.shape[1] + 1) * np.linalg.norm(x[0]) * np.linalg.norm(w)
        b = 1.0 + 1.5 * (one + U)
        args = (_products(x), y, 1.0, 4, 0.5, w, b)
        self._assert_same_fit(args)
        assert args[0].log == [3] + [1, 3] * 3

    def test_skips_rows_far_from_the_margin(self):
        x, y = TestTrainSvm()._separable(n=40)
        rows = _products(x)
        det._fit_hinge(rows, y, 1.0, 400, 0.5)
        # every row violates at epoch 0 and may still be near at epoch 1
        assert rows.log[:2] == [80, 80] and 80 not in rows.log[2:]
        assert sum(rows.log) < 0.1 * 80 * 400


class TestNms:
    def test_single_detection(self):
        d = det.Detection("a", W(0, 0, 5, 5), 0, 0.5)
        assert det.nms([d]) == [d]

    def test_overlapping_pair_keeps_higher(self):
        hi = det.Detection("a", W(0, 0, 10, 10), 0, 0.9)
        lo = det.Detection("a", W(0, 0, 10, 5), 0, 0.8)  # IoU 0.5
        assert det.nms([lo, hi]) == [hi]

    def test_disjoint_pair_survives(self):
        a = det.Detection("a", W(0, 0, 10, 10), 0, 0.9)
        b = det.Detection("a", W(20, 20, 30, 30), 0, 0.8)
        assert det.nms([a, b]) == [a, b]

    def test_score_tie_broken_by_input_order(self):
        a = det.Detection("a", W(0, 0, 10, 10), 0, 0.9)
        b = det.Detection("a", W(0, 0, 10, 9), 0, 0.9)
        assert det.nms([a, b]) == [a]
        assert det.nms([b, a]) == [b]

    def _random_dets(self, rng, n):
        out = []
        for _ in range(n):
            x0 = int(rng.integers(0, 40))
            y0 = int(rng.integers(0, 40))
            out.append(det.Detection(
                "img", W(x0, y0, x0 + int(rng.integers(2, 20)),
                         y0 + int(rng.integers(2, 20))),
                0, float(rng.normal())))
        return out

    def test_idempotent_antichain_subset_on_random_sets(self):
        rng = np.random.default_rng(54)
        for _ in range(1000):
            dets = self._random_dets(rng, int(rng.integers(1, 12)))
            kept = det.nms(dets)
            assert det.nms(kept) == kept               # idempotent
            for i, a in enumerate(kept):               # antichain
                for b in kept[i + 1:]:
                    assert reference_iou(a.window, b.window) <= 0.3
            assert all(k in dets for k in kept)        # subset, scores intact


class TestCombineModels:
    def test_self_union_equals_single_nms(self):
        rng = np.random.default_rng(55)
        dets = TestNms()._random_dets(rng, 8)
        assert det.combine_models([dets, dets]) == det.nms(dets)

    def test_disjoint_union_preserved(self):
        a = [det.Detection("i", W(0, 0, 5, 5), 0, 0.5)]
        b = [det.Detection("i", W(20, 20, 25, 25), 0, 0.4)]
        combined = det.combine_models([a, b])
        assert sorted((d.score for d in combined)) == [0.4, 0.5]

    def test_cross_model_suppression_matches_oracle(self):
        # two models, four boxes in two clusters; oracle = exhaustive NMS
        m1 = [det.Detection("i", W(0, 0, 10, 10), 0, 0.7),
              det.Detection("i", W(30, 0, 40, 10), 0, 0.6)]
        m2 = [det.Detection("i", W(1, 0, 11, 10), 0, 0.9),
              det.Detection("i", W(31, 0, 41, 10), 0, 0.5)]
        combined = det.combine_models([m1, m2])
        union = m1 + m2
        order = sorted(union, key=lambda d: -d.score)
        oracle = []
        for d in order:
            if all(reference_iou(d.window, k.window) <= 0.3
                   for k in oracle):
                oracle.append(d)
        assert combined == oracle
        assert {d.score for d in combined} == {0.9, 0.6}


class TestTieRules:
    # the detection overlaps both boxes by IoU 80/120 exactly
    G1, G2 = W(0, 0, 10, 10), W(4, 0, 14, 10)
    MIDDLE = W(2, 0, 12, 10)

    def test_map_matching_takes_last_of_equal_boxes(self):
        # the second detection overlaps G1 by 0.8 and G2 by 40/140, so it
        # can only match G1: both are true positives only if the first
        # detection took G2
        gt = {"i": [(0, self.G1), (0, self.G2)]}
        dets = [det.Detection("i", self.MIDDLE, 0, 0.9),
                det.Detection("i", W(0, 0, 8, 10), 0, 0.8)]
        aps, _ = det.evaluate_map(dets, gt)
        assert aps[0] == 1.0

    def test_bbox_pair_takes_last_of_equal_boxes(self):
        pairs = det.collect_bbox_pairs([self.MIDDLE], [self.G1, self.G2])
        assert len(pairs) == 1
        np.testing.assert_array_equal(
            pairs[0][1], det.bbox_targets(self.MIDDLE, self.G2))

    def test_nms_equal_scores_keep_input_order(self):
        a = det.Detection("i", self.G1, 0, 0.5)
        b = det.Detection("i", self.MIDDLE, 0, 0.5)
        c = det.Detection("i", W(40, 40, 50, 50), 0, 0.5)
        assert det.nms([a, b, c]) == [a, c]
        assert det.nms([c, b, a]) == [c, b]

    def test_overlap_equal_to_threshold_is_kept(self):
        # IoU 30/100 and 70/100 are the float64 nearest 0.3 and 0.7
        a = det.Detection("i", W(0, 0, 10, 10), 0, 0.9)
        b = det.Detection("i", W(0, 0, 10, 3), 0, 0.8)
        assert det.nms([a, b]) == [a, b]
        near = [W(50, 50, 60, 60), W(50, 50, 60, 57)]
        _, neg = det.mine_svm_samples(near, [W(0, 0, 10, 10)])
        assert neg == near

    def test_duplicate_proposals_collapse_to_one_negative(self):
        twin, other = W(50, 50, 60, 60), W(0, 50, 10, 60)
        _, neg = det.mine_svm_samples([twin, other, twin, twin, other],
                                      [W(0, 0, 10, 10)])
        assert neg == [twin, other]


class TestBBoxRegression:
    def test_identity_pair_targets_zero(self):
        box = W(10, 20, 60, 90)
        np.testing.assert_array_equal(det.bbox_targets(box, box), np.zeros(4))

    def test_shifted_proposal_sign_convention(self):
        gt = W(0, 0, 100, 100)
        proposal = W(10, 0, 110, 100)  # shifted +10px
        t = det.bbox_targets(proposal, gt)
        np.testing.assert_allclose(t, [-0.1, 0.0, 0.0, 0.0], atol=1e-12)

    def test_disabled_regressor_is_identity(self):
        reg = det.BBoxRegressor(None)
        box = W(5, 5, 20, 20)
        assert reg.apply(np.ones(8), box, (100, 100)) == box

    def test_no_qualifying_pairs_disables(self):
        pairs = det.collect_bbox_pairs([W(0, 0, 5, 5)], [W(50, 50, 80, 80)])
        assert pairs == []
        model = det.bbox_regress_train(np.empty((0, 4)), np.empty((0, 4)))
        assert not model.enabled

    def test_learns_constant_shift(self):
        # proposals all shifted +8px from their boxes; features constant
        rng = np.random.default_rng(56)
        feats, targets = [], []
        for _ in range(30):
            x0 = int(rng.integers(10, 60))
            y0 = int(rng.integers(10, 60))
            gt = W(x0, y0, x0 + 40, y0 + 40)
            prop = W(x0 + 8, y0, x0 + 48, y0 + 40)
            feats.append([1.0])
            targets.append(det.bbox_targets(prop, gt))
        reg = det.bbox_regress_train(np.array(feats), np.array(targets))
        prop = W(28, 20, 68, 60)
        fixed = reg.apply(np.array([1.0]), prop, (200, 200))
        assert fixed == W(20, 20, 60, 60)

    @pytest.mark.parametrize("ridge_lambda", [0.0, 1e-6, 1.0, 3.5])
    def test_ridge_system_is_the_eye_form(self, ridge_lambda, monkeypatch):
        # formed in place: the bytes of Gram + lambda*eye with the bias
        # unpenalized, on ReLU-like, signed and -0.0 features; the fit reads
        # RIDGE_LAMBDA, set here to each value of the sweep
        monkeypatch.setattr(det, "RIDGE_LAMBDA", ridge_lambda)
        rng = np.random.default_rng(58)
        for n, d in ((1, 3), (7, 40), (33, 800)):
            x = np.maximum(rng.normal(size=(n, d)), 0).astype(np.float32)
            x[:, 0] = -0.0
            x[:, 1] = rng.normal(size=n)
            t = rng.normal(size=(n, 4))
            a, rhs = det._ridge_system(x, t)
            a_ref, rhs_ref = oracle_ridge_system(x, t, ridge_lambda)
            assert a.tobytes() == a_ref.tobytes()
            assert rhs.tobytes() == rhs_ref.tobytes()
            if ridge_lambda > 0:  # a zero column makes lambda = 0 singular
                reg = det.bbox_regress_train(x, t)
                assert reg.weights.tobytes() == np.linalg.solve(
                    a_ref, rhs_ref).tobytes()

    def test_apply_clamps_to_image(self):
        reg = det.bbox_regress_train(np.array([[1.0]]),
                                     np.array([[0.0, 0.0, 2.0, 2.0]]))
        out = reg.apply(np.array([1.0]), W(0, 0, 30, 30), (40, 40))
        assert 0 <= out.x0 < out.x1 <= 40
        assert 0 <= out.y0 < out.y1 <= 40


class TestEvaluateMap:
    def test_perfect_detections(self):
        gt = {"i": [(0, W(0, 0, 10, 10)), (1, W(20, 20, 40, 40))]}
        dets = [det.Detection("i", W(0, 0, 10, 10), 0, 0.9),
                det.Detection("i", W(20, 20, 40, 40), 1, 0.8)]
        aps, mean = det.evaluate_map(dets, gt)
        assert aps == {0: 1.0, 1: 1.0}
        assert mean == 1.0

    def test_zero_detections(self):
        gt = {"i": [(0, W(0, 0, 10, 10))]}
        aps, mean = det.evaluate_map([], gt)
        assert mean == 0.0

    def test_false_positive_between_true_positives(self):
        gt = {"i": [(0, W(0, 0, 10, 10)), (0, W(30, 30, 40, 40))]}
        dets = [
            det.Detection("i", W(0, 0, 10, 10), 0, 0.9),    # TP
            det.Detection("i", W(60, 60, 70, 70), 0, 0.8),  # FP
            det.Detection("i", W(30, 30, 40, 40), 0, 0.7),  # TP
        ]
        aps, mean = det.evaluate_map(dets, gt)
        # hand PR walk: (p=1, r=.5), (p=.5, r=.5), (p=2/3, r=1)
        assert np.isclose(aps[0], 0.5 * 1.0 + 0.5 * (2 / 3))

    def test_matches_prefix_enumeration_oracle(self):
        rng = np.random.default_rng(57)
        for _ in range(50):
            n_gt = int(rng.integers(1, 4))
            gt_boxes = []
            for _ in range(n_gt):
                x0 = int(rng.integers(0, 50))
                y0 = int(rng.integers(0, 50))
                gt_boxes.append(W(x0, y0, x0 + int(rng.integers(5, 15)),
                                  y0 + int(rng.integers(5, 15))))
            gt = {"i": [(0, b) for b in gt_boxes]}
            dets = []
            for k in range(int(rng.integers(1, 7))):
                if rng.random() < 0.6:
                    base = gt_boxes[int(rng.integers(0, n_gt))]
                    win = W(base.x0 + int(rng.integers(0, 3)), base.y0,
                            base.x1 + int(rng.integers(0, 3)), base.y1)
                else:
                    x0 = int(rng.integers(60, 90))
                    win = W(x0, x0, x0 + 8, x0 + 8)
                dets.append(det.Detection("i", win, 0, float(rng.normal())))
            aps, _ = det.evaluate_map(dets, gt)
            assert np.isclose(aps[0], _oracle_ap(dets, gt_boxes), atol=1e-12)


def _oracle_ap(dets, gt_boxes, thresh=0.5):
    """All-points AP by explicit prefix enumeration."""
    order = sorted(dets, key=lambda d: -d.score)
    matched = [False] * len(gt_boxes)
    flags = []
    for d in order:
        best, best_v = -1, thresh
        for j, g in enumerate(gt_boxes):
            v = reference_iou(d.window, g)
            if v >= best_v and not matched[j]:
                best, best_v = j, v
        if best >= 0:
            matched[best] = True
            flags.append(1)
        else:
            flags.append(0)
    points = []
    tp = 0
    for i, f in enumerate(flags):
        tp += f
        points.append((tp / len(gt_boxes), tp / (i + 1)))
    ap = 0.0
    prev_r = 0.0
    for r, _ in sorted(set(points)):
        best_p = max((p for rr, p in points if rr >= r), default=0.0)
        ap += (r - prev_r) * best_p
        prev_r = r
    return ap


class TestRegionFeatures:
    def setup_method(self):
        self.spec = net.toy_shape_net()
        self.params = net.ParameterStore(seed=61, sigma=0.05)
        rng = np.random.default_rng(62)
        self.pixels = rng.uniform(0, 255, (1, 64, 80)).astype(np.float32)

    def test_feature_length_is_k_times_bins(self):
        ex = det.RegionFeatureExtractor(self.spec, self.params,
                                        scales=(64,), view=32)
        vec = ex.extract("img", self.pixels, W(10, 10, 40, 40))
        assert vec.shape == (16 * 50,)
        assert ex.feature_length == 16 * 50

    def test_conv_passes_equal_scales_not_proposals(self):
        ex = det.RegionFeatureExtractor(self.spec, self.params,
                                        scales=(48, 64, 96), view=32)
        ex.extract("img", self.pixels, W(5, 5, 30, 30))
        ex.extract("img", self.pixels, W(20, 20, 60, 60))
        assert ex.conv_passes == 3

    def test_crop_map_equivalence(self):
        # pooling a mapped window off the full map equals pooling the cropped
        # rectangle as a standalone tensor: identical cell sets
        ex = det.RegionFeatureExtractor(self.spec, self.params,
                                        scales=(64,), view=32,
                                        pyramid=(3, 2, 1))
        entry = ex.prepare("img", self.pixels)
        featmap, (rw, rh) = entry["maps"][64]
        rng = np.random.default_rng(63)
        for _ in range(50):
            x0 = int(rng.integers(0, 60))
            y0 = int(rng.integers(0, 44))
            win = W(x0, y0, x0 + int(rng.integers(4, 20)),
                    y0 + int(rng.integers(4, 20)))
            rect = map_window(win.scaled(64 / 64).clamped(rw, rh), ex.stride,
                              featmap.shape[1:])
            crop = featmap[:, rect.fy0:rect.fy1 + 1, rect.fx0:rect.fx1 + 1]
            direct, _ = spp.spp_forward(crop.copy(), ex.pyramid)
            via = ex.extract("img", self.pixels, win)
            np.testing.assert_array_equal(via, direct)

    def test_proposal_outside_image_rejected(self):
        ex = det.RegionFeatureExtractor(self.spec, self.params,
                                        scales=(64,), view=32)
        with pytest.raises(ShapeError):
            ex.extract("img", self.pixels, W(100, 100, 120, 120))

    def test_holds_one_image_over_many_ids(self, monkeypatch):
        scales = (48, 64)
        ex = det.RegionFeatureExtractor(self.spec, self.params,
                                        scales=scales, view=32)
        rng = np.random.default_rng(64)
        images = {f"img{i}": rng.uniform(0, 255, (1, 40, 48)).astype(
            np.float32) for i in range(21)}
        first = weakref.ref(ex.prepare("img0", images["img0"])["maps"][48][0])
        network_input = inference.network_input
        released = []

        def checked(*args, **kwargs):  # the old maps go before new ones come
            released.append(first() is None)
            return network_input(*args, **kwargs)

        monkeypatch.setattr(inference, "network_input", checked)
        for image_id, pixels in list(images.items())[1:]:
            ex.extract(image_id, pixels, W(2, 2, 30, 30))
        assert len(released) == 20 * len(scales) and all(released)
        assert ex.conv_passes == len(images) * len(scales)
        ex.prepare("img0", images["img0"])
        assert ex.conv_passes == (len(images) + 1) * len(scales)

    def test_repeated_scale_rejected(self):
        with pytest.raises(ShapeError, match=r"^scale 48 is repeated in "
                                             r"\(48, 64, 48\)$"):
            det.RegionFeatureExtractor(self.spec, self.params,
                                       scales=(48, 64, 48), view=32)

    def test_one_extractor_shared_by_threads(self):
        # each call pools its own image's maps, whichever image the others
        # hold by the time `prepare` returns, and every trunk pass is counted
        scales, n_threads, per_thread = (24, 32), 4, 6
        rng = np.random.default_rng(68)
        images = [[rng.uniform(0, 255, (1, 24, 30)).astype(np.float32)
                   for _ in range(per_thread)] for _ in range(n_threads)]
        windows = [W(0, 0, 30, 24), W(3, 2, 20, 18)]
        fresh = det.RegionFeatureExtractor(self.spec, self.params,
                                           scales=scales, view=16)
        expect = [[fresh.extract_many(f"{t}-{i}", pixels, windows).tobytes()
                   for i, pixels in enumerate(row)]
                  for t, row in enumerate(images)]
        shared = det.RegionFeatureExtractor(self.spec, self.params,
                                            scales=scales, view=16)
        prepare = shared.prepare

        def slow_prepare(image_id, pixels):
            entry = prepare(image_id, pixels)
            time.sleep(0.002)  # the other threads prepare their images
            return entry

        shared.prepare = slow_prepare
        got = [[None] * per_thread for _ in range(n_threads)]

        def work(t):
            for i, pixels in enumerate(images[t]):
                got[t][i] = shared.extract_many(f"{t}-{i}", pixels,
                                                windows).tobytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,))
                       for t in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert got == expect
        assert shared.conv_passes == n_threads * per_thread * len(scales)

    def test_reused_id_with_new_pixels_gets_fresh_maps(self):
        other = np.random.default_rng(67).uniform(
            0, 255, self.pixels.shape).astype(np.float32)
        windows = [W(5, 5, 30, 30), W(20, 20, 60, 60)]
        ex = det.RegionFeatureExtractor(self.spec, self.params,
                                        scales=(48, 64), view=32)
        first = ex.extract_many("img", self.pixels, windows)
        second = ex.extract_many("img", other, windows)
        fresh = det.RegionFeatureExtractor(
            self.spec, self.params, scales=(48, 64),
            view=32).extract_many("img", other, windows)
        assert second.tobytes() == fresh.tobytes()
        assert first.tobytes() != second.tobytes()
        assert ex.conv_passes == 4

    def test_prepare_then_extract_runs_the_trunk_once(self):
        ex = det.RegionFeatureExtractor(self.spec, self.params,
                                        scales=(48, 64, 96), view=32)
        entry = ex.prepare("img", self.pixels)
        ex.extract("img", self.pixels, W(5, 5, 30, 30))
        assert ex.prepare("img", self.pixels) is entry
        assert ex.conv_passes == 3


def _counting(extractor):
    """Record every (image_id, window) the extractor is asked to pool."""
    calls = []
    extract_many = extractor.extract_many

    def counted(image_id, pixels, windows):
        calls.extend((image_id, w) for w in windows)
        return extract_many(image_id, pixels, windows)

    extractor.extract_many = counted
    return calls


def _class_major_fit(extractor, images, proposals, ground_truth, classes):
    """Class-by-class oracle: pool each class's samples in image order."""
    svms, regressors = {}, {}
    for cls in classes:
        feats, labels, reg_feats, reg_targets = [], [], [], []
        for image_id, pixels in images.items():
            gt_cls = [w for c, w in ground_truth.get(image_id, []) if c == cls]
            props = proposals.get(image_id, [])
            pos, neg = det.mine_svm_samples(props, gt_cls)
            feats += [extractor.extract(image_id, pixels, w) for w in pos + neg]
            labels += [1.0] * len(pos) + [-1.0] * len(neg)
            for win, target in (det.collect_bbox_pairs(props, gt_cls)
                                if gt_cls else []):
                reg_feats.append(extractor.extract(image_id, pixels, win))
                reg_targets.append(target)
        svms[cls] = det.train_svm(np.array(feats), np.array(labels))
        regressors[cls] = det.bbox_regress_train(np.array(reg_feats),
                                                 np.array(reg_targets))
    return svms, regressors


class TestPoolOnce:
    SCALES = (48, 64)

    def setup_method(self):
        self.spec = net.toy_shape_net()
        self.params = net.ParameterStore(seed=65, sigma=0.05)
        rng = np.random.default_rng(66)
        self.images = {i: rng.uniform(0, 255, (1, 64, 80)).astype(np.float32)
                       for i in ("a", "b")}
        self.gt = {"a": [(0, W(5, 5, 35, 35)), (1, W(40, 20, 75, 60))],
                   "b": [(0, W(30, 10, 70, 50))]}
        self.proposals = {}
        for image_id, boxes in self.gt.items():
            props = []
            for _, g in boxes:
                for dx, dy in ((0, 0), (2, 1), (-3, 2), (1, -2)):
                    props.append(W(max(0, g.x0 + dx), max(0, g.y0 + dy),
                                   g.x1 + dx, g.y1 + dy))
            for _ in range(12):
                x0, y0 = int(rng.integers(0, 60)), int(rng.integers(0, 44))
                props.append(W(x0, y0, x0 + int(rng.integers(8, 20)),
                               y0 + int(rng.integers(8, 20))))
            props.append(props[-1])  # a duplicate proposal
            self.proposals[image_id] = props

    def _extractor(self):
        return det.RegionFeatureExtractor(self.spec, self.params,
                                          scales=self.SCALES, view=32)

    def _fit(self, extractor):
        return det.fit_detector(extractor, self.images, self.proposals,
                                self.gt, classes=(0, 1))

    def test_fit_pools_each_window_once_and_drops_maps(self):
        ex = self._extractor()
        calls = _counting(ex)
        self._fit(ex)
        distinct = {(i, w) for i in self.images
                    for w in self.proposals[i] + [g for _, g in self.gt[i]]}
        assert len(calls) == len(set(calls)) == len(distinct)
        assert set(calls) == distinct
        assert ex.conv_passes == len(self.images) * len(self.SCALES)
        assert ex._held is None or ex._held[0] == list(self.images)[-1]

    def test_fit_matches_class_major_pooling(self):
        model = self._fit(self._extractor())
        svms, regressors = _class_major_fit(
            self._extractor(), self.images, self.proposals, self.gt, (0, 1))
        for cls in (0, 1):
            np.testing.assert_array_equal(model.svms[cls].weight,
                                          svms[cls].weight)
            assert model.svms[cls].bias == svms[cls].bias
            assert model.regressors[cls].enabled
            np.testing.assert_array_equal(model.regressors[cls].weights,
                                          regressors[cls].weights)

    def test_fit_solves_beside_the_svm(self, monkeypatch):
        # at 2 threads each class's SVM fit and ridge solve run at once, on
        # two threads; serially the solve follows the SVM on the caller
        train_svm, ridge_solve = det.train_svm, det._ridge_solve
        for threads in ("1", "2"):
            monkeypatch.setenv("PYRAPOOL_THREADS", threads)
            both = threading.Barrier(2, timeout=10)
            seen = []

            def task(name, fn, *args, **kwargs):
                seen.append((name, threading.get_ident()))
                if threads == "2":
                    both.wait()
                return fn(*args, **kwargs)

            monkeypatch.setattr(det, "train_svm", lambda *a, **k: task(
                "svm", train_svm, *a, **k))
            monkeypatch.setattr(det, "_ridge_solve", lambda *a: task(
                "solve", ridge_solve, *a))
            self._fit(self._extractor())
            assert len(seen) == 4
            if threads == "1":
                assert [name for name, _ in seen] == ["svm", "solve"] * 2
                assert {ident for _, ident in seen} == \
                    {threading.get_ident()}
            else:
                svm = {ident for name, ident in seen if name == "svm"}
                assert svm == {threading.get_ident()}
                assert all(ident not in svm for name, ident in seen
                           if name == "solve")

    def test_run_with_bbox_pools_each_proposal_once(self):
        model = self._fit(self._extractor())
        ex = self._extractor()
        calls = _counting(ex)
        dets = det.run_detector(ex, model, self.images, self.proposals,
                                apply_bbox=True)
        assert dets
        assert len(calls) == sum(len(p) for p in self.proposals.values())

    def test_class_without_negatives_is_named(self, monkeypatch):
        # every proposal of image b overlaps its class-0 box: class 0 gets
        # positives and no negatives, class 1 has no box in this split; at
        # 2 threads the SVM fails on the calling thread beside a solve
        images = {"b": self.images["b"]}
        proposals = {"b": self.proposals["b"][:4]}
        for threads in ("1", "2"):
            monkeypatch.setenv("PYRAPOOL_THREADS", threads)
            with pytest.raises(ShapeError, match="^class 0: SVM training "
                                                 "needs both classes "
                                                 "present$"):
                det.fit_detector(self._extractor(), images, proposals,
                                 {"b": self.gt["b"]}, classes=(0,))
            with pytest.raises(ShapeError, match="^class 1: SVM training "
                                                 "needs both classes "
                                                 "present$"):
                det.fit_detector(self._extractor(), images, self.proposals,
                                 {"b": self.gt["b"]}, classes=(0, 1))

    def test_training_proposal_outside_image_rejected(self):
        # the second proposal lies wholly right of the 80-px image and
        # overlaps the first by IoU > 0.7, so negative dedup would drop it
        images = {"edge": self.images["a"]}
        proposals = {"edge": [W(75, 0, 125, 40), W(80, 0, 130, 40)]}
        gt = {"edge": [(0, W(0, 0, 30, 30))]}
        with pytest.raises(ShapeError, match="edge"):
            det.fit_detector(self._extractor(), images, proposals, gt, (0,))


class TestScreenedDetectorDigest:
    """The detections of a fitted detector are the bytes that the unscreened
    SVM fit gives."""

    @pytest.mark.parametrize("seed", (3, 17, 29))
    def test_detections_match_oracle_fit(self, seed, tmp_path, monkeypatch):
        spec = net.toy_shape_net()
        params = net.ParameterStore(seed=seed, sigma=0.05)
        splits = []
        for name, n_images in (("train", 4), ("test", 3)):
            paths = dataio.generate_toy_detection_dataset(
                tmp_path / name, seed=seed + n_images, n_images=n_images)
            images = {i: dataio.load_image(p).pixels for i, p in
                      dataio.load_detection_manifest(paths["manifest"]).items()}
            splits.append((images, det.read_proposals(paths["proposals"]),
                           det.read_ground_truth(paths["gt"])))
        (images, proposals, gt), (test_images, test_proposals, _) = splits
        classes = sorted({c for boxes in gt.values() for c, _ in boxes})

        def detect():
            ex = det.RegionFeatureExtractor(spec, params, scales=(48, 64),
                                            view=32)
            model = det.fit_detector(ex, images, proposals, gt, classes)
            return det.format_detections(det.run_detector(
                ex, model, test_images, test_proposals, apply_bbox=True))

        text = detect()
        monkeypatch.setattr(det, "_fit_hinge", oracle_fit_hinge)
        assert text and detect() == text


class _ScoreRule(det.SvmModel):
    """An SVM stand-in whose scores are a fixed function of the features."""

    def __init__(self, rule):
        super().__init__(np.zeros(1), 0.0)
        self.rule = rule

    def scores(self, features):
        return self.rule(features.astype(np.float64))


def _random_windows(rng, n, img_w, img_h):
    """Windows partly outside the image, flush with its edges, narrower than
    a stride, and duplicated."""
    out = []
    for _ in range(n):
        x0 = int(rng.integers(-10, img_w - 1))
        y0 = int(rng.integers(-10, img_h - 1))
        out.append(W(x0, y0, max(x0 + 1, 1) + int(rng.integers(0, 40)),
                     max(y0 + 1, 1) + int(rng.integers(0, 40))))
    out += [W(0, 0, img_w, img_h), W(0, 0, 1, 1), W(img_w - 2, 0, img_w, 3),
            W(5, 5, 7, 9), W(-3, img_h - 4, 6, img_h + 5)]
    return out + out[:3]


class TestWindowArrays:
    """The array path from windows to detections against the per-window code
    it replaced (`_oracles`), byte for byte."""

    def setup_method(self):
        self.spec = net.toy_shape_net()
        self.params = net.ParameterStore(seed=71, sigma=0.05)
        rng = np.random.default_rng(72)
        self.images = {f"im{i}": rng.uniform(0, 255, (1, h, w)).astype(
            np.float32) for i, (h, w) in enumerate(((64, 80), (50, 37),
                                                     (72, 72)))}

    def _extractor(self, scales=(32, 48, 64, 96)):
        return det.RegionFeatureExtractor(self.spec, self.params,
                                          scales=scales, view=32)

    def test_extract_many_matches_oracle(self):
        rng = np.random.default_rng(73)
        ex, ref = self._extractor(), self._extractor()
        for image_id, pixels in self.images.items():
            h, w = pixels.shape[1:]
            windows = _random_windows(rng, 60, w, h)
            expect = oracle_extract_many(ref, image_id, pixels, windows)
            for form in (windows, window_array(windows)):
                got = ex.extract_many(image_id, pixels, form)
                assert got.dtype == np.float32
                assert got.tobytes() == expect.tobytes()
        empty = ex.extract_many("im0", self.images["im0"], np.empty((0, 4)))
        assert empty.shape == (0, ex.feature_length)

    def test_extract_many_pools_once_per_image(self, monkeypatch):
        # every scale's windows come from one `pool_rects` call over all the
        # image's scale maps
        calls = []

        def counted(featmaps, rects, pyr):
            calls.append([m.shape for m in featmaps])
            return pool_rects(featmaps, rects, pyr)

        pool_rects = det.pool_rects
        monkeypatch.setattr(det, "pool_rects", counted)
        rng = np.random.default_rng(75)
        ex = self._extractor()
        for image_id, pixels in self.images.items():
            h, w = pixels.shape[1:]
            calls.clear()
            windows = _random_windows(rng, 60, w, h)
            feats = ex.extract_many(image_id, pixels, windows)
            assert len(feats) == len(windows)
            assert len(calls) == 1 and len(calls[0]) == len(ex.scales)

    def test_half_pixel_scaled_corners_match_oracle(self):
        # min side 64: scale 32 halves every coordinate, so odd corners land
        # on k + 0.5 and round half to even
        pixels = self.images["im0"]
        windows = [W(x, y, x + dx, y + dy) for x in (1, 3, 5, 7)
                   for y in (3, 9) for dx, dy in ((3, 5), (5, 3), (9, 7))]
        ex, ref = self._extractor((32,)), self._extractor((32,))
        assert (ex.extract_many("im0", pixels, windows).tobytes()
                == oracle_extract_many(ref, "im0", pixels, windows).tobytes())

    def test_outside_window_error_text_matches_oracle(self):
        pixels = self.images["im0"]
        windows = [W(-5, -5, 10, 10), W(79, 63, 90, 70), W(80, 0, 90, 10),
                   W(0, 0, 5, 5), W(0, -9, 5, 0)]
        with pytest.raises(ShapeError) as ref:
            oracle_extract_many(self._extractor(), "im0", pixels, windows)
        with pytest.raises(ShapeError) as got:
            self._extractor().extract_many("im0", pixels, windows)
        assert str(got.value) == str(ref.value) == (
            f"proposal {W(80, 0, 90, 10)} of image im0 lies outside 80x64")

    def test_apply_rows_matches_oracle(self):
        rng = np.random.default_rng(74)
        for trial in range(60):
            n, d = int(rng.integers(1, 30)), int(rng.integers(1, 50))
            img = tuple(int(v) for v in rng.integers(20, 120, 2))
            scale = float(rng.choice([0.001, 0.05, 1.0]))
            reg = det.BBoxRegressor(rng.normal(size=(d + 1, 4)) * scale)
            feats = rng.normal(size=(n, d)).astype(np.float32)
            windows = _random_windows(rng, n, *img)[:n]
            got = reg.apply_rows(feats, window_array(windows), img)
            expect = [oracle_bbox_apply(reg, f, w, img)
                      for f, w in zip(feats, windows)]
            assert got.dtype == np.int64
            assert [W(*r) for r in got.tolist()] == expect
            assert [reg.apply(f, w, img) for f, w in zip(feats, windows)] \
                == expect

    def test_apply_rows_matches_per_row_loop(self):
        # one stacked matmul gives each row's own gemv product: offsets and
        # boxes byte-equal to the per-row loop, feature lengths up to 800
        rng = np.random.default_rng(75)
        for trial in range(300):
            n = int(rng.integers(1, 140))
            d = int(rng.choice([1, 7, 50, 256, 800]))
            img = tuple(int(v) for v in rng.integers(200, 2000, 2))
            weights = rng.normal(size=(d + 1, 4)) * rng.choice([1e-3, 0.05])
            reg = det.BBoxRegressor(weights)
            feats = np.maximum(rng.normal(size=(n, d)), 0).astype(np.float32)
            windows = window_array(_random_windows(rng, n, *img)[:n])
            aug = np.concatenate([feats.astype(np.float64),
                                  np.ones((n, 1))], axis=1)
            stacked = (aug[:, None, :] @ weights).reshape(-1, 4)
            looped = np.array([row @ weights for row in aug])
            assert stacked.tobytes() == looped.tobytes()
            got = reg.apply_rows(feats, windows, img)
            assert got.tobytes() == oracle_apply_rows(reg, feats, windows,
                                                      img).tobytes()

    def test_apply_rows_makes_one_product_per_row(self):
        # the bytes above hold for products of one row each; one (N, D+1)
        # product may round differently and rarely moves a rounded corner
        logged = []

        class Logged(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                plain = [np.asarray(a) for a in inputs]
                if ufunc is np.matmul:
                    logged.append(plain[0].shape)
                return getattr(ufunc, method)(*plain, **kwargs)

        rng = np.random.default_rng(76)
        weights = (rng.normal(size=(9, 4)) * 0.05).view(Logged)
        feats = rng.random((5, 8)).astype(np.float32)
        windows = window_array(_random_windows(rng, 5, 90, 70)[:5])
        det.BBoxRegressor(weights).apply_rows(feats, windows, (90, 70))
        # each left operand is one row: (9,) in a loop, (5, 1, 9) stacked
        assert logged and all(shape == (9,) or shape[-2:] == (1, 9)
                              for shape in logged)

    def test_half_pixel_regressed_corners_match_oracle(self):
        # bias-only offsets (tx, ty) = (1/8, 3/8) on 4-pixel-wide windows
        # move the centre by 0.5 or 1.5: every corner lands on k + 0.5
        weights = np.zeros((3, 4))
        weights[-1] = (0.125, 0.375, 0.0, 0.0)
        reg = det.BBoxRegressor(weights)
        windows = [W(x, y, x + 4, y + 4) for x in range(0, 12, 3)
                   for y in range(0, 12, 5)]
        feats = np.zeros((len(windows), 2), np.float32)
        got = reg.apply_rows(feats, window_array(windows), (40, 40))
        expect = [oracle_bbox_apply(reg, f, w, (40, 40))
                  for f, w in zip(feats, windows)]
        assert [W(*r) for r in got.tolist()] == expect
        # corners 0.5, 6.5, 4.5 and 10.5 round to 0, 6, 4 and 10
        assert expect[1] == W(0, 6, 4, 10)

    def test_disabled_regressor_returns_rows_unchanged(self):
        windows = window_array([W(1, 2, 30, 40), W(-4, 0, 3, 3)])
        assert det.BBoxRegressor(None).apply_rows(
            np.ones((2, 3)), windows, (10, 10)) is windows

    def test_non_finite_regression_rejected(self):
        weights = np.zeros((2, 4))
        weights[0, 2] = np.inf
        with pytest.raises(ShapeError, match="bbox regression of .* is not "
                                             "finite"):
            det.BBoxRegressor(weights).apply(np.ones(1), W(0, 0, 5, 5),
                                             (10, 10))

    def test_nms_matches_oracle_with_ties(self):
        rng = np.random.default_rng(75)
        for _ in range(300):
            n = int(rng.integers(0, 30))
            windows = _random_windows(rng, n, 60, 60)[:n]
            scores = rng.choice([-0.0, 0.0, 0.5, -1.25, 2.0], size=n) \
                if rng.random() < 0.5 else rng.normal(size=n)
            dets = [det.Detection("i", w, 0, float(s))
                    for w, s in zip(windows, scores)]
            threshold = float(rng.choice([0.0, 0.3, 0.7]))
            kept = det._nms_keep(iou_matrix(windows, windows) > threshold,
                                 np.array([d.score for d in dets]))
            assert [dets[i] for i in kept] == oracle_nms(dets, threshold)
            expect = oracle_nms(dets, det.NMS_THRESHOLD)
            assert det.nms(dets) == expect
            assert (det.format_detections(det.nms(dets))
                    == det.format_detections(expect))

    def _fitted(self):
        ex = self._extractor((48, 64))
        gt = {"im0": [(0, W(5, 5, 35, 35)), (1, W(40, 20, 75, 60))],
              "im1": [(0, W(3, 10, 30, 45))], "im2": [(1, W(20, 20, 60, 70))]}
        rng = np.random.default_rng(76)
        proposals = {}
        for image_id, pixels in self.images.items():
            h, w = pixels.shape[1:]
            props = [W(max(0, g.x0 + dx), max(0, g.y0 + dy), g.x1 + dx,
                       g.y1 + dy) for _, g in gt[image_id]
                     for dx, dy in ((0, 0), (2, 1), (-3, 2))]
            proposals[image_id] = props + _random_windows(rng, 20, w, h)
        model = det.fit_detector(ex, self.images, proposals, gt, (0, 1))
        return model, proposals

    def _assert_same_detections(self, model, proposals, **kwargs):
        got = det.run_detector(self._extractor((48, 64)), model, self.images,
                               proposals, **kwargs)
        expect = oracle_run_detector(self._extractor((48, 64)), model,
                                     self.images, proposals, **kwargs)
        assert got == expect
        assert det.format_detections(got) == det.format_detections(expect)
        return got

    def test_run_detector_matches_oracle(self):
        model, proposals = self._fitted()
        assert all(reg.enabled for reg in model.regressors.values())
        model.regressors[1] = det.BBoxRegressor(None)
        model.svms[2] = model.svms[0]  # a class without a regressor
        proposals["im1"] = []  # an image with no proposals
        for apply_bbox in (False, True):
            for threshold in (0.3, 0.5):
                dets = self._assert_same_detections(
                    model, proposals, apply_bbox=apply_bbox,
                    nms_threshold=threshold)
                assert dets and not any(d.image_id == "im1" for d in dets)

    def test_run_detector_score_ties_match_oracle(self):
        model, proposals = self._fitted()
        model.svms = {
            0: _ScoreRule(lambda f: np.where(f[:, 0] > np.median(f[:, 0]),
                                             0.0, -0.0)),
            1: _ScoreRule(lambda f: np.round(f[:, 1] * 2.0) / 2.0),
            2: _ScoreRule(lambda f: np.zeros(len(f)))}
        dets = self._assert_same_detections(model, proposals, apply_bbox=True)
        assert any(det.format_detections([d]).split(",")[2] == "-0.000000"
                   for d in dets)

    def test_nan_score_names_the_image(self):
        model, proposals = self._fitted()
        model.svms[1] = _ScoreRule(
            lambda f: np.where(np.arange(len(f)) == 3, np.nan, 0.0))
        for run in (det.run_detector, oracle_run_detector):
            with pytest.raises(ShapeError, match="^non-finite detection "
                                                 "score for im0$"):
                run(self._extractor((48, 64)), model, self.images, proposals)

    def test_outside_proposal_rejected_through_fit_and_run(self):
        model, proposals = self._fitted()
        proposals["im1"] = proposals["im1"] + [W(37, 0, 50, 10)]
        message = (f"^proposal {W(37, 0, 50, 10)} of image im1 lies outside "
                   f"37x50$").replace("(", r"\(").replace(")", r"\)")
        with pytest.raises(ShapeError, match=message):
            det.run_detector(self._extractor(), model, self.images, proposals)
        gt = {"im1": [(0, W(3, 10, 30, 45))]}
        with pytest.raises(ShapeError, match=message):
            det.fit_detector(self._extractor(), {"im1": self.images["im1"]},
                             proposals, gt, (0,))


class TestSpeedBench:
    def setup_method(self):
        self.spec = net.toy_shape_net()
        self.params = net.ParameterStore(seed=64, sigma=0.05)
        net.instantiate(self.spec, (48, 48), self.params)
        rng = np.random.default_rng(65)
        self.pixels = rng.uniform(0, 255, (1, 64, 80)).astype(np.float32)
        self.props = []
        for _ in range(40):
            x0 = int(rng.integers(0, 60))
            y0 = int(rng.integers(0, 44))
            self.props.append(W(x0, y0, x0 + int(rng.integers(6, 20)),
                                y0 + int(rng.integers(6, 20))))

    def _bench(self, mode, n):
        return det.speed_bench(self.spec, self.params, self.pixels,
                               self.props[:n], mode, scales=(96,),
                               window_size=48)

    def _median_conv(self, mode, ns, repeats=5):
        """Median conv-stage time per proposal count, as criterion 10 takes
        it; the counts take turns in every round, so a burst of load from
        other processes lands on each of them."""
        times = {n: [] for n in ns}
        for _ in range(repeats):
            for n in ns:
                times[n].append(self._bench(mode, n).conv_time)
        return {n: float(np.median(t)) for n, t in times.items()}

    def test_report_fields(self):
        r = self._bench("shared", 10)
        assert r.mode == "shared" and r.n_proposals == 10
        assert r.conv_time + r.pool_time + r.fc_time >= r.conv_time >= 0

    def test_shared_conv_work_independent_of_proposal_count(self):
        # structural guarantee: one trunk pass per scale no matter how many
        # windows are pooled; wall clock gets a generous noise bound
        before = net.stats.trunk_passes
        self._bench("shared", 5)
        passes_small = net.stats.trunk_passes - before
        before = net.stats.trunk_passes
        self._bench("shared", 40)
        assert net.stats.trunk_passes - before == passes_small == 1
        times = self._median_conv("shared", (5, 40))
        assert max(times.values()) / min(times.values()) < 1.5

    def test_per_window_conv_grows_with_n(self):
        times = self._median_conv("per_window", (5, 40))
        assert times[40] > times[5] * 3

    def test_per_window_never_reaches_the_argmax_kernel(self, monkeypatch):
        # it pools with `pool_rects`, as shared mode does; before, it pooled
        # each window with the training kernel, which also computes an argmax
        def argmax_kernel(*args):
            raise AssertionError("spp_forward_batch reached")

        for module in (spp, net):
            monkeypatch.setattr(module, "spp_forward_batch", argmax_kernel)
        assert self._bench("per_window", 5).n_proposals == 5

    def test_empty_proposals_rejected(self):
        with pytest.raises(ShapeError, match="at least one"):
            self._bench("shared", 0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ShapeError, match="mode"):
            det.speed_bench(self.spec, self.params, self.pixels,
                            self.props[:2], "warp", scales=(96,),
                            window_size=48)


class TestFileFormats:
    def test_proposals_round_trip(self, tmp_path):
        path = tmp_path / "props.txt"
        path.write_text("a,1,2,11,12\na,3,4,13,14\nb,0,0,5,5\n")
        props = det.read_proposals(path)
        assert props["a"] == [W(1, 2, 11, 12), W(3, 4, 13, 14)]
        assert props["b"] == [W(0, 0, 5, 5)]

    def test_ground_truth_round_trip(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("a,2,1,2,11,12\n")
        gt = det.read_ground_truth(path)
        assert gt == {"a": [(2, W(1, 2, 11, 12))]}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "props.txt"
        path.write_text("a,1,2,3\n")
        with pytest.raises(ShapeError, match="props.txt:1"):
            det.read_proposals(path)

    def test_detections_format(self):
        d = det.Detection("img1", W(1, 2, 3, 4), 2, 0.123456789)
        text = det.format_detections([d])
        assert text == "img1,2,0.123457,1,2,3,4\n"
        back = det.parse_detections(text)
        assert back[0].image_id == "img1"
        assert back[0].window == d.window
        assert np.isclose(back[0].score, 0.123457)
