"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Heavy fixtures (the shape corpus and the trained models) are module-scoped
and shared across criteria; all seeds are fixed. Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import numpy as np
import pytest

from pyrapool import dataio, detection, inference, net, spp, tensor, training
from pyrapool.geometry import (OVERFEAT_CONV_LAYERS, ZF5_CONV5_LAYERS,
                               WindowRect, map_window, receptive_center,
                               stride_product)
from _oracles import (numerical_grad, reference_iou, rel_error,
                      separated_uniform)

TRAIN_SIZES = (32, 24)        # desk-scale stand-ins for 224/180
EVAL_SIZE = 32
VIEW = 32
TEN_VIEW_SCALE = 36           # stand-in for the 256/224 pairing


def _check(criterion: int, ok: bool, detail: str = ""):
    print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("shapes")
    train_m, test_m = dataio.generate_toy_dataset(
        root, seed=7, n_per_class=400, size_range=(24, 40))
    return dataio.load_dataset(train_m), dataio.load_dataset(test_m)


@pytest.fixture(scope="module")
def single_size_run(corpus):
    train, test = corpus
    spec = net.toy_shape_net()
    cfg = training.TrainConfig(lr=0.01, epochs=30, batch_size=32,
                               schedule="single", sizes=(EVAL_SIZE,), seed=0)
    params, reports = training.train(spec, train, cfg, eval_set=test)
    return spec, params, reports


@pytest.fixture(scope="module")
def multi_size_run(corpus):
    train, test = corpus
    spec = net.toy_shape_net()
    cfg = training.TrainConfig(lr=0.01, epochs=30, batch_size=32,
                               schedule="alternate", sizes=TRAIN_SIZES,
                               seed=0)
    shared_flags = []

    def on_epoch(report, params):
        a = net.instantiate(spec, (TRAIN_SIZES[0],) * 2, params)
        b = net.instantiate(spec, (TRAIN_SIZES[1],) * 2, params)
        same = all(a.slots[name][i] is b.slots[name][i]
                   and np.array_equal(a.slots[name][i].value,
                                      b.slots[name][i].value)
                   for name in a.slots for i in (0, 1))
        shared_flags.append(same and a.output_length == b.output_length)

    params, reports = training.train(spec, train, cfg, eval_set=test,
                                     on_epoch_end=on_epoch)
    return spec, params, reports, shared_flags


@pytest.fixture(scope="module")
def detection_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("detect")
    train_paths = dataio.generate_toy_detection_dataset(
        root / "train", seed=21, n_images=70)
    test_paths = dataio.generate_toy_detection_dataset(
        root / "test", seed=22, n_images=50)

    def load(paths):
        images = {i: dataio.load_image(p).pixels for i, p in
                  dataio.load_detection_manifest(paths["manifest"]).items()}
        return (images, detection.read_proposals(paths["proposals"]),
                detection.read_ground_truth(paths["gt"]))

    return load(train_paths), load(test_paths)


DET_SCALES = (48, 64, 96, 128)


@pytest.fixture(scope="module")
def fitted_detector(single_size_run, detection_corpus):
    spec, params, _ = single_size_run
    (tr_images, tr_props, tr_gt), _ = detection_corpus
    extractor = detection.RegionFeatureExtractor(
        spec, params, scales=DET_SCALES, pyramid=detection.DETECTION_PYRAMID,
        view=VIEW)
    model = detection.fit_detector(extractor, tr_images, tr_props, tr_gt,
                                   classes=range(4))
    return spec, params, model


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_fixed_length_invariant():
    pyr = spp.PyramidSpec((6, 3, 2, 1))
    rng = np.random.default_rng(1)
    base = {k: rng.normal(size=(k, 40, 40)).astype(np.float32)
            for k in (8, 256)}
    for k in (8, 256):
        for h in range(1, 41):
            for w in range(1, 41):
                out, _ = spp.spp_forward(base[k][:, :h, :w], pyr)
                assert out.shape == (50 * k,), (k, h, w)
    _check(1, True, "output length 50k for all h,w in [1,40], k in {8,256} "
                    "(12800 at k=256)")


def test_criterion_2_bin_geometry_suite():
    # exhaustive coverage / non-emptiness / no-gap over 1<=n<=8, 1<=w<=64
    for n in range(1, 9):
        for w in range(1, 65):
            ranges = [spp.bin_range(i, 1, n, w, 1) for i in range(1, n + 1)]
            covered = np.zeros(w, dtype=bool)
            for r in ranges:
                assert r.c1 > r.c0
                covered[r.c0:r.c1] = True
            assert covered.all(), (n, w)
            for a, b in zip(ranges, ranges[1:]):
                assert b.c0 <= a.c1, (n, w)
    # sliding/fractional agreement whenever n divides a
    rng = np.random.default_rng(2)
    for a in range(1, 65):
        for n in range(1, min(a, 8) + 1):
            if a % n:
                continue
            x = rng.normal(size=(1, 2, a, a)).astype(np.float32)
            win, stride = spp.sliding_pool_params(a, n)
            slid, _ = tensor.maxpool_forward(x, (win, win), (stride, stride))
            binned, _ = spp.spp_forward_batch(x, spp.PyramidSpec([n]))
            np.testing.assert_array_equal(
                binned[0], slid[0].transpose(1, 2, 0).reshape(-1))
    _check(2, True, "coverage, non-emptiness, no-gap, and sliding agreement")


def test_criterion_3_window_mapping_anchors():
    assert stride_product(ZF5_CONV5_LAYERS) == 16
    assert stride_product(OVERFEAT_CONV_LAYERS) == 12
    rng = np.random.default_rng(3)
    for _ in range(1000):
        s = int(rng.choice([4, 8, 12, 16]))
        x0 = int(rng.integers(0, 400))
        x1 = x0 + int(rng.integers(2 * s, 200))
        rect = map_window(WindowRect(x0, 0, x1, s), s, (1000, 1000))
        assert rect.fx0 == x0 // s + 1               # exact left formula
        assert rect.fx1 == -(-x1 // s) - 1           # exact right formula
        slack = s / 2 + s / 2                        # half-stride rounding slack
        assert abs(receptive_center(rect.fx0, s) - x0) <= slack
        assert abs(receptive_center(rect.fx1, s) - x1) <= slack
    _check(3, True, "S=16/S=12 anchors; formulas exact on 1000 windows; "
                    "centers within stated slack")


def test_criterion_4_crop_map_equivalence(single_size_run):
    spec, params, _ = single_size_run
    rng = np.random.default_rng(4)
    pixels = rng.uniform(0, 255, size=(1, 64, 80)).astype(np.float32)
    extractor = detection.RegionFeatureExtractor(
        spec, params, scales=(64,), pyramid=(3, 2, 1), view=VIEW)
    entry = extractor.prepare("img", pixels)
    featmap, (rw, rh) = entry["maps"][64]
    for _ in range(200):
        x0 = int(rng.integers(0, 70))
        y0 = int(rng.integers(0, 54))
        win = WindowRect(x0, y0, x0 + int(rng.integers(4, 80 - x0 + 1)),
                         y0 + int(rng.integers(4, 64 - y0 + 1)))
        rect = map_window(win.clamped(rw, rh), extractor.stride,
                          featmap.shape[1:])
        crop = featmap[:, rect.fy0:rect.fy1 + 1, rect.fx0:rect.fx1 + 1]
        standalone, _ = spp.spp_forward(np.ascontiguousarray(crop),
                                        extractor.pyramid)
        via_map = extractor.extract("img", pixels, win)
        np.testing.assert_array_equal(via_map, standalone)
    _check(4, True, "mapped-window pooling == pooling the cropped rect, "
                    "exactly, 200 random windows")


def test_criterion_5_gradient_checks():
    tol = 1e-4
    trials = 50
    worst = 0.0

    def track(err):
        nonlocal worst
        worst = max(worst, err)
        assert err < tol

    for t in range(trials):
        rng = np.random.default_rng(5000 + t)
        b, c, h, w = (int(rng.integers(1, 7)) for _ in range(4))

        # conv (input, weights, bias)
        o = int(rng.integers(1, 4))
        k = int(rng.integers(1, min(h, w) + 1))
        spec = tensor.ConvSpec(o, k, int(rng.integers(1, 3)),
                               int(rng.integers(0, 2)))
        x = rng.normal(size=(b, c, h, w))
        wt = rng.normal(size=(o, c, k, k))
        bias = rng.normal(size=o)
        out, cache = tensor.conv_forward(x, wt, bias, spec)
        r = rng.normal(size=out.shape)
        gx, gw, gb = tensor.conv_backward(r, cache, wt, spec, input_grad=True)
        track(rel_error(gx, numerical_grad(
            lambda v: float((tensor.conv_forward(v, wt, bias, spec)[0] * r).sum()), x)))
        track(rel_error(gw, numerical_grad(
            lambda v: float((tensor.conv_forward(x, v, bias, spec)[0] * r).sum()), wt)))
        track(rel_error(gb, numerical_grad(
            lambda v: float((tensor.conv_forward(x, wt, v, spec)[0] * r).sum()), bias)))

        # max pool
        wh, ww = int(rng.integers(1, h + 1)), int(rng.integers(1, w + 1))
        sh, sw = int(rng.integers(1, wh + 1)), int(rng.integers(1, ww + 1))
        xp = separated_uniform(rng, (b, c, h, w))
        out, argmax = tensor.maxpool_forward(xp, (wh, ww), (sh, sw))
        r = rng.normal(size=out.shape)
        track(rel_error(
            tensor.maxpool_backward(r, argmax, xp.shape),
            numerical_grad(lambda v: float(
                (tensor.maxpool_forward(v, (wh, ww), (sh, sw))[0] * r).sum()),
                xp)))

        # fc (input, weights, bias)
        d, o2 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        xf = rng.normal(size=(b, d))
        wf = rng.normal(size=(o2, d))
        bf = rng.normal(size=o2)
        r = rng.normal(size=(b, o2))
        gx, gw, gb = tensor.fc_backward(r, xf, wf, input_grad=True)
        track(rel_error(gx, numerical_grad(
            lambda v: float((tensor.fc_forward(v, wf, bf) * r).sum()), xf)))
        track(rel_error(gw, numerical_grad(
            lambda v: float((tensor.fc_forward(xf, v, bf) * r).sum()), wf)))

        # relu
        xr = separated_uniform(rng, (b, c, h, w))
        out, mask = tensor.relu_forward(xr)
        r = rng.normal(size=xr.shape)
        track(rel_error(
            tensor.relu_backward(r, mask),
            numerical_grad(lambda v: float((tensor.relu_forward(v)[0] * r).sum()),
                           xr)))

        # softmax cross-entropy
        nclass = int(rng.integers(2, 7))
        z = rng.normal(size=(b, nclass))
        labels = rng.integers(0, nclass, size=b)
        _, grad = tensor.softmax_cross_entropy(z, labels)
        track(rel_error(grad, numerical_grad(
            lambda v: tensor.softmax_cross_entropy(v, labels)[0], z)))

        # dropout with the mask fixed
        xd = rng.normal(size=(b, c, h, w))
        _, mask = tensor.dropout(xd, 0.5, True, np.random.default_rng(t))
        r = rng.normal(size=xd.shape)
        track(rel_error(tensor.dropout_backward(r, mask),
                        numerical_grad(lambda v: float((v * mask * r).sum()),
                                       xd)))

        # spatial pyramid pooling
        ks = int(rng.integers(1, 4))
        xs = separated_uniform(rng, (ks, h, w))
        pyr = spp.PyramidSpec([3, 2, 1])
        out, argmax = spp.spp_forward(xs, pyr)
        r = rng.normal(size=out.shape)
        track(rel_error(
            spp.spp_backward(r, argmax, xs.shape),
            numerical_grad(lambda v: float((spp.spp_forward(v, pyr)[0] * r).sum()),
                           xs)))
    _check(5, True, f"50 trials x 7 layer kinds, max rel err {worst:.2e} "
                    f"< 1e-4")


def test_criterion_6_multi_size_training(single_size_run, multi_size_run):
    _, _, single_reports = single_size_run
    _, _, multi_reports, shared_flags = multi_size_run
    single_best = max(r.accuracy for r in single_reports)
    multi_best = max(r.accuracy for r in multi_reports)
    reached_at = next(i for i, r in enumerate(single_reports)
                      if r.accuracy >= 0.90)
    ok = (single_best >= 0.90 and len(single_reports) <= 30
          and (multi_best >= single_best or single_best - multi_best <= 0.02)
          and all(shared_flags))
    _check(6, ok,
           f"single {single_best:.3f} (>=0.90 by epoch {reached_at}), "
           f"multi {multi_best:.3f} (within 2 points), parameters shared "
           f"bit-for-bit at all {len(shared_flags)} epoch boundaries")


def test_criterion_7_featuremap_vs_pixel_ten_view(single_size_run, corpus):
    spec, params, _ = single_size_run
    _, test = corpus
    subset = test[:200]
    agree = 0
    for pixels, _label in subset:
        views = inference.ten_view_windows(
            (pixels.shape[2], pixels.shape[1]), s=TEN_VIEW_SCALE, view=VIEW)
        on_maps = int(np.argmax(inference.predict_views(
            spec, params, pixels, views)))
        on_crops = int(np.argmax(inference.predict_crops(
            spec, params, pixels, views)))
        agree += int(on_maps == on_crops)
    rate = agree / len(subset)
    _check(7, rate >= 0.95,
           f"argmax agreement {rate:.3f} on {len(subset)} images (>=0.95)")


def test_criterion_8_view_counting():
    views = inference.multi_view_windows((500, 375))
    at_224 = inference.multi_view_windows((500, 375), scales=(224,))
    _check(8, len(views) == 96 and len(at_224) == 6,
           f"{len(views)} views for the 6-scale set, {len(at_224)} at s=224")


def test_criterion_9_detection_pipeline(fitted_detector, detection_corpus):
    spec, params, model = fitted_detector
    _, (te_images, te_props, te_gt) = detection_corpus

    def detect(apply_bbox):
        extractor = detection.RegionFeatureExtractor(
            spec, params, scales=DET_SCALES,
            pyramid=detection.DETECTION_PYRAMID, view=VIEW)
        return detection.run_detector(extractor, model, te_images, te_props,
                                      nms_threshold=0.3,
                                      apply_bbox=apply_bbox)

    _, base_map = detection.evaluate_map(detect(False), te_gt)
    _, bb_map = detection.evaluate_map(detect(True), te_gt)

    # identity-proposal regression target
    box = WindowRect(10, 20, 60, 90)
    identity_exact = np.array_equal(detection.bbox_targets(box, box),
                                    np.zeros(4))

    # NMS properties on 1000 random detection sets
    rng = np.random.default_rng(9)
    props_ok = True
    for _ in range(1000):
        dets = []
        for _k in range(int(rng.integers(1, 12))):
            x0 = int(rng.integers(0, 40))
            y0 = int(rng.integers(0, 40))
            dets.append(detection.Detection(
                "i", WindowRect(x0, y0, x0 + int(rng.integers(2, 20)),
                                y0 + int(rng.integers(2, 20))),
                0, float(rng.normal())))
        kept = detection.nms(dets)
        props_ok &= detection.nms(kept) == kept
        props_ok &= all(reference_iou(a.window, b.window) <= 0.3
                        for i, a in enumerate(kept) for b in kept[i + 1:])
        props_ok &= all(k in dets for k in kept)

    ok = (base_map >= 0.8 and bb_map >= base_map - 0.01 and identity_exact
          and props_ok)
    _check(9, ok,
           f"mAP {base_map:.3f} (>=0.8), with bbox regression {bb_map:.3f} "
           f"(>= mAP-0.01), identity target exact, NMS properties on 1000 "
           f"sets")


def test_criterion_10_speed_benchmark(single_size_run):
    spec, params, _ = single_size_run
    rng = np.random.default_rng(10)
    pixels = rng.uniform(0, 255, size=(1, 96, 128)).astype(np.float32)
    props = []
    for _ in range(500):
        w = int(rng.integers(8, 60))
        h = int(rng.integers(8, 44))
        x0 = int(rng.integers(0, 128 - w))
        y0 = int(rng.integers(0, 96 - h))
        props.append(WindowRect(x0, y0, x0 + w, y0 + h))

    def median_conv(mode, n, repeats=5):
        runs = [detection.speed_bench(spec, params, pixels, props[:n], mode,
                                      scales=(480,), window_size=224)
                for _ in range(repeats)]
        return float(np.median([r.conv_time for r in runs]))

    median_conv("shared", 10, repeats=1)  # warmup
    speedups = {}
    for n in (10, 100, 500):
        speedups[n] = median_conv("per_window", n) / median_conv("shared", n)
    ok = (speedups[500] >= 20.0
          and speedups[10] < speedups[100] < speedups[500])
    _check(10, ok,
           f"conv-stage speedup at n=500: {speedups[500]:.1f}x (>=20x); "
           f"monotone over n: " +
           ", ".join(f"{n}->{speedups[n]:.1f}x" for n in (10, 100, 500)))


def test_criterion_11_model_combination():
    rng = np.random.default_rng(11)
    dets = []
    for _ in range(10):
        x0 = int(rng.integers(0, 50))
        y0 = int(rng.integers(0, 50))
        dets.append(detection.Detection(
            "i", WindowRect(x0, y0, x0 + int(rng.integers(4, 24)),
                            y0 + int(rng.integers(4, 24))),
            0, float(rng.normal())))
    idempotent = detection.combine_models([dets, dets]) == detection.nms(dets)

    m1 = [detection.Detection("i", WindowRect(0, 0, 10, 10), 0, 0.7),
          detection.Detection("i", WindowRect(30, 0, 40, 10), 0, 0.6)]
    m2 = [detection.Detection("i", WindowRect(1, 0, 11, 10), 0, 0.9),
          detection.Detection("i", WindowRect(31, 0, 41, 10), 0, 0.5)]
    union = sorted(m1 + m2, key=lambda d: -d.score)
    oracle = []
    for d in union:
        if all(reference_iou(d.window, k.window) <= 0.3 for k in oracle):
            oracle.append(d)
    cross = detection.combine_models([m1, m2]) == oracle
    _check(11, idempotent and cross,
           "self-union == single-model NMS; two-model union matches the "
           "brute-force survivor set")


def test_criterion_12_round_trip_and_reproducibility(corpus, tmp_path):
    train, _ = corpus
    spec = net.toy_shape_net()
    cfg = training.TrainConfig(lr=0.01, epochs=2, batch_size=32,
                               schedule="single", sizes=(24,), seed=12)
    blobs = []
    for sub in ("a", "b"):
        params, reports = training.train(spec, train[:200], cfg)
        path = tmp_path / f"{sub}.ckpt"
        net.save_checkpoint(params, path)
        blobs.append(path.read_bytes())
    identical_runs = blobs[0] == blobs[1]

    restored = net.ParameterStore()
    restored.load_values(net.load_checkpoint(tmp_path / "a.ckpt"))
    resaved = tmp_path / "resaved.ckpt"
    net.save_checkpoint(restored, resaved)
    round_trip = resaved.read_bytes() == blobs[0]

    x = np.random.default_rng(12).normal(size=(2, 1, 24, 24)).astype(np.float32)
    inst_a = net.instantiate(spec, (24, 24), restored)
    orig = net.ParameterStore()
    orig.load_values(net.load_checkpoint(tmp_path / "b.ckpt"))
    inst_b = net.instantiate(spec, (24, 24), orig)
    same_eval = np.array_equal(inst_a.forward(x)[0], inst_b.forward(x)[0])
    _check(12, identical_runs and round_trip and same_eval,
           "seeded retraining, checkpoint round-trip, and eval outputs are "
           "bit-identical")
