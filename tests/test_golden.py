"""Golden digests of one tiny end-to-end run, at every thread count.

The run trains the toy net, pools multi-view predictions, fits and runs the
detector, and writes a 96-view eval report and a detections file through the
command line. SHA-256 digests of its outputs, and of float64 values that the
text outputs round (the fitted detector and raw scores, plus a float64 batch
through the net and a float64 SVM fit, which keep the last bits of their
sums), must not depend on
PYRAPOOL_THREADS, and must equal the pins recorded for this machine: numpy
version, BLAS name, version and thread count, and CPU model, because BLAS
kernels may sum in another order on other hardware or thread counts. On a machine with no pin, the test checks
thread invariance only and prints the digests to pin.

A change that means to move output bytes updates the pins and says so.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from pyrapool import cli, dataio, detection, inference, net, training

SCALES = (28, 32, 36)
VIEW = 24
DET_SCALES = (48, 64)
DET_VIEW = 32

# (numpy, BLAS name, BLAS version, BLAS threads, CPU model) -> digests of
# `_run`. The fitted detector's float64 bytes moved with the BLAS thread
# count (1 against 2 OpenBLAS threads); every other digest did not
_XEON = {
    "checkpoint": "1e7ccfe921b8c3ae41809581158327577c2f2b1157d20c5715e0640004920a97",
    "probs": "ddc9c278995b23b686bfb1210c801e5e84e9bd954dd22f6d4daeee37434ebaeb",
    "detections": "54b0579110e7c89c3195184c020dc41806fbccc013a2ee54365aa0fdda63ee03",
    "float64": "39c586162907347773e57cc582c5816b3c189bfacd0d132718f70d83d9d45640",
    "eval_report": "6afe6addb0e32ccad4956c30ec038a23d31f9d35523f8a71f8c1c8c1f421e626",
    "detect_file": "54b0579110e7c89c3195184c020dc41806fbccc013a2ee54365aa0fdda63ee03",
}
PINS = {
    ("2.4.6", "scipy-openblas", "0.3.31.188.0", 1,
     "Intel(R) Xeon(R) Processor"): dict(
        _XEON, detector="64b2fde686979948cebb00cec3d56e2be1aa8e260d1056a19a912095b5819c19"),
    ("2.4.6", "scipy-openblas", "0.3.31.188.0", 2,
     "Intel(R) Xeon(R) Processor"): dict(
        _XEON, detector="f1da03b01cc556158856c78342f3d88a78b88be05b19ab59d949ae688091abf5"),
}


def _machine() -> tuple:
    """numpy version, BLAS name, version and threads, and CPU model, read as
    the benchmark's machine record reads them."""
    spec = importlib.util.spec_from_file_location(
        "bench_run", Path(__file__).resolve().parent.parent / "bench/run.py")
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run  # dataclasses look their module up
    spec.loader.exec_module(run)
    blas, threads = run._blas()
    version = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get(
        "version")
    return np.__version__, blas, version, threads, run._cpu_model()


def _sha(data) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    train_m, test_m = dataio.generate_toy_dataset(
        root / "shapes", seed=21, n_per_class=40, size_range=(24, 40))
    test_lines = Path(test_m).read_text().splitlines()[:20]
    test_m = root / "shapes" / "test20.txt"
    test_m.write_text("\n".join(test_lines) + "\n")
    det = dataio.generate_toy_detection_dataset(root / "det", seed=22,
                                                n_images=12)
    return (dataio.load_dataset(train_m), dataio.load_dataset(str(test_m)),
            str(test_m), det)


def _run(corpora, out) -> dict[str, str]:
    train_set, test_set, test_manifest, det = corpora
    spec = net.toy_shape_net()
    params, _ = training.train(spec, train_set, training.TrainConfig(
        epochs=3, schedule="alternate", sizes=(32, 24), seed=7))
    probs = [inference.predict_views(spec, params, px,
                                     inference.multi_view_windows(
                                         (px.shape[2], px.shape[1]),
                                         scales=SCALES, view=VIEW))
             for px, _ in test_set]
    images = {i: dataio.load_image(p).pixels
              for i, p in dataio.load_detection_manifest(
                  det["manifest"]).items()}
    proposals = detection.read_proposals(det["proposals"])
    gt = detection.read_ground_truth(det["gt"])
    extractor = detection.RegionFeatureExtractor(
        spec, params, scales=DET_SCALES, view=DET_VIEW)
    classes = sorted({c for boxes in gt.values() for c, _ in boxes})
    model = detection.fit_detector(extractor, images, proposals, gt, classes)
    dets = detection.run_detector(extractor, model, images, proposals,
                                  apply_bbox=True)
    # float64 bytes that the text outputs round away: the fitted SVMs and
    # bbox regressors, and the raw scores. Pooled features hold float32
    # values, on which the SVM's subgradient sum is exact in any order, and
    # float32 maps round the conv sums' last bits away; so float64 inputs
    # also go through the net (eval logits) and `train_svm`
    fitted = [a for cls in classes for a in (
        model.svms[cls].weight, np.float64(model.svms[cls].bias),
        model.regressors[cls].weights) if a is not None]
    rng = np.random.default_rng(8)
    logits, _ = net.instantiate(spec, (32, 32), params).forward(
        rng.normal(size=(4, 1, 32, 32)))
    x64 = rng.normal(size=(60, 16))
    svm = detection.train_svm(x64, np.where(
        x64[:, 0] + rng.normal(scale=0.5, size=60) > 0, 1.0, -1.0))

    ckpt = out / "model.ckpt"
    net.save_checkpoint(params, ckpt)
    scales = ",".join(map(str, SCALES))
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--test-manifest",
                     test_manifest, "--mode", "96view", "--scales", scales,
                     "--view", str(VIEW), "--out", str(out / "eval")]) == 0
    assert cli.main([
        "detect", "--checkpoint", str(ckpt),
        "--train-images", det["manifest"],
        "--train-proposals", det["proposals"], "--train-gt", det["gt"],
        "--images", det["manifest"], "--proposals", det["proposals"],
        "--scales", ",".join(map(str, DET_SCALES)),
        "--view-size", str(DET_VIEW), "--out", str(out / "dets")]) == 0
    return {
        "checkpoint": _sha(net.checkpoint_bytes(params)),
        "probs": _sha(np.stack(probs).astype("<f8").tobytes()),
        "detections": _sha(detection.format_detections(dets).encode()),
        "detector": _sha(b"".join(np.asarray(a, "<f8").tobytes() for a in (
            *fitted, [d.score for d in dets]))),
        "float64": _sha(b"".join(np.asarray(a, "<f8").tobytes() for a in (
            logits, svm.weight, svm.bias))),
        "eval_report": _sha((out / "eval").read_bytes()),
        "detect_file": _sha((out / "dets").read_bytes()),
    }


def test_digests_equal_at_every_thread_count_and_the_pin(corpora, tmp_path,
                                                         monkeypatch,
                                                         capsys):
    runs = {}
    for threads in (None, "1", "2"):
        if threads is None:
            monkeypatch.delenv("PYRAPOOL_THREADS", raising=False)
        else:
            monkeypatch.setenv("PYRAPOOL_THREADS", threads)
        out = tmp_path / f"threads-{threads}"
        out.mkdir()
        runs[threads] = _run(corpora, out)
    assert runs["1"] == runs[None]
    assert runs["2"] == runs[None]
    pin = PINS.get(_machine())
    if pin:
        assert runs[None] == pin
    else:
        with capsys.disabled():
            print(f"\nno golden pin for {_machine()}; digests: {runs[None]}")
