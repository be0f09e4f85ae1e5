"""Memory stays bounded on long runs: the `tracemalloc` peak of each driver
over a long run stays within its peak over a short one, plus the growth of
what it returns (`run_detector`'s detections) and a stated slack.

Measured with numpy 2.4, one pyrapool thread, on 30 toy images:
- `train`, alternate 32/24 px, two batches an epoch: 5.292 MiB at 2 epochs
  and 5.351 at 6. The 0.06 MiB is the 24 px input stack, kept while the
  third epoch trains at 32 px. Both runs hold the last step's caches while
  the next step runs, since the loop drops them only when it rebinds them;
- `predict_views`, 3 scales, view 24: 0.494 MiB over 10 images and 0.496
  over 100;
- `run_detector` with bbox, scales 48 and 64: 1.017 MiB over 4 images and
  1.202 over 40, while the detections it returns grew by 0.167 MiB.
"""

import tracemalloc

import pytest

from pyrapool import dataio, detection, inference, net, training

SLACK = 0.125 * 2**20


def _traced(fn):
    """Peak bytes that `tracemalloc` sees during `fn()`, and the bytes its
    result holds: those freed when the result is dropped. A leak stays in
    the peak and out of the result."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
        del result
        return peak, held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("long")
    train_m, _ = dataio.generate_toy_dataset(root / "shapes", seed=31,
                                             n_per_class=8)
    det = dataio.generate_toy_detection_dataset(root / "det", seed=32,
                                                n_images=8)
    images = {i: dataio.load_image(p).pixels
              for i, p in dataio.load_detection_manifest(
                  det["manifest"]).items()}
    return (dataio.load_dataset(train_m), images,
            detection.read_proposals(det["proposals"]),
            detection.read_ground_truth(det["gt"]))


@pytest.fixture(autouse=True)
def one_thread(monkeypatch):
    monkeypatch.setenv("PYRAPOOL_THREADS", "1")


def _train(train_set, epochs):
    return training.train(net.toy_shape_net(), train_set, training.TrainConfig(
        epochs=epochs, schedule="alternate", sizes=(32, 24), batch_size=15,
        seed=7))


def test_train_peak_does_not_grow_with_epochs(corpora):
    train_set = corpora[0]
    short, _ = _traced(lambda: _train(train_set, 2))
    long, _ = _traced(lambda: _train(train_set, 6))
    assert long < short + SLACK, (
        f"6 epochs {long / 2**20:.3f} MiB, 2 epochs {short / 2**20:.3f}")


def test_predict_views_peak_does_not_grow_with_images(corpora):
    train_set = corpora[0]
    spec = net.toy_shape_net()
    params, _ = _train(train_set, 1)

    def run(n):
        total = 0.0
        for i in range(n):
            pixels = train_set[i % len(train_set)][0]
            views = inference.multi_view_windows(
                (pixels.shape[2], pixels.shape[1]), scales=(28, 32, 36),
                view=24)
            total += inference.predict_views(spec, params, pixels, views)[0]
        return total

    short, _ = _traced(lambda: run(10))
    long, _ = _traced(lambda: run(100))
    assert long < short + SLACK, (
        f"100 images {long / 2**20:.3f} MiB, 10 {short / 2**20:.3f}")


def test_run_detector_peak_grows_only_by_its_detections(corpora):
    train_set, images, proposals, gt = corpora
    spec = net.toy_shape_net()
    params, _ = _train(train_set, 1)
    extractor = detection.RegionFeatureExtractor(spec, params, scales=(48, 64),
                                                 view=32)
    classes = sorted({c for boxes in gt.values() for c, _ in boxes})
    model = detection.fit_detector(extractor, images, proposals, gt, classes)
    ids = sorted(images)

    def run(n):
        # n images, the corpus's repeated under new ids
        names = {f"{k}-{ids[k % len(ids)]}": ids[k % len(ids)]
                 for k in range(n)}
        return detection.run_detector(
            extractor, model, {k: images[v] for k, v in names.items()},
            {k: proposals.get(v, []) for k, v in names.items()},
            apply_bbox=True)

    short, dets_short = _traced(lambda: run(4))
    long, dets_long = _traced(lambda: run(40))
    assert long < short + (dets_long - dets_short) + SLACK, (
        f"40 images {long / 2**20:.3f} MiB ({dets_long / 2**20:.3f} in "
        f"detections), 4 {short / 2**20:.3f} ({dets_short / 2**20:.3f})")
