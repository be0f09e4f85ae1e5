"""The benchmark's three workloads: inputs generated from a seed with
pyrapool's synthetic corpora, the operations of the closed loop, and the
checks on their outputs.

Every workload sets up a shape corpus and trains a fixed model on it, the
same training the `train` workload times; `detect` adds two detection
corpora. An op is one call a user waits for:
one `training.train` run, one image through `predict_views`, or
`fit_detector` / one image through `run_detector`. A pass is the list of ops
that covers the inputs once; the first pass of a run records the outputs
that the digests and the quality checks read.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from pyrapool import dataio, detection, inference, net, training
from pyrapool.geometry import WindowRect, map_window, resized_dims, select_scale
from pyrapool.spp import spp_forward

# Inputs of a full-size run. Test-only sizes come from `small_params`.
PARAMS = {
    "shapes": dict(n_per_class=150, size_range=(24, 40)),
    "train": dict(lr=0.01, batch_size=32, epochs=6, schedule="alternate",
                  sizes=(32, 24)),
    "classify": dict(scales=(36, 40, 44, 48, 52, 56), view=32),
    "detect": dict(train_images=10, test_images=40, canvas_range=(96, 160),
                   random_boxes=120, scales=(48, 64, 96, 128), view=32,
                   pyramid=(6, 3, 2, 1), nms_threshold=0.3,
                   checked_proposals=4),
    # quality floors that catch a broken pipeline, not a weak seed: the
    # lowest values seen over 20 full-size seeds were 0.69 / 0.43 / 0.27,
    # and top-1 chance over 5 classes is 0.2
    "floors": dict(train=0.5, classify=0.3, detect=0.1),
}


def small_params():
    """Minimal sizes for the harness self-test; floors off."""
    p = {k: dict(v) for k, v in PARAMS.items()}
    p["shapes"].update(n_per_class=10)
    p["train"].update(epochs=2)
    p["classify"].update(limit=4)
    p["detect"].update(train_images=2, test_images=2, canvas_range=(64, 80),
                       random_boxes=10, scales=(48, 64))
    p["floors"] = dict(train=0.0, classify=0.0, detect=0.0)
    return p


class CheckFailed(Exception):
    """An output of the program is wrong."""


def check(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Op:
    """One closed-loop operation: `run` is timed, `check` is not."""

    kind: str          # ops of the workload's `timed_kind` feed latency
    images: int        # images the op delivers, for throughput
    run: Callable
    check: Callable


@dataclass
class Shapes:
    train: list
    test: list


def make_shapes(root, seed: int, params) -> Shapes:
    train_m, test_m = dataio.generate_toy_dataset(
        os.path.join(root, "shapes"), seed=seed, **params["shapes"])
    return Shapes(dataio.load_dataset(train_m), dataio.load_dataset(test_m))


def checkpoint_roundtrip(store: net.ParameterStore, path) -> bytes:
    """Save, load, compare bit for bit; returns the checkpoint bytes."""
    net.save_checkpoint(store, path)
    with open(path, "rb") as f:
        blob = f.read()
    loaded = net.load_checkpoint(path)
    check(sorted(loaded) == sorted(store.names()),
          "checkpoint slot names changed in a round trip")
    for name, slot in store.items():
        check(loaded[name].shape == slot.value.shape
              and loaded[name].tobytes()
              == np.ascontiguousarray(slot.value, "<f4").tobytes(),
              f"checkpoint slot {name} changed in a round trip")
    return blob


class Workload:
    """Set up inputs, hand out ops, summarise the first pass over them.

    Every set-up generates and decodes the shape corpus and trains the fixed
    model on it; `classify` and `detect` run their ops with that model, and
    `train` checks that each op reproduces its checkpoint.
    """

    timed_kind = ""

    def __init__(self, params, seed: int, workdir):
        self.params = params
        self.workdir = workdir
        self.seeds = [int(s) for s in
                      np.random.SeedSequence(seed).generate_state(4)]
        self.spec = net.toy_shape_net()
        self.config = training.TrainConfig(seed=self.seeds[1],
                                           **params["train"])
        self.model_train_s: list[float] = []
        self.quality = None
        self.digests: dict[str, str] = {}

    def setup(self, root):
        self.shapes = make_shapes(root, self.seeds[0], self.params)
        t0 = time.perf_counter()
        self.model_params, _ = training.train(
            self.spec, self.shapes.train, self.config,
            eval_set=self.shapes.test)
        self.model_train_s.append(time.perf_counter() - t0)
        blob = checkpoint_roundtrip(self.model_params,
                                    os.path.join(root, "model.ckpt"))
        self.digests["checkpoint_sha256"] = sha256(blob)

    def ops(self, record: bool) -> list[Op]:
        """One pass over the inputs; `record` keeps its outputs."""
        raise NotImplementedError

    def summarize(self):
        """Run-level checks and results, after the first pass."""


class TrainWorkload(Workload):
    timed_kind = "train"

    def ops(self, record):
        n = len(self.shapes.train) * self.config.epochs

        def run():
            return training.train(self.spec, self.shapes.train, self.config,
                                  eval_set=self.shapes.test)

        def verify(result):
            params, reports = result
            check(all(np.isfinite(r.loss) for r in reports),
                  "training loss is not finite")
            blob = checkpoint_roundtrip(
                params, os.path.join(self.workdir, "train.ckpt"))
            check(sha256(blob) == self.digests["checkpoint_sha256"],
                  "same seed gave a different checkpoint")
            self.quality = reports[-1].accuracy

        return [Op("train", n, run, verify)]

    def summarize(self):
        check(self.quality >= self.params["floors"]["train"],
              f"train accuracy {self.quality:.3f} below the floor")


class ClassifyWorkload(Workload):
    timed_kind = "image"

    def setup(self, root):
        super().setup(root)
        p = self.params["classify"]
        test = self.shapes.test[:p.get("limit")]
        self.images = [(px, label, inference.multi_view_windows(
            (px.shape[2], px.shape[1]), scales=p["scales"], view=p["view"]))
            for px, label in test]
        self.softmax_name = self.spec.layers[-1].name

    def _op(self, index: int, record: bool) -> Op:
        px, label, views = self.images[index]
        p = self.params["classify"]

        def run():
            before = net.stats.trunk_passes
            probs = inference.predict_views(self.spec, self.model_params, px,
                                            views)
            return probs, net.stats.trunk_passes - before

        def verify(result):
            probs, passes = result
            check(bool(np.isfinite(probs).all())
                  and abs(float(probs.sum()) - 1.0) <= 1e-6,
                  "view-averaged probabilities are not a distribution")
            check(passes == 2 * len(p["scales"]),
                  f"{passes} trunk passes for {len(p['scales'])} scales")
            rw, rh = resized_dims(px.shape[2], px.shape[1], p["view"])
            full = inference.View(p["view"], WindowRect(0, 0, rw, rh), False)
            via_views = inference.predict_views(
                self.spec, self.model_params, px, [full]).astype(np.float32)
            reference = inference.full_image_representation(
                self.spec, self.model_params, px, p["view"],
                layer=self.softmax_name)
            check(np.array_equal(via_views, reference),
                  "full-image view differs from full_image_representation")
            if record:
                self.probs.append(probs)
                self.correct += int(np.argmax(probs) == label)

        return Op("image", 1, run, verify)

    def ops(self, record):
        if record:
            self.probs, self.correct = [], 0
        return [self._op(i, record) for i in range(len(self.images))]

    def summarize(self):
        check(len(self.probs) == len(self.images), "an image op failed")
        self.quality = self.correct / len(self.images)
        self.digests["probs_sha256"] = sha256(
            np.stack(self.probs).astype("<f8").tobytes())
        check(self.quality >= self.params["floors"]["classify"],
              f"classify accuracy {self.quality:.3f} below the floor")


def _load_detection(paths):
    images = {i: dataio.load_image(p).pixels for i, p in
              dataio.load_detection_manifest(paths["manifest"]).items()}
    return (images, detection.read_proposals(paths["proposals"]),
            detection.read_ground_truth(paths["gt"]))


class DetectWorkload(Workload):
    timed_kind = "image"

    def setup(self, root):
        super().setup(root)
        p = self.params["detect"]
        corpus = dict(canvas_range=p["canvas_range"],
                      random_boxes=p["random_boxes"])
        self.train_split = _load_detection(dataio.generate_toy_detection_dataset(
            os.path.join(root, "det_train"), seed=self.seeds[2],
            n_images=p["train_images"], **corpus))
        self.test_split = _load_detection(dataio.generate_toy_detection_dataset(
            os.path.join(root, "det_test"), seed=self.seeds[3],
            n_images=p["test_images"], **corpus))

    def _extractor(self):
        p = self.params["detect"]
        return detection.RegionFeatureExtractor(
            self.spec, self.model_params, scales=p["scales"],
            pyramid=p["pyramid"], view=p["view"])

    def _fit_op(self) -> Op:
        images, proposals, gt = self.train_split

        def run():
            extractor = self._extractor()
            # the classes the training split shows, as `pyrapool detect` does
            classes = sorted({c for boxes in gt.values() for c, _ in boxes})
            self.model = detection.fit_detector(extractor, images, proposals,
                                                gt, classes)
            return extractor

        def verify(extractor):
            self._check_crop_equivalence(extractor, images, proposals)

        return Op("fit", 0, run, verify)

    def _check_crop_equivalence(self, extractor, images, proposals):
        """Pooling a proposal off the cached map equals pooling the
        contiguous mapped crop on its own (acceptance criterion 4)."""
        rng = np.random.default_rng(self.seeds[2])
        k = self.params["detect"]["checked_proposals"]
        for image_id in sorted(images):
            pixels = images[image_id]
            props = proposals.get(image_id, [])
            entry = extractor.prepare(image_id, pixels)
            size = (pixels.shape[2], pixels.shape[1])
            for i in rng.choice(len(props), size=min(k, len(props)),
                                replace=False):
                win = props[i].clamped(*size)
                s = select_scale(win, size, extractor.scales, extractor.view)
                featmap, (rw, rh) = entry["maps"][s]
                scaled = win.scaled(s / min(size)).clamped(rw, rh)
                r = map_window(scaled, extractor.stride, featmap.shape[1:])
                crop = np.ascontiguousarray(
                    featmap[:, r.fy0:r.fy1 + 1, r.fx0:r.fx1 + 1])
                reference, _ = spp_forward(crop, extractor.pyramid)
                check(np.array_equal(
                    extractor.extract(image_id, pixels, props[i]), reference),
                    f"pooled proposal {props[i]} of {image_id} differs from "
                    f"pooling its mapped crop")

    def _image_op(self, image_id: str, record: bool) -> Op:
        images, proposals, _ = self.test_split
        p = self.params["detect"]

        def run():
            extractor = self._extractor()
            dets = detection.run_detector(
                extractor, self.model, {image_id: images[image_id]},
                proposals, nms_threshold=p["nms_threshold"], apply_bbox=True)
            return extractor, dets

        def verify(result):
            extractor, dets = result
            check(extractor.conv_passes == len(p["scales"]),
                  f"{extractor.conv_passes} trunk passes for "
                  f"{len(p['scales'])} scales")
            text = detection.format_detections(dets)
            parsed = detection.parse_detections(text)
            check(detection.format_detections(parsed) == text
                  and [(d.image_id, d.window, d.class_id) for d in parsed]
                  == [(d.image_id, d.window, d.class_id) for d in dets],
                  "detections changed in a format/parse round trip")
            if record:
                self.texts.append(text)
                self.detections.extend(dets)

        return Op("image", 1, run, verify)

    def ops(self, record):
        if record:
            self.texts, self.detections = [], []
        return [self._fit_op()] + [self._image_op(i, record)
                                   for i in sorted(self.test_split[0])]

    def summarize(self):
        images, _, gt = self.test_split
        check(len(self.texts) == len(images), "an image op failed")
        _, self.quality = detection.evaluate_map(self.detections, gt)
        self.digests["detections_sha256"] = sha256(
            "".join(self.texts).encode())
        check(self.quality >= self.params["floors"]["detect"],
              f"detect mAP {self.quality:.3f} below the floor")



WORKLOADS = {
    "train": TrainWorkload,
    "classify": ClassifyWorkload,
    "detect": DetectWorkload,
}
