"""Single-pass detection: region features pooled from cached multi-scale
feature maps, per-class linear SVMs with one round of hard-negative mining,
greedy NMS, bounding-box regression, model combination, mAP scoring, and the
shared-vs-per-window timing benchmark.

Feature maps are computed once per (image, scale); each candidate window picks
the scale whose resize brings it closest to the view-size pixel count, is
projected onto that map, and is pyramid-pooled into a fixed-length vector.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import dataio
from .errors import ShapeError
from .geometry import WindowRect, iou, map_window, resize_to, select_scale
from .inference import network_input
from .net import Conv, NetworkSpec, ParameterStore, instantiate
from .spp import PyramidSpec, spp_forward

DETECTION_SCALES = (480, 576, 688, 864, 1200)
DETECTION_PYRAMID = (6, 3, 2, 1)


@dataclass(frozen=True)
class Detection:
    image_id: str
    window: WindowRect
    class_id: int
    score: float

    def __post_init__(self):
        if not np.isfinite(self.score):
            raise ShapeError(f"non-finite detection score for {self.image_id}")


# ---------------------------------------------------------------------------
# region features from cached feature maps
# ---------------------------------------------------------------------------

class RegionFeatureExtractor:
    """Pools fixed-length window features from per-scale conv feature maps.

    Maps are computed once per (image, scale) and cached until `drop`;
    `conv_passes` counts actual trunk runs.
    """

    def __init__(self, spec: NetworkSpec, params: ParameterStore,
                 scales=DETECTION_SCALES, pyramid=DETECTION_PYRAMID,
                 view: int = 224):
        self.spec = spec
        self.params = params
        self.scales = tuple(scales)
        self.pyramid = PyramidSpec(pyramid)
        self.view = view
        self.stride = spec.trunk_geometry().stride
        self.conv_passes = 0
        self._cache: dict[str, dict] = {}

    @property
    def feature_length(self) -> int:
        convs = [l for l in self.spec.layers[:self.spec.spp_index]
                 if isinstance(l, Conv)]
        return self.pyramid.output_length(convs[-1].out_channels)

    def prepare(self, image_id: str, pixels: np.ndarray):
        """Compute and cache the per-scale feature maps of one image."""
        if image_id in self._cache:
            return self._cache[image_id]
        entry = {"size": (pixels.shape[2], pixels.shape[1]), "maps": {}}
        for s in self.scales:
            inst, x = network_input(self.spec, self.params, pixels, s)
            rh, rw = inst.input_size
            entry["maps"][s] = (inst.conv_features(x)[0], (rw, rh))
            self.conv_passes += 1
        self._cache[image_id] = entry
        return entry

    def drop(self, image_id: str):
        self._cache.pop(image_id, None)

    def extract(self, image_id: str, pixels: np.ndarray,
                window: WindowRect) -> np.ndarray:
        """Fixed-length feature of one candidate window."""
        entry = self.prepare(image_id, pixels)
        img_w, img_h = entry["size"]
        if (window.x0 >= img_w or window.y0 >= img_h
                or window.x1 <= 0 or window.y1 <= 0):
            raise ShapeError(f"proposal {window} of image {image_id} lies "
                             f"outside {img_w}x{img_h}")
        win = window.clamped(img_w, img_h)
        s = select_scale(win, (img_w, img_h), self.scales, self.view)
        featmap, (rw, rh) = entry["maps"][s]
        f = s / min(img_w, img_h)
        scaled = win.scaled(f).clamped(rw, rh)
        rect = map_window(scaled, self.stride, featmap.shape[1:])
        crop = featmap[:, rect.fy0:rect.fy1 + 1, rect.fx0:rect.fx1 + 1]
        vec, _ = spp_forward(crop, self.pyramid)
        return vec


# ---------------------------------------------------------------------------
# SVM training with hard-negative mining
# ---------------------------------------------------------------------------

@dataclass
class SvmModel:
    """One binary linear classifier: score = weight . feature + bias."""

    weight: np.ndarray
    bias: float
    hard_negatives_added: int = 0

    def scores(self, features: np.ndarray) -> np.ndarray:
        return features.astype(np.float64) @ self.weight + self.bias


def mine_svm_samples(proposals, ground_truth, neg_max_iou: float = 0.3,
                     dedup_iou: float = 0.7):
    """Positive/negative windows for one image and one class.

    Positives are the ground-truth windows themselves. Negatives are proposals
    overlapping every positive by at most `neg_max_iou`, deduplicated in input
    order: a negative overlapping an already-kept negative by more than
    `dedup_iou` is dropped.
    """
    positives = list(ground_truth)
    negatives = []
    for p in proposals:
        if any(iou(p, g) > neg_max_iou for g in positives):
            continue
        if any(iou(p, kept) > dedup_iou for kept in negatives):
            continue
        negatives.append(p)
    return positives, negatives


def assign_finetune_labels(proposals, ground_truth, pos_min: float = 0.5,
                           neg_min: float = 0.1, neg_max: float = 0.5):
    """Fine-tuning sample labels for one image's proposals.

    A proposal overlapping its best ground-truth box by [pos_min, 1] takes
    that box's class (as 1 + class_id; 0 is background); overlap in
    [neg_min, neg_max) is background; anything else is discarded (None).
    """
    labels = []
    for p in proposals:
        best_iou, best_cls = 0.0, None
        for cls, g in ground_truth:
            v = iou(p, g)
            if v > best_iou:
                best_iou, best_cls = v, cls
        if best_iou >= pos_min:
            labels.append(1 + best_cls)
        elif neg_min <= best_iou < neg_max:
            labels.append(0)
        else:
            labels.append(None)
    return labels


def _fit_hinge(x: np.ndarray, y: np.ndarray, c: float, reg: float,
               epochs: int, lr: float, w=None, b: float = 0.0):
    """Deterministic full-batch subgradient descent on the regularized hinge
    loss 0.5*reg*|w|^2 + c*mean(max(0, 1 - y*(xw+b)))."""
    n, d = x.shape
    if w is None:
        w = np.zeros(d, dtype=np.float64)
    x64 = x.astype(np.float64)
    y64 = y.astype(np.float64)
    for t in range(epochs):
        margins = y64 * (x64 @ w + b)
        viol = margins < 1.0
        step = lr / (1.0 + 0.02 * t)
        gw = reg * w
        gb = 0.0
        if viol.any():
            gw = gw - c * (y64[viol] @ x64[viol]) / n
            gb = -c * y64[viol].sum() / n
        w = w - step * gw
        b = b - step * gb
    return w, b


def train_svm(features: np.ndarray, labels: np.ndarray, c: float = 1.0,
              reg: float = 1e-4, epochs: int = 400, lr: float = 0.5,
              hard_negative_rounds: int = 1,
              initial_negatives: int | None = None) -> SvmModel:
    """Fit a binary linear SVM (labels +1/-1) by subgradient descent.

    The first fit uses all positives plus the first `initial_negatives`
    negatives (all of them when None). Each mining round rescores the full
    negative pool and appends the false positives (score > -1) that are not
    yet in the training set, then refits; positives are never removed.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if features.ndim != 2 or len(labels) != len(features):
        raise ShapeError(
            f"features {features.shape} vs labels {labels.shape} mismatch")
    pos = np.flatnonzero(labels > 0)
    neg = np.flatnonzero(labels < 0)
    if len(pos) == 0 or len(neg) == 0:
        raise ShapeError("SVM training needs both classes present")

    active_neg = list(neg if initial_negatives is None
                      else neg[:initial_negatives])

    def fit(w, b):
        idx = np.concatenate([pos, np.array(active_neg, dtype=int)])
        return _fit_hinge(features[idx], labels[idx], c, reg, epochs, lr,
                          w=w, b=b)

    w, b = fit(None, 0.0)
    added = 0
    for _ in range(hard_negative_rounds):
        pool_scores = features[neg] @ w + b
        current = set(active_neg)
        hard = [int(i) for i, s in zip(neg, pool_scores)
                if s > -1.0 and int(i) not in current]
        if not hard:
            break
        active_neg.extend(hard)
        added += len(hard)
        w, b = fit(w, b)
    return SvmModel(w, float(b), added)


# ---------------------------------------------------------------------------
# NMS / model combination / mAP
# ---------------------------------------------------------------------------

def nms(detections, threshold: float = 0.3):
    """Greedy non-maximum suppression over one class: keep by descending
    score (ties in input order), drop anything overlapping a kept window by
    more than `threshold` IoU. Survivor scores are unchanged."""
    order = sorted(range(len(detections)),
                   key=lambda i: (-detections[i].score, i))
    kept = []
    for i in order:
        d = detections[i]
        if all(iou(d.window, k.window) <= threshold for k in kept):
            kept.append(d)
    return kept


def nms_per_class(detections, threshold: float = 0.3):
    by_class: dict[int, list] = {}
    for d in detections:
        by_class.setdefault(d.class_id, []).append(d)
    out = []
    for cls in sorted(by_class):
        out.extend(nms(by_class[cls], threshold))
    return out


def combine_models(det_sets, threshold: float = 0.3):
    """Union the per-model detections (scores kept) and run NMS on the union;
    a more confident window from one model suppresses the others'."""
    merged = [d for dets in det_sets for d in dets]
    return nms_per_class(merged, threshold)


def evaluate_map(detections, ground_truth, iou_match: float = 0.5):
    """Per-class average precision and their mean.

    `ground_truth` maps image_id -> [(class_id, WindowRect)]. Matching is
    greedy by descending score at IoU >= `iou_match`, one detection per
    ground-truth box; AP integrates the whole precision-recall curve
    (all-points interpolation).
    """
    gt_by_class: dict[int, dict[str, list]] = {}
    for image_id, entries in ground_truth.items():
        for cls, win in entries:
            gt_by_class.setdefault(cls, {}).setdefault(image_id, []).append(win)

    aps = {}
    for cls, gt_images in sorted(gt_by_class.items()):
        n_gt = sum(len(v) for v in gt_images.values())
        dets = [d for d in detections if d.class_id == cls]
        dets.sort(key=lambda d: -d.score)
        matched = {img: [False] * len(wins) for img, wins in gt_images.items()}
        tp = np.zeros(len(dets))
        fp = np.zeros(len(dets))
        for i, d in enumerate(dets):
            wins = gt_images.get(d.image_id, [])
            best, best_iou = -1, iou_match
            for j, g in enumerate(wins):
                v = iou(d.window, g)
                if v >= best_iou and not matched[d.image_id][j]:
                    best, best_iou = j, v
            if best >= 0:
                matched[d.image_id][best] = True
                tp[i] = 1
            else:
                fp[i] = 1
        cum_tp = np.cumsum(tp)
        cum_fp = np.cumsum(fp)
        recall = cum_tp / n_gt
        precision = cum_tp / np.maximum(cum_tp + cum_fp, 1e-12)
        aps[cls] = _all_points_ap(recall, precision)
    mean = float(np.mean(list(aps.values()))) if aps else 0.0
    return aps, mean


def _all_points_ap(recall, precision) -> float:
    mrec = np.concatenate(([0.0], recall, [1.0]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    changed = np.flatnonzero(mrec[1:] != mrec[:-1])
    return float(((mrec[changed + 1] - mrec[changed]) * mpre[changed + 1]).sum())


# ---------------------------------------------------------------------------
# bounding-box regression
# ---------------------------------------------------------------------------

def bbox_targets(proposal: WindowRect, gt: WindowRect) -> np.ndarray:
    """Center/log-size offsets (tx, ty, tw, th) from a proposal to its
    ground-truth box."""
    px = proposal.x0 + proposal.width / 2.0
    py = proposal.y0 + proposal.height / 2.0
    gx = gt.x0 + gt.width / 2.0
    gy = gt.y0 + gt.height / 2.0
    return np.array([
        (gx - px) / proposal.width,
        (gy - py) / proposal.height,
        np.log(gt.width / proposal.width),
        np.log(gt.height / proposal.height),
    ])


@dataclass
class BBoxRegressor:
    """Per-class ridge regression onto bbox offsets; disabled (identity) when
    no training pairs qualified."""

    weights: np.ndarray | None = None  # (D+1, 4), bias row last

    @property
    def enabled(self) -> bool:
        return self.weights is not None

    def apply(self, feature: np.ndarray, window: WindowRect,
              image_size) -> WindowRect:
        if not self.enabled:
            return window
        aug = np.concatenate([feature.astype(np.float64), [1.0]])
        tx, ty, tw, th = aug @ self.weights
        px = window.x0 + window.width / 2.0
        py = window.y0 + window.height / 2.0
        gx = px + window.width * tx
        gy = py + window.height * ty
        gw = window.width * np.exp(tw)
        gh = window.height * np.exp(th)
        x0 = int(round(gx - gw / 2.0))
        y0 = int(round(gy - gh / 2.0))
        x1 = max(x0 + 1, int(round(gx + gw / 2.0)))
        y1 = max(y0 + 1, int(round(gy + gh / 2.0)))
        img_w, img_h = image_size
        return WindowRect(x0, y0, x1, y1).clamped(img_w, img_h)


def bbox_regress_train(features: np.ndarray, targets: np.ndarray,
                       ridge_lambda: float = 1.0) -> BBoxRegressor:
    """Ridge fit of offsets given pooled features; the bias column is not
    penalized. Returns a disabled regressor when no pairs are given."""
    if len(features) == 0:
        return BBoxRegressor(None)
    x = np.asarray(features, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    aug = np.concatenate([x, np.ones((len(x), 1))], axis=1)
    d = aug.shape[1]
    penalty = ridge_lambda * np.eye(d)
    penalty[-1, -1] = 0.0
    weights = np.linalg.solve(aug.T @ aug + penalty, aug.T @ t)
    return BBoxRegressor(weights)


def collect_bbox_pairs(proposals, gt_windows, min_iou: float = 0.5):
    """(proposal, target) pairs for proposals overlapping a ground-truth box
    by at least `min_iou`; each proposal regresses onto its best-IoU box."""
    pairs = []
    for p in proposals:
        best, best_iou = None, min_iou
        for g in gt_windows:
            v = iou(p, g)
            if v >= best_iou:
                best, best_iou = g, v
        if best is not None:
            pairs.append((p, bbox_targets(p, best)))
    return pairs


# ---------------------------------------------------------------------------
# whole-pipeline helpers
# ---------------------------------------------------------------------------

@dataclass
class DetectorModel:
    svms: dict[int, SvmModel]
    regressors: dict[int, BBoxRegressor] = field(default_factory=dict)


def fit_detector(extractor: RegionFeatureExtractor, images: dict,
                 proposals: dict, ground_truth: dict, classes,
                 svm_c: float = 1.0,
                 with_bbox: bool = True) -> DetectorModel:
    """Train per-class SVMs (positives = ground-truth windows, mined
    negatives = low-overlap proposals) and optional bbox regressors from one
    shared feature extractor. Images are visited one at a time: each window
    is pooled once, then the image's maps are dropped."""
    samples = {cls: ([], [], [], []) for cls in classes}
    for image_id, pixels in images.items():
        gt = ground_truth.get(image_id, [])
        props = proposals.get(image_id, [])
        pooled = {}
        for win in [*props, *(w for c, w in gt if c in samples)]:
            if win not in pooled:
                pooled[win] = extractor.extract(image_id, pixels, win)
        extractor.drop(image_id)
        for cls, (feats, labels, reg_feats, reg_targets) in samples.items():
            gt_cls = [w for c, w in gt if c == cls]
            pos, neg = mine_svm_samples(props, gt_cls)
            feats.extend(pooled[win] for win in pos + neg)
            labels.extend([1.0] * len(pos) + [-1.0] * len(neg))
            if with_bbox and gt_cls:
                for win, target in collect_bbox_pairs(props, gt_cls):
                    reg_feats.append(pooled[win])
                    reg_targets.append(target)
    svms, regressors = {}, {}
    for cls, (feats, labels, reg_feats, reg_targets) in samples.items():
        svms[cls] = train_svm(np.array(feats), np.array(labels), c=svm_c)
        if with_bbox:
            regressors[cls] = bbox_regress_train(np.array(reg_feats),
                                                 np.array(reg_targets))
    return DetectorModel(svms, regressors)


def run_detector(extractor: RegionFeatureExtractor, model: DetectorModel,
                 images: dict, proposals: dict, nms_threshold: float = 0.3,
                 apply_bbox: bool = False):
    """Score every proposal with every class SVM, NMS per class, optionally
    bbox-regress the survivors. Returns detections sorted by image then
    class."""
    out = []
    for image_id in sorted(images):
        pixels = images[image_id]
        props = proposals.get(image_id, [])
        if not props:
            extractor.drop(image_id)
            continue
        feats = np.array([extractor.extract(image_id, pixels, p)
                          for p in props])
        row_of = dict(zip(props, feats))
        image_size = (pixels.shape[2], pixels.shape[1])
        for cls, svm in sorted(model.svms.items()):
            scores = svm.scores(feats)
            dets = [Detection(image_id, p, cls, float(s))
                    for p, s in zip(props, scores)]
            survivors = nms(dets, nms_threshold)
            if apply_bbox and model.regressors.get(cls, BBoxRegressor()).enabled:
                reg = model.regressors[cls]
                survivors = [Detection(
                    image_id, reg.apply(row_of[d.window], d.window,
                                        image_size), cls, d.score)
                    for d in survivors]
            out.extend(survivors)
        extractor.drop(image_id)
    return out


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _by_image(records) -> dict[str, list]:
    out: dict[str, list] = {}
    for image_id, item in records:
        out.setdefault(image_id, []).append(item)
    return out


def _proposal(line: str):
    image_id, x0, y0, x1, y1 = line.split(",")
    return image_id, WindowRect(int(x0), int(y0), int(x1), int(y1))


def _ground_truth(line: str):
    image_id, cls, x0, y0, x1, y1 = line.split(",")
    return image_id, (int(cls), WindowRect(int(x0), int(y0), int(x1), int(y1)))


def read_proposals(path) -> dict[str, list[WindowRect]]:
    """Lines `image_id,x0,y0,x1,y1` -> per-image window lists (file order)."""
    return _by_image(dataio.read_records(path, _proposal))


def read_ground_truth(path) -> dict[str, list[tuple[int, WindowRect]]]:
    """Lines `image_id,class_id,x0,y0,x1,y1` -> per-image (class, window)."""
    return _by_image(dataio.read_records(path, _ground_truth))


def format_detections(detections) -> str:
    lines = [f"{d.image_id},{d.class_id},{d.score:.6f},"
             f"{d.window.x0},{d.window.y0},{d.window.x1},{d.window.y1}"
             for d in detections]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_detections(text: str):
    out = []
    for line in text.splitlines():
        if not line.strip():
            continue
        image_id, cls, score, x0, y0, x1, y1 = line.split(",")
        out.append(Detection(image_id, WindowRect(int(x0), int(y0), int(x1),
                                                  int(y1)),
                             int(cls), float(score)))
    return out


# ---------------------------------------------------------------------------
# timing benchmark
# ---------------------------------------------------------------------------

@dataclass
class BenchReport:
    mode: str
    n_proposals: int
    conv_time: float
    pool_time: float
    fc_time: float

    @property
    def total_time(self) -> float:
        return self.conv_time + self.pool_time + self.fc_time


def speed_bench(spec: NetworkSpec, params: ParameterStore, pixels: np.ndarray,
                proposals, mode: str, scales=(480,),
                window_size: int = 224) -> BenchReport:
    """Time the conv / pool / fc stages of region feature extraction.

    shared: conv trunk once per scale on the full image, then per-window
    pyramid pooling off the cached maps. per_window: crop each proposal from
    pixels, warp to window_size**2, and run the trunk per window (the
    recompute-everything baseline).
    """
    if not proposals:
        raise ShapeError("benchmark needs at least one proposal")
    clock = time.perf_counter
    img_w, img_h = pixels.shape[2], pixels.shape[1]

    # fixed fc-stage projection, built outside the timed regions; identical
    # width in both modes so the fc row is comparable
    extractor = RegionFeatureExtractor(spec, params, scales=scales)
    proj = np.random.default_rng(0).normal(
        0.0, 0.01, size=(64, extractor.feature_length)).astype(np.float32)

    if mode == "shared":
        t0 = clock()
        extractor.prepare("bench", pixels)
        t1 = clock()
        feats = [extractor.extract("bench", pixels, win) for win in proposals]
        t2 = clock()
        np.array(feats, dtype=np.float32) @ proj.T
        t3 = clock()
        return BenchReport("shared", len(proposals), t1 - t0, t2 - t1, t3 - t2)

    if mode != "per_window":
        raise ShapeError(f"unknown benchmark mode {mode!r}")
    inst = instantiate(spec, (window_size, window_size), params)
    conv_t = pool_t = 0.0
    pooled = []
    for win in proposals:
        w = win.clamped(img_w, img_h)
        crop = pixels[:, w.y0:w.y1, w.x0:w.x1]
        t0 = clock()
        warped = resize_to(crop, window_size, window_size)
        x = dataio.preprocess(warped)
        featmap = inst.conv_features(x[None])[0]
        t1 = clock()
        vec, _ = spp_forward(featmap, extractor.pyramid)
        t2 = clock()
        conv_t += t1 - t0
        pool_t += t2 - t1
        pooled.append(vec)
    t0 = clock()
    np.array(pooled, dtype=np.float32) @ proj.T
    fc_t = clock() - t0
    return BenchReport("per_window", len(proposals), conv_t, pool_t, fc_t)
