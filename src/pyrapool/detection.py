"""Single-pass detection: region features pooled from cached multi-scale
feature maps, per-class linear SVMs fit once on every mined negative,
greedy NMS, bounding-box regression, model combination, mAP scoring, and the
shared-vs-per-window timing benchmark.

Feature maps are computed once per (image, scale), for one image at a time;
each candidate window picks the scale whose resize brings it closest to the
view-size pixel count, is projected onto that map and pooled to a fixed length.
An image's windows travel as one (N,4) int64 array (`geometry.window_array`)
from projection (`geometry.project_windows`) through pooling, scoring, NMS and
bbox regression; `Detection` objects are built only for the NMS survivors.

Each class's linear SVM is fit by full-batch subgradient descent on the
hinge loss, `SVM_EPOCHS` epochs from step size `SVM_LR`, with exact safe
screening of the margin product. A row's margin moves by at most
|x_i|*|dw| + |db| per step, so a row whose last computed margin stays above
1 by more than its path since then, plus a slack that bounds the rounding
of two products, cannot violate and is not recomputed.
The first epoch, and any epoch in which a recomputed margin lies within that
slack of 1, runs the full product. So each epoch updates from the violator
set that one full product per epoch gives, and the weights are its bytes.

Detection runs on the threads `parallel.thread_count` grants, all through
`parallel.map_threads`: `run_detector` maps its images over them, one
image's scale trunks use them as `inference.image_maps` decides from their
size, and `fit_detector` solves each class's ridge system on a worker while
the calling thread fits that class's SVM. Each call is the call one thread
makes, on the same bytes, so results do not depend on the count. Memory:
with T threads `run_detector` holds at most T images' maps plus the one its
extractor holds; the fit holds one class's float64 SVM rows, uncopied, with
one ridge system formed in place on the calling thread and the solver's
copy of it on the worker.

Every overlap decision reads a `geometry.iou_matrix` through one of two
rules. Greedy keep (`_greedy_keep`): walk the windows in a fixed order and
keep each one that overlaps no kept window by more than a threshold; NMS
walks by descending score at `NMS_THRESHOLD`, negative de-duplication in
input order at `NEG_DEDUP_IOU`. Best match: a window's match is the box of
highest IoU, the last one on a tie (`_last_best`) for mAP matching at
`MAP_MATCH_IOU` and bbox pairs at `BBOX_MIN_IOU`.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import dataio
from .errors import ShapeError
from .geometry import (WindowRect, iou_matrix, project_windows, resize_to,
                       window_array)
from .inference import image_maps
from .net import Conv, NetworkSpec, ParameterStore, instantiate
from .parallel import map_threads
from .spp import PyramidSpec, pool_maps, pool_rects

DETECTION_SCALES = (480, 576, 688, 864, 1200)
DETECTION_PYRAMID = (6, 3, 2, 1)

# overlap thresholds (IoU) of the detection decisions
NMS_THRESHOLD = 0.3     # NMS drops a window overlapping a kept one by more
NEG_MAX_IOU = 0.3       # SVM negatives overlap every positive by at most this
NEG_DEDUP_IOU = 0.7     # and no kept negative by more than this
MAP_MATCH_IOU = 0.5     # a detection matches a ground-truth box from here up
BBOX_MIN_IOU = 0.5      # a proposal regresses onto a box from here up

SVM_REG = 1e-4          # weight of 0.5*|w|^2 in the SVM objective
SVM_EPOCHS = 400        # full-batch SVM epochs
SVM_LR = 0.5            # SVM step size at epoch t: SVM_LR / (1 + 0.02*t)
RIDGE_LAMBDA = 1.0      # bbox ridge penalty on every weight but the bias's
_U = np.finfo(np.float64).eps / 2  # unit roundoff of float64


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
# region features from one image's feature maps
# ---------------------------------------------------------------------------

class RegionFeatureExtractor:
    """Pools fixed-length window features from per-scale conv feature maps.

    It holds one image's maps, keyed by image id and pixels object, and
    releases them before it computes another image's; `conv_passes` counts
    actual trunk runs, one per scale of each image computed. A repeated
    scale raises ShapeError.

    One extractor may serve several threads at once: each call reads the
    held image once and works on the maps it read or computed, so with T
    threads at most T images' maps are alive beside the held one.
    """

    def __init__(self, spec: NetworkSpec, params: ParameterStore,
                 scales=DETECTION_SCALES, pyramid=DETECTION_PYRAMID,
                 view: int = 224):
        self.spec = spec
        self.params = params
        self.scales = tuple(scales)
        repeated = [s for s in self.scales if self.scales.count(s) > 1]
        if repeated:
            raise ShapeError(f"scale {repeated[0]} is repeated in "
                             f"{self.scales}")
        self.pyramid = PyramidSpec(pyramid)
        self.view = view
        self.stride = spec.trunk_geometry().stride
        self.conv_passes = 0
        self._count_lock = threading.Lock()
        self._held = None  # (image_id, pixels, entry) of the prepared image

    @property
    def feature_length(self) -> int:
        convs = [l for l in self.spec.trunk_layers() if isinstance(l, Conv)]
        return self.pyramid.output_length(convs[-1].out_channels)

    def prepare(self, image_id: str, pixels: np.ndarray):
        """The per-scale feature maps of one image: the held ones if both
        `image_id` and the `pixels` object are the held image's, else new
        ones from `inference.image_maps`, with its table as "sizes"."""
        held = self._held
        if held is not None and held[0] == image_id and held[1] is pixels:
            return held[2]
        held = self._held = None  # the old maps go before new ones come
        maps, sizes, _ = image_maps(self.spec, self.params, pixels,
                                    [(s, False) for s in self.scales])
        with self._count_lock:
            self.conv_passes += len(maps)
        entry = {"size": (pixels.shape[2], pixels.shape[1]), "sizes": sizes,
                 "maps": {s: (featmap, (rw, rh)) for s, featmap, (rw, rh, _, _)
                          in zip(self.scales, maps, sizes.tolist())}}
        self._held = (image_id, pixels, entry)
        return entry

    def extract_many(self, image_id: str, pixels: np.ndarray,
                     windows) -> np.ndarray:
        """(len(windows), feature_length) features of one image's candidate
        windows, a WindowRect sequence or an (N,4) array, row i for
        windows[i]; one `project_windows` call, and one `pool_rects` call
        over all the image's scale maps, read from `prepare`'s entry only."""
        windows = window_array(windows)
        if len(windows) == 0:
            return np.empty((0, self.feature_length), np.float32)
        entry = self.prepare(image_id, pixels)
        rows = project_windows(windows, entry["size"], entry["sizes"],
                               self.stride, self.view, image_id)
        maps = [featmap for featmap, _ in entry["maps"].values()]
        return pool_rects(maps, rows, self.pyramid)

    def extract(self, image_id: str, pixels: np.ndarray,
                window: WindowRect) -> np.ndarray:
        """Fixed-length feature of one candidate window."""
        return self.extract_many(image_id, pixels, [window])[0]


# ---------------------------------------------------------------------------
# SVM training
# ---------------------------------------------------------------------------

@dataclass
class SvmModel:
    """One binary linear classifier: score = weight . feature + bias."""

    weight: np.ndarray
    bias: float
    hard_negatives_added = 0  # always 0, see `train_svm`

    def scores(self, features: np.ndarray) -> np.ndarray:
        return features.astype(np.float64) @ self.weight + self.bias


def _greedy_keep(overlaps: np.ndarray, order) -> list[int]:
    """Indices kept by walking `order`: a window is kept unless it overlaps
    an already-kept window, `overlaps` being the boolean matrix of IoU above
    the threshold."""
    suppressed = np.zeros(len(overlaps), dtype=bool)
    kept = []
    for i in order:
        if not suppressed[i]:
            kept.append(i)
            suppressed |= overlaps[i]
    return kept


def _last_best(overlaps: np.ndarray, floor: float) -> np.ndarray:
    """Per row of an IoU matrix, the column of its last maximum if that is
    at least `floor`, else -1: the pick of a scan that updates on >=."""
    n_rows, n_cols = overlaps.shape
    if n_cols == 0:
        return np.full(n_rows, -1)
    best = n_cols - 1 - overlaps[:, ::-1].argmax(axis=1)
    return np.where(overlaps[np.arange(n_rows), best] >= floor, best, -1)


def mine_svm_samples(proposals, ground_truth):
    """Positive/negative windows for one image and one class.

    Positives are the ground-truth windows themselves. Negatives are proposals
    overlapping every positive by at most `NEG_MAX_IOU`, deduplicated in input
    order: a negative overlapping an already-kept negative by more than
    `NEG_DEDUP_IOU` is dropped.
    """
    positives = list(ground_truth)
    near = (iou_matrix(proposals, positives) > NEG_MAX_IOU).any(axis=1)
    candidates = [p for p, n in zip(proposals, near) if not n]
    kept = _greedy_keep(iou_matrix(candidates, candidates) > NEG_DEDUP_IOU,
                        range(len(candidates)))
    return positives, [candidates[i] for i in kept]


def _fit_hinge(x: np.ndarray, y: np.ndarray, c: float, epochs: int,
               lr: float, w=None, b: float = 0.0):
    """Deterministic full-batch subgradient descent on the regularized hinge
    loss 0.5*SVM_REG*|w|^2 + c*mean(max(0, 1 - y*(xw+b))).

    Exact safe screening: a row keeps its last computed margin and the
    running sums of |dw| and |db| at that time; with |y| = 1 its margin has
    since moved by at most |x_i|*(weight path since) + (bias path since). An
    epoch recomputes only the rows whose margin could be within the rounding
    slack of 1, and runs the full `y*(x@w+b)` on the first epoch and whenever
    a recomputed margin lies within that slack of 1. So each epoch's violator
    set is the full product's, the update reads the same rows in ascending
    order, and `w`, `b` are the bytes one full product per epoch gives. `x`
    is used as given when it is float64.
    A warm start (`w` given) serves `TestScreenedFit`: it puts margins on
    1.0 and one ulp off it at a screened epoch, which no cold start reaches.
    """
    n, d = x.shape
    if w is None:
        w = np.zeros(d, dtype=np.float64)
    x64 = x.astype(np.float64, copy=False)
    y64 = y.astype(np.float64)
    # Any summation order computes y*(x.w + b) within
    # gamma_{d+1}*(|x||w| + |b|) of its exact value, gamma_k = k*u/(1 - k*u)
    # (Higham, Accuracy and Stability, 3.1); a subset product and the full
    # one may err in opposite directions, so the slack is twice that. The
    # extra 7 in gamma_{d+8}, the upward factor on every norm and the
    # upward-rounded path sums cover the bound's own arithmetic.
    up = 1.0 + 2 * (d + 4) * _U
    slack_rate = 2.0 * (d + 8) * _U / (1.0 - (d + 8) * _U)
    x_norm = np.sqrt(np.einsum("ij,ij->i", x64, x64)) * up
    excess = np.empty(n)   # margin - 1 as last computed
    seen_w = np.zeros(n)   # path_w and path_b at that time
    seen_b = np.zeros(n)
    path_w = path_b = w_max = b_max = 0.0
    for t in range(epochs):
        w_max = max(w_max, math.sqrt(w @ w) * up)
        b_max = max(b_max, abs(b))
        slack_w, slack_b = slack_rate * w_max, slack_rate * b_max
        full = t == 0
        if not full:
            reach = (x_norm * (path_w + slack_w - seen_w)
                     + (path_b + slack_b - seen_b))
            rows = np.flatnonzero(excess <= reach)
            near = y64[rows] * (_take_rows(x64, rows) @ w + b) - 1.0
            full = bool((np.abs(near) <= x_norm[rows] * slack_w
                         + slack_b).any())
            if not full:
                excess[rows] = near
                seen_w[rows] = path_w
                seen_b[rows] = path_b
                viol = rows[near < 0.0]
        if full:
            margins = y64 * (x64 @ w + b)
            excess = margins - 1.0
            seen_w[:] = path_w
            seen_b[:] = path_b
            viol = np.flatnonzero(margins < 1.0)
        step = lr / (1.0 + 0.02 * t)
        gw = SVM_REG * w
        gb = 0.0
        if len(viol):
            gw = gw - c * (y64[viol] @ _take_rows(x64, viol)) / n
            gb = -c * y64[viol].sum() / n
        w_next = w - step * gw
        b_next = b - step * gb
        dw = w_next - w
        path_w = np.nextafter(path_w + math.sqrt(dw @ dw) * up, np.inf)
        path_b = np.nextafter(path_b + abs(b_next - b) * up, np.inf)
        w, b = w_next, b_next
    return w, b


def _take_rows(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """`x[rows]` for ascending unique `rows`; `x` itself when that is every
    row of a C-contiguous `x`, which is the gather's bytes and layout
    without its copy."""
    if len(rows) == len(x) and x.flags.c_contiguous:
        return x
    return x[rows]


def train_svm(features: np.ndarray, labels: np.ndarray,
              c: float = 1.0) -> SvmModel:
    """Fit a binary linear SVM (labels +1/-1) by subgradient descent,
    `SVM_EPOCHS` epochs from step size `SVM_LR`.

    One fit: all positives, then all negatives, each in input order (the
    order sets the rounding). Callers pass every mined negative, so it is
    the fixed point of hard-negative mining, which adds only negatives not
    yet in the fit. Non-finite features, labels other than +1/-1 and a `c`
    that is not finite and positive raise ShapeError before any fit. Rows
    are checked in the caller's dtype and gathered into that order only
    when the positives are not first already. `_fit_hinge` fits C-contiguous
    float64 rows as given, and makes the one float64 copy of any others.
    """
    features = np.asarray(features)
    labels = np.asarray(labels, dtype=np.float64)
    if features.ndim != 2 or labels.ndim != 1 or len(labels) != len(features):
        raise ShapeError(
            f"features {features.shape} vs labels {labels.shape} mismatch")
    if not (np.isfinite(c) and c > 0):
        raise ShapeError(f"SVM c must be finite and positive, got {c}")
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if len(bad):
        raise ShapeError(f"SVM feature row {bad[0]} is not finite")
    bad = np.flatnonzero(np.abs(labels) != 1.0)
    if len(bad):
        raise ShapeError(
            f"SVM label {bad[0]} is {labels[bad[0]]:g}, not +1 or -1")
    pos = np.flatnonzero(labels > 0)
    neg = np.flatnonzero(labels < 0)
    if len(pos) == 0 or len(neg) == 0:
        raise ShapeError("SVM training needs both classes present")
    if pos[-1] != len(pos) - 1:  # positives are not all first
        idx = np.concatenate([pos, neg])
        features, labels = features[idx], labels[idx]
    w, b = _fit_hinge(np.ascontiguousarray(features), labels, c, SVM_EPOCHS,
                      SVM_LR)
    return SvmModel(w, float(b))


# ---------------------------------------------------------------------------
# NMS / model combination / mAP
# ---------------------------------------------------------------------------

def nms(detections):
    """Greedy non-maximum suppression over one class: keep by descending
    score (ties in input order), drop anything overlapping a kept window by
    more than `NMS_THRESHOLD` IoU. Survivor scores are unchanged."""
    windows = [d.window for d in detections]
    scores = np.array([d.score for d in detections], dtype=np.float64)
    kept = _nms_keep(iou_matrix(windows, windows) > NMS_THRESHOLD, scores)
    return [detections[i] for i in kept]


def _nms_keep(overlaps: np.ndarray, scores: np.ndarray) -> list[int]:
    """Rows NMS keeps, walked by descending score: a stable sort, so ties
    (-0.0 and 0.0 among them) keep input order."""
    return _greedy_keep(overlaps, np.argsort(-scores, kind="stable"))


def combine_models(det_sets):
    """Union the per-model detections (scores kept) and run NMS on the union,
    class by class in ascending class order; a more confident window from
    one model suppresses the others'."""
    by_class: dict[int, list] = {}
    for dets in det_sets:
        for d in dets:
            by_class.setdefault(d.class_id, []).append(d)
    return [d for cls in sorted(by_class) for d in nms(by_class[cls])]


def evaluate_map(detections, ground_truth):
    """Per-class average precision and their mean.

    `ground_truth` maps image_id -> [(class_id, WindowRect)]. Matching is
    greedy by descending score: a detection takes the last unmatched
    ground-truth box of highest IoU, if that is at least `MAP_MATCH_IOU`;
    AP integrates the whole precision-recall curve (all-points
    interpolation).
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
        by_image: dict[str, list[int]] = {}
        for i, d in enumerate(dets):
            by_image.setdefault(d.image_id, []).append(i)
        tp = np.zeros(len(dets))
        for image_id, rows in by_image.items():
            overlaps = iou_matrix([dets[i].window for i in rows],
                                  gt_images.get(image_id, []))
            for i, row in zip(rows, overlaps):
                best = _last_best(row[None], MAP_MATCH_IOU)[0]
                if best >= 0:
                    overlaps[:, best] = -1.0  # each box matches once
                    tp[i] = 1
        fp = 1 - tp
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
    mpre = np.maximum.accumulate(mpre[::-1])[::-1]
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
        """The regressed window of one feature row; `apply_rows` of one."""
        box = self.apply_rows(feature[None], window_array([window]),
                              image_size)
        return WindowRect(*box[0].tolist())

    def apply_rows(self, features: np.ndarray, windows: np.ndarray,
                   image_size) -> np.ndarray:
        """(N,4) int64 regressed windows, clamped into the image, of (N,D)
        features and (N,4) windows; the windows unchanged when disabled.

        Each row's offsets are its own (1, D+1) @ (D+1, 4) product, one
        gemv per row in a stacked matmul: one (N, D+1) @ (D+1, 4) product
        may round differently. The box arithmetic after it is elementwise
        float64, and `np.round` rounds half to even, as `round` does.
        Regressed corners that are not finite raise ShapeError.
        """
        if not self.enabled:
            return windows
        aug = np.concatenate([features.astype(np.float64),
                              np.ones((len(features), 1))], axis=1)
        tx, ty, tw, th = (aug[:, None, :] @ self.weights).reshape(-1, 4).T
        width, height = (windows[:, 2] - windows[:, 0],
                         windows[:, 3] - windows[:, 1])
        gx = windows[:, 0] + width / 2.0 + width * tx
        gy = windows[:, 1] + height / 2.0 + height * ty
        gw = width * np.exp(tw)
        gh = height * np.exp(th)
        corners = np.stack([gx - gw / 2.0, gy - gh / 2.0,
                            gx + gw / 2.0, gy + gh / 2.0], axis=1)
        bad = ~np.isfinite(corners).all(axis=1)
        if bad.any():
            win = WindowRect(*windows[bad.argmax()].tolist())
            raise ShapeError(f"bbox regression of {win} is not finite")
        # clipping into [0, size] first keeps int64 exact and changes no
        # clamped result: max, min and round commute with the clamp below
        img_w, img_h = image_size
        x0, y0, x1, y1 = np.round(np.clip(
            corners, 0, (img_w, img_h, img_w, img_h))).astype(np.int64).T
        x1 = np.maximum(x0 + 1, x1)
        y1 = np.maximum(y0 + 1, y1)
        return np.stack([np.maximum(0, np.minimum(x0, img_w - 1)),
                         np.maximum(0, np.minimum(y0, img_h - 1)),
                         np.maximum(1, np.minimum(x1, img_w)),
                         np.maximum(1, np.minimum(y1, img_h))], axis=1)


def bbox_regress_train(features: np.ndarray,
                       targets: np.ndarray) -> BBoxRegressor:
    """Ridge fit of offsets given pooled features, penalty `RIDGE_LAMBDA`;
    the bias column is not penalized. Returns a disabled regressor when no
    pairs are given."""
    return _ridge_solve(_ridge_system(features, targets))


def _ridge_system(features, targets):
    """The normal equations (a, rhs) of `bbox_regress_train`, None when no
    pairs are given.

    `a` is formed in place. Adding 0.0 to every entry, then `RIDGE_LAMBDA`
    to the diagonal but the bias's, gives the bytes of adding the penalty
    matrix diag(lambda, ..., lambda, 0): an entry plus 0.0 is the entry,
    except that -0.0 becomes 0.0, as it does plus a zero of the penalty."""
    if len(features) == 0:
        return None
    x = np.asarray(features, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    aug = np.concatenate([x, np.ones((len(x), 1))], axis=1)
    a = aug.T @ aug
    a += 0.0
    diag = np.arange(aug.shape[1] - 1)
    a[diag, diag] += RIDGE_LAMBDA
    return a, aug.T @ t


def _ridge_solve(system) -> BBoxRegressor:
    return BBoxRegressor(None if system is None else np.linalg.solve(*system))


def collect_bbox_pairs(proposals, gt_windows):
    """(proposal, target) pairs for proposals overlapping a ground-truth box
    by at least `BBOX_MIN_IOU`; each proposal regresses onto its best-IoU box
    (the last one, on a tie)."""
    best = _last_best(iou_matrix(proposals, gt_windows), BBOX_MIN_IOU)
    return [(p, bbox_targets(p, gt_windows[j]))
            for p, j in zip(proposals, best) if j >= 0]


# ---------------------------------------------------------------------------
# whole-pipeline helpers
# ---------------------------------------------------------------------------

@dataclass
class DetectorModel:
    svms: dict[int, SvmModel]
    regressors: dict[int, BBoxRegressor] = field(default_factory=dict)


def _svm_rows(pos_rows, neg_rows, d: int):
    """(n, d) float64 features, positives first, and their +1/-1 labels."""
    features = np.empty((len(pos_rows) + len(neg_rows), d))
    if len(features):
        np.stack(pos_rows + neg_rows, out=features)
    return features, np.repeat([1.0, -1.0], [len(pos_rows), len(neg_rows)])


def fit_detector(extractor: RegionFeatureExtractor, images: dict,
                 proposals: dict, ground_truth: dict, classes,
                 svm_c: float = 1.0,
                 with_bbox: bool = True) -> DetectorModel:
    """Train per-class SVMs (positives = ground-truth windows, mined
    negatives = low-overlap proposals) and optional bbox regressors from one
    shared feature extractor. Images are visited one at a time and each
    window is pooled once; the extractor then holds the last image's maps.

    A class's SVM rows are built once, float64 with all positives first, so
    `train_svm` fits them uncopied. The calling thread forms each class's
    ridge system, then `parallel.map_threads` runs [fit the SVM, solve the
    system]: the calling thread fits, a worker solves; serially the solve
    follows the SVM. Forming the system on the calling thread keeps its
    8*(D+1)^2 bytes in that thread's allocator, where the SVM's freed rows
    can reuse them: formed on the worker, they raised detect's peak RSS by
    about 6 MB."""
    samples = {cls: ([], [], [], []) for cls in classes}
    for image_id, pixels in images.items():
        gt = ground_truth.get(image_id, [])
        props = proposals.get(image_id, [])
        windows = list(dict.fromkeys(
            [*props, *(w for c, w in gt if c in samples)]))
        pooled = dict(zip(windows, extractor.extract_many(image_id, pixels,
                                                          windows)))
        for cls, (pos_rows, neg_rows, reg_feats, reg_targets) in \
                samples.items():
            gt_cls = [w for c, w in gt if c == cls]
            pos, neg = mine_svm_samples(props, gt_cls)
            pos_rows.extend(pooled[win] for win in pos)
            neg_rows.extend(pooled[win] for win in neg)
            if with_bbox and gt_cls:
                for win, target in collect_bbox_pairs(props, gt_cls):
                    reg_feats.append(pooled[win])
                    reg_targets.append(target)
    svms, regressors = {}, {}
    for cls, (pos_rows, neg_rows, reg_feats, reg_targets) in samples.items():
        # the last class's system is dropped before this one's is formed
        tasks = [partial(_class_svm, cls, pos_rows, neg_rows,
                         extractor.feature_length, svm_c)]
        if with_bbox:
            tasks.append(partial(_ridge_solve, _ridge_system(
                np.array(reg_feats), np.array(reg_targets))))
        fitted = map_threads(lambda task: task(), tasks)
        svms[cls] = fitted[0]
        if with_bbox:
            regressors[cls] = fitted[1]
    return DetectorModel(svms, regressors)


def _class_svm(cls, pos_rows, neg_rows, d: int, svm_c: float) -> SvmModel:
    """`train_svm` of one class's rows; its errors name the class."""
    try:
        return train_svm(*_svm_rows(pos_rows, neg_rows, d), c=svm_c)
    except ShapeError as e:
        raise ShapeError(f"class {cls}: {e}") from e


def run_detector(extractor: RegionFeatureExtractor, model: DetectorModel,
                 images: dict, proposals: dict,
                 nms_threshold: float = NMS_THRESHOLD,
                 apply_bbox: bool = False):
    """Score every proposal with every class SVM, NMS per class, optionally
    bbox-regress the survivors. Returns detections sorted by image then
    class, the survivors of each class in descending score order.

    Each image's proposals become one window array; NMS and the regression
    run on rows of it, and only survivors become `Detection` objects. The
    images share the threads `parallel.map_threads` grants, all pooled by
    the one `extractor`; a single image keeps them for its scales."""

    def detect_image(image_id):
        pixels = images[image_id]
        windows = window_array(proposals.get(image_id, []))
        feats = extractor.extract_many(image_id, pixels, windows)
        overlaps = iou_matrix(windows, windows) > nms_threshold
        image_size = (pixels.shape[2], pixels.shape[1])
        out = []
        for cls, svm in sorted(model.svms.items()):
            scores = svm.scores(feats)
            if not np.isfinite(scores).all():
                raise ShapeError(
                    f"non-finite detection score for {image_id}")
            kept = _nms_keep(overlaps, scores)
            boxes = windows[kept]
            if apply_bbox and cls in model.regressors:
                boxes = model.regressors[cls].apply_rows(feats[kept], boxes,
                                                         image_size)
            out.extend(Detection(image_id, WindowRect(*box), cls, score)
                       for box, score in zip(boxes.tolist(),
                                             scores[kept].tolist()))
        return out

    return [d for dets in map_threads(detect_image, sorted(images))
            for d in dets]


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


def speed_bench(spec: NetworkSpec, params: ParameterStore, pixels: np.ndarray,
                proposals, mode: str, scales, window_size: int) -> BenchReport:
    """Time the conv / pool / fc stages of region feature extraction.

    shared: conv trunk once per scale on the full image, then one
    `pool_rects` call for all windows off the cached maps. per_window: crop
    each proposal from pixels, warp to window_size**2, run the trunk per
    window (the recompute-everything baseline) and pool its map alone with
    `pool_maps`: the same kernel, one window at a time.
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
        feats = extractor.extract_many("bench", pixels, proposals)
        t2 = clock()
        feats @ proj.T
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
        vec = pool_maps(featmap[None], extractor.pyramid)[0]
        t2 = clock()
        conv_t += t1 - t0
        pool_t += t2 - t1
        pooled.append(vec)
    t0 = clock()
    np.array(pooled, dtype=np.float32) @ proj.T
    fc_t = clock() - t0
    return BenchReport("per_window", len(proposals), conv_t, pool_t, fc_t)
