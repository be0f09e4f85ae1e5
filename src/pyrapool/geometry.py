"""Exact integer geometry between image pixels and feature-map cells.

A stack of conv/pool layers sub-samples the image by S, the product of its
strides. When every layer pads floor(kernel/2) pixels, the receptive field of
feature cell x' is centered at image coordinate S*x', and an image-domain
window projects onto the map with the boundary rules

    left/top:     x' = floor(x / S) + 1
    right/bottom: x' = ceil(x / S) - 1

applied verbatim, then clamped into the map. The left rule yields cell 1 for
x = 0, so a window flush with the image edge excludes row/column 0; we keep
the formula as-is rather than special-casing it (callers that need edge views
snap afterwards, see inference).

Layers with other paddings would need per-layer offsets; FeatureGeometry
refuses them at construction instead.

`map_window` projects one window; `map_windows` is its array form, which
both runtime paths use, each returning `spp.pool_rects` rows:
`project_windows` picks an image's map for each of many (N,4) windows and
projects them all, as region detection needs, and `inference.project_views`
projects all views of an image.

Window overlap is `iou_matrix`, the package's one IoU: every detection
decision (negative mining, NMS, mAP matching, bbox pairs) and the toy
corpus's shape placement read it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GraphError, ShapeError


@dataclass(frozen=True)
class WindowRect:
    """Axis-aligned image-domain rectangle [x0,x1) x [y0,y1) in pixels.

    Coordinates may lie outside the image (mapping clamps); proposals are
    clamped into bounds at ingestion.
    """

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self):
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise ShapeError(f"degenerate window {self}")

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0

    def clamped(self, image_w: int, image_h: int) -> "WindowRect":
        return WindowRect(
            max(0, min(self.x0, image_w - 1)),
            max(0, min(self.y0, image_h - 1)),
            max(1, min(self.x1, image_w)),
            max(1, min(self.y1, image_h)),
        )

    def scaled(self, f: float) -> "WindowRect":
        x0 = int(round(self.x0 * f))
        y0 = int(round(self.y0 * f))
        x1 = max(x0 + 1, int(round(self.x1 * f)))
        y1 = max(y0 + 1, int(round(self.y1 * f)))
        return WindowRect(x0, y0, x1, y1)


def iou_matrix(a, b) -> np.ndarray:
    """(len(a), len(b)) float64 intersection-over-union of two window sets,
    each a sequence of WindowRect or an (N,4) array (`window_array`), in
    [0, 1].

    Intersections and areas are exact integers and each entry is one float64
    division of them, so the matrix is exactly symmetric.
    """
    ax0, ay0, ax1, ay1 = window_array(a).T[:, :, None]
    bx0, by0, bx1, by1 = window_array(b).T[:, None, :]
    iw = np.maximum(np.minimum(ax1, bx1) - np.maximum(ax0, bx0), 0)
    ih = np.maximum(np.minimum(ay1, by1) - np.maximum(ay0, by0), 0)
    inter = iw * ih
    return inter / ((ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0)
                    - inter)


def window_array(windows) -> np.ndarray:
    """(N,4) int64 rows x0, y0, x1, y1 of a sequence of WindowRect; an (N,4)
    array is returned as int64 after the checks `WindowRect` makes."""
    if isinstance(windows, np.ndarray):
        if windows.ndim != 2 or windows.shape[1] != 4:
            raise ShapeError(f"expected (N,4) windows, got shape "
                             f"{windows.shape}")
        x0, y0, x1, y1 = windows.T
        bad = (x1 <= x0) | (y1 <= y0)
        if bad.any():
            raise ShapeError(
                f"degenerate window {windows[bad.argmax()].tolist()}")
        return windows.astype(np.int64, copy=False)
    return np.array([(w.x0, w.y0, w.x1, w.y1) for w in windows],
                    dtype=np.int64).reshape(-1, 4)


@dataclass(frozen=True)
class FeatureRect:
    """Inclusive feature-map cell interval [fx0,fx1] x [fy0,fy1]."""

    fx0: int
    fy0: int
    fx1: int
    fy1: int

    def __post_init__(self):
        if self.fx1 < self.fx0 or self.fy1 < self.fy0:
            raise ShapeError(f"inverted feature rect {self}")

    @property
    def width(self) -> int:
        return self.fx1 - self.fx0 + 1

    @property
    def height(self) -> int:
        return self.fy1 - self.fy0 + 1


@dataclass(frozen=True)
class GeomLayer:
    kernel: int
    stride: int
    padding: int


class FeatureGeometry:
    """Stride/padding record of the conv+pool stack up to a reference layer.

    Construction fails unless every layer pads floor(kernel/2): that is the
    condition under which the boundary-projection formulas are exact.
    """

    def __init__(self, layers):
        self.layers = tuple(layers)
        for idx, layer in enumerate(self.layers):
            if layer.padding != layer.kernel // 2:
                raise GraphError(
                    f"layer {idx} pads {layer.padding}, but window mapping "
                    f"requires floor({layer.kernel}/2) = {layer.kernel // 2}")
        self.stride = stride_product(self.layers)


def stride_product(layers) -> int:
    """Cumulative sub-sampling factor: the product of all layer strides."""
    s = 1
    for layer in layers:
        s *= layer.stride
    return s


def receptive_center(cell: int, s: int) -> int:
    """Image coordinate of the receptive-field center of feature cell `cell`."""
    return s * cell


def map_window(win: WindowRect, s: int, map_size) -> FeatureRect:
    """Project an image-domain window onto a feature map of `map_size`=(h,w)
    cells sub-sampled by `s`.

    Boundary formulas are applied verbatim, coordinates are clamped into the
    map, and an inverted interval (possible for windows narrower than ~2s)
    degrades to a single cell so the result is never empty.
    """
    map_h, map_w = map_size
    if map_h < 1 or map_w < 1:
        raise ShapeError(f"empty feature map {map_size}")
    if win.x0 >= map_w * s or win.y0 >= map_h * s or win.x1 <= 0 or win.y1 <= 0:
        raise ShapeError(f"window {win} lies entirely outside the mapped image")

    fx0 = win.x0 // s + 1
    fy0 = win.y0 // s + 1
    fx1 = -(-win.x1 // s) - 1
    fy1 = -(-win.y1 // s) - 1

    fx0 = min(max(fx0, 0), map_w - 1)
    fy0 = min(max(fy0, 0), map_h - 1)
    fx1 = min(max(fx1, 0), map_w - 1)
    fy1 = min(max(fy1, 0), map_h - 1)
    if fx1 < fx0:
        fx1 = fx0
    if fy1 < fy0:
        fy1 = fy0
    return FeatureRect(fx0, fy0, fx1, fy1)


def select_scale(win: WindowRect, image_size, scales, view: int = 224) -> int:
    """Pick the scale whose min-side resize makes the window's pixel count
    closest to view*view; ties go to the smaller scale."""
    if not scales:
        raise ShapeError("scale list is empty")
    image_w, image_h = image_size
    min_side = min(image_w, image_h)
    if min_side <= 0:
        raise ShapeError(f"degenerate image size {image_size}")
    target = float(view * view)
    best = None
    for s in sorted(scales):
        f = s / min_side
        err = abs(win.width * f * win.height * f - target)
        if best is None or err < best[0]:
            best = (err, s)
    return best[1]


def project_windows(windows: np.ndarray, image_size, sizes: np.ndarray,
                    stride: int, view: int, image_id) -> np.ndarray:
    """`spp.pool_rects` rows of many image-domain windows on per-scale maps.

    The array form of the per-window chain: check the window against the
    image, clamp it into the image, `select_scale`, `WindowRect.scaled` by
    scale/min_side, clamp into the resized image, then `map_window`'s
    boundary rules, clamp and single-cell fallback, with the same float64
    operations in the same order (`np.round` rounds half to even, as `round`
    does). `windows` is (N,4) int64; `sizes` holds `inference.image_maps`'s
    (K>0,4) rows rw, rh, map_h, map_w, each resized image's min side being
    its scale, with map_w*stride >= rw and map_h*stride >= rh, as the
    floor(kernel/2) padding that `FeatureGeometry` enforces gives. Ties go
    to the smaller scale, then the earlier row. Returns (N,5) int64 rows:
    the chosen row of `sizes`, then the rect in `FeatureRect` field order.
    A window outside the image raises ShapeError naming it and `image_id`.
    """
    img_w, img_h = image_size
    x0, y0, x1, y1 = windows.T
    outside = (x0 >= img_w) | (y0 >= img_h) | (x1 <= 0) | (y1 <= 0)
    if outside.any():
        win = WindowRect(*windows[outside.argmax()].tolist())
        raise ShapeError(f"proposal {win} of image {image_id} "
                         f"lies outside {img_w}x{img_h}")
    min_side = min(img_w, img_h)
    if min_side <= 0:
        raise ShapeError(f"degenerate image size {image_size}")
    x0 = np.maximum(0, np.minimum(x0, img_w - 1))
    y0 = np.maximum(0, np.minimum(y0, img_h - 1))
    x1 = np.maximum(1, np.minimum(x1, img_w))
    y1 = np.maximum(1, np.minimum(y1, img_h))
    scales = sizes[:, :2].min(axis=1)
    by_scale = np.argsort(scales, kind="stable")
    f = (scales[by_scale] / min_side)[:, None]
    w, h = x1 - x0, y1 - y0
    err = np.abs(w * f * h * f - float(view * view))
    rows = by_scale[err.argmin(axis=0)]  # first minimum
    f = scales[rows] / min_side
    rw, rh, map_h, map_w = sizes[rows].T
    sx0 = np.round(x0 * f).astype(np.int64)
    sy0 = np.round(y0 * f).astype(np.int64)
    sx1 = np.maximum(sx0 + 1, np.round(x1 * f).astype(np.int64))
    sy1 = np.maximum(sy0 + 1, np.round(y1 * f).astype(np.int64))
    sx0 = np.maximum(0, np.minimum(sx0, rw - 1))
    sy0 = np.maximum(0, np.minimum(sy0, rh - 1))
    sx1 = np.maximum(1, np.minimum(sx1, rw))
    sy1 = np.maximum(1, np.minimum(sy1, rh))
    rects = map_windows(sx0, sy0, sx1, sy1, stride, map_h, map_w)
    return np.stack([rows, *rects], axis=1)


def map_windows(x0, y0, x1, y1, stride: int, map_h, map_w):
    """`map_window` of many windows, given as int64 coordinate arrays, onto
    maps of (broadcast) `map_h` x `map_w` cells: the same boundary rules,
    clamp and single-cell fallback, without the outside check, which the
    callers make on the image. Returns the fx0, fy0, fx1, fy1 arrays."""
    fx0 = np.minimum(np.maximum(x0 // stride + 1, 0), map_w - 1)
    fy0 = np.minimum(np.maximum(y0 // stride + 1, 0), map_h - 1)
    fx1 = np.minimum(np.maximum(-(-x1 // stride) - 1, 0), map_w - 1)
    fy1 = np.minimum(np.maximum(-(-y1 // stride) - 1, 0), map_h - 1)
    return fx0, fy0, np.maximum(fx1, fx0), np.maximum(fy1, fy0)


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def resized_dims(image_w: int, image_h: int, s: int) -> tuple[int, int]:
    """(w, h) after resizing so the min side is exactly `s`, aspect preserved,
    the long side rounded half up."""
    if s < 1:
        raise ShapeError(f"target min side must be >= 1, got {s}")
    if image_w <= image_h:
        return s, max(1, _round_half_up(image_h * s / image_w))
    return max(1, _round_half_up(image_w * s / image_h)), s


def resize_image(img: np.ndarray, s: int) -> np.ndarray:
    """Bilinear resize of a (C,H,W) image so min(w,h) == s, aspect preserved."""
    c, h, w = img.shape
    new_w, new_h = resized_dims(w, h, s)
    return resize_to(img, new_h, new_w)


def resize_to(img: np.ndarray, new_h: int, new_w: int) -> np.ndarray:
    """Bilinear resample of a (C,H,W) array to an explicit (new_h, new_w),
    half-pixel centers (a copy when the size is unchanged). Axis 0 is only
    carried along, so a stack of same-sized images, reshaped to
    (N*C,H,W), resizes in one call.

    Separable, in float64: a column pass blends each source row's two
    neighbouring columns, then a row pass blends two of those rows. Each
    output element gets the same float64 operations, in the same order, as
    blending the four source corners row pair by row pair."""
    c, h, w = img.shape
    if (new_h, new_w) == (h, w):
        return img.copy()
    ys = (np.arange(new_h) + 0.5) * (h / new_h) - 0.5
    xs = (np.arange(new_w) + 0.5) * (w / new_w) - 0.5
    y0 = np.clip(np.floor(ys), 0, h - 1).astype(np.int64)
    x0 = np.clip(np.floor(xs), 0, w - 1).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[None, :, None]
    wx = np.clip(xs - x0, 0.0, 1.0)[None, None, :]
    img64 = img.astype(np.float64, copy=False)
    rows = img64[:, :, x0] * (1 - wx) + img64[:, :, x1] * wx
    out = rows[:, y0] * (1 - wy) + rows[:, y1] * wy
    return out.astype(img.dtype, copy=False)


# Conv+pool stacks of two published architectures up to their last conv layer,
# as (kernel, stride, padding) with the deployment padding floor(k/2).
# Their stride products are 16 and 12.
ZF5_CONV5_LAYERS = (
    GeomLayer(7, 2, 3),   # conv1
    GeomLayer(3, 2, 1),   # pool1
    GeomLayer(5, 2, 2),   # conv2
    GeomLayer(3, 2, 1),   # pool2
    GeomLayer(3, 1, 1),   # conv3
    GeomLayer(3, 1, 1),   # conv4
    GeomLayer(3, 1, 1),   # conv5
)

OVERFEAT_CONV_LAYERS = (
    GeomLayer(7, 2, 3),   # conv1
    GeomLayer(3, 3, 1),   # pool1
    GeomLayer(5, 1, 2),   # conv2
    GeomLayer(2, 2, 1),   # pool2
    GeomLayer(3, 1, 1),   # conv3..
)
