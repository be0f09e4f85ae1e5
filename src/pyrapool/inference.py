"""Test-time prediction: full-image representations, the standard 10-view
crop scheme, and multi-view testing pooled directly from feature maps.

Views are (scale, window, flip) triples on the min-side-resized image. The
feature-map path runs the conv trunk and the fc head once per (scale, flip),
pooling every window of the group from the shared map. Windows are projected
with the boundary formulas; on any side where a view touches the
resized-image border, the mapped rect is snapped to the map border so that a
full-image view pools exactly the full map (the raw left-boundary formula
would drop row/column 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dataio
from .errors import ShapeError
from .geometry import FeatureRect, WindowRect, map_window, resize_image, resized_dims
from .net import NetworkSpec, ParameterStore, instantiate
from .spp import spp_forward
from .tensor import softmax

MULTI_VIEW_SCALES = (224, 256, 300, 360, 448, 560)


@dataclass(frozen=True)
class View:
    scale: int
    window: WindowRect
    flip: bool


def _nine_positions(rw: int, rh: int, v: int):
    """Center, four corners, four side-middles of an rw x rh canvas."""
    xs = (0, (rw - v) // 2, rw - v)
    ys = (0, (rh - v) // 2, rh - v)
    pos = [(xs[1], ys[1]),
           (xs[0], ys[0]), (xs[2], ys[0]), (xs[0], ys[2]), (xs[2], ys[2]),
           (xs[1], ys[0]), (xs[1], ys[2]), (xs[0], ys[1]), (xs[2], ys[1])]
    return [WindowRect(x, y, x + v, y + v) for x, y in pos]


def ten_view_windows(image_size, s: int = 256, view: int = 224):
    """Center + four corner crops of the entire s-resized image, with and
    without horizontal flip: always 10 views."""
    rw, rh = resized_dims(*image_size, s)
    if min(rw, rh) < view:
        raise ShapeError(
            f"{view}px views do not fit the {rw}x{rh} resized image")
    windows = _nine_positions(rw, rh, view)[:5]
    return [View(s, win, flip) for flip in (False, True) for win in windows]


def multi_view_windows(image_size, scales=MULTI_VIEW_SCALES, view: int = 224):
    """Center/corner/side-middle views at every scale, flipped and not,
    with exact duplicates removed (18 per scale; fewer when positions
    coincide, e.g. 6 when the scale equals the view size)."""
    views = []
    seen = set()
    for s in scales:
        rw, rh = resized_dims(*image_size, s)
        if min(rw, rh) < view:
            raise ShapeError(
                f"{view}px views do not fit the {rw}x{rh} image at scale {s}")
        for flip in (False, True):
            for win in _nine_positions(rw, rh, view):
                key = (s, win, flip)
                if key not in seen:
                    seen.add(key)
                    views.append(View(s, win, flip))
    return views


def view_to_feature_rect(window: WindowRect, resized_size, stride: int,
                         map_size) -> FeatureRect:
    """map_window plus border snapping for edge-flush view windows."""
    rw, rh = resized_size
    map_h, map_w = map_size
    r = map_window(window, stride, map_size)
    fx0 = 0 if window.x0 <= 0 else r.fx0
    fy0 = 0 if window.y0 <= 0 else r.fy0
    fx1 = map_w - 1 if window.x1 >= rw else r.fx1
    fy1 = map_h - 1 if window.y1 >= rh else r.fy1
    return FeatureRect(fx0, fy0, max(fx1, fx0), max(fy1, fy0))


def network_input(spec: NetworkSpec, params: ParameterStore,
                  pixels: np.ndarray, s: int, flip: bool = False):
    """The one path from an image to the network: resize to min side `s`,
    optionally mirror, preprocess, and instantiate the net at that size.
    Returns (instance, (1, C, h, w) input batch)."""
    resized = resize_image(pixels, s)
    if flip:
        resized = resized[:, :, ::-1]
    inst = instantiate(spec, resized.shape[1:], params)
    return inst, dataio.preprocess(resized)[None]


def predict_views(spec: NetworkSpec, params: ParameterStore,
                  pixels: np.ndarray, views) -> np.ndarray:
    """Average the softmax scores of all views, pooling each window from the
    feature map of its (scale, flip) group; trunk and head run once a group."""
    if not views:
        raise ShapeError("view list is empty")
    stride = spec.trunk_geometry().stride
    pyramid = spec.pyramid()
    groups: dict[tuple, list] = {}
    for view in views:
        groups.setdefault((view.scale, view.flip), []).append(view)

    total = None
    for (s, flip), members in groups.items():
        inst, x = network_input(spec, params, pixels, s, flip)
        rh, rw = inst.input_size
        featmap = inst.conv_features(x)[0]
        vecs = []
        for view in members:
            win = view.window.hflipped(rw) if flip else view.window
            rect = view_to_feature_rect(win, (rw, rh), stride, featmap.shape[1:])
            crop = featmap[:, rect.fy0:rect.fy1 + 1, rect.fx0:rect.fx1 + 1]
            vecs.append(spp_forward(crop, pyramid)[0])
        probs = softmax(inst.head_forward(np.array(vecs, dtype=np.float32)))
        # row by row, in view order: the float64 sum is the per-view one
        for row in probs:
            total = row.astype(np.float64) if total is None else total + row
    return total / len(views)


def predict_crops(spec: NetworkSpec, params: ParameterStore,
                  pixels: np.ndarray, views) -> np.ndarray:
    """Baseline view averaging from pixel crops: each view is cropped out of
    the resized image and run through the whole network (one trunk pass per
    view)."""
    if not views:
        raise ShapeError("view list is empty")
    total = None
    resized_cache: dict[int, np.ndarray] = {}
    inst_cache: dict[tuple, object] = {}
    for view in views:
        s = view.scale
        if s not in resized_cache:
            resized_cache[s] = resize_image(pixels, s)
        resized = resized_cache[s]
        win = view.window
        crop = resized[:, win.y0:win.y1, win.x0:win.x1]
        if view.flip:
            crop = crop[:, :, ::-1]
        hw = crop.shape[1:]
        if hw not in inst_cache:
            inst_cache[hw] = instantiate(spec, hw, params)
        inst = inst_cache[hw]
        x = dataio.preprocess(crop)
        probs = inst.predict_proba(x[None])[0]
        total = probs.astype(np.float64) if total is None else total + probs
    return total / len(views)


def l2_normalize(vec: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(vec.astype(np.float64)))
    if norm == 0.0:
        return vec
    return (vec / norm).astype(vec.dtype)


def full_image_representation(spec: NetworkSpec, params: ParameterStore,
                              pixels: np.ndarray, s: int,
                              layer: str | None = None,
                              l2: bool = False) -> np.ndarray:
    """One forward pass over the whole min-side-s image; returns the named
    layer's activations flattened (default: the pooled pyramid vector),
    optionally l2-normalized for classifier export."""
    inst, x = network_input(spec, params, pixels, s)
    if layer is None:
        layer = spec.layers[spec.spp_index].name
    feat = inst.feature_at(x, layer)[0].reshape(-1)
    return l2_normalize(feat) if l2 else feat
