"""Test-time prediction: full-image representations, the standard 10-view
crop scheme, and multi-view testing pooled directly from feature maps.

Views are (scale, window, flip) triples on the min-side-resized image; a
view must lie inside the image at its scale. The feature-map path resizes
the image once per scale and runs the conv trunk once per scale on a batch
of the unflipped and mirrored inputs its views need. All views of the image
are then projected as one int64 array (`project_views`), one `pool_rects`
call pools every window from all the (scale, flip) maps, and the fc head
runs once over all the pooled rows. Windows are projected with the boundary
formulas; on any side where a view touches the resized-image border, the
mapped rect is snapped to the map border so that a full-image view pools
exactly the full map (the raw left-boundary formula would drop row/column
0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dataio
from .errors import ShapeError
from .geometry import WindowRect, map_windows, resize_image, resized_dims
from .net import NetworkSpec, ParameterStore, instantiate
from .spp import pool_rects
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


def project_views(windows: np.ndarray, flips: np.ndarray,
                  sizes: np.ndarray, stride: int) -> np.ndarray:
    """Feature rects of many views, each on its own map: `map_windows` plus
    border snapping. `windows` is (N,4) int64 x0, y0, x1, y1 on the resized
    image, inside it as `predict_views` checks, row i mirrored first when
    flips[i], and `sizes` is (N,4) int64 rows rw, rh, map_h, map_w, the
    resized image and map sizes. On a side where a window touches the
    resized-image border, its rect is snapped to the map border; that only
    widens a rect, so it stays non-empty. Returns (N,4) int64 rects in
    `FeatureRect` field order."""
    rw, rh, map_h, map_w = sizes.T
    x0, y0, x1, y1 = windows.T
    x0, x1 = np.where(flips, rw - x1, x0), np.where(flips, rw - x0, x1)
    fx0, fy0, fx1, fy1 = map_windows(x0, y0, x1, y1, stride, map_h, map_w)
    fx0 = np.where(x0 <= 0, 0, fx0)
    fy0 = np.where(y0 <= 0, 0, fy0)
    fx1 = np.where(x1 >= rw, map_w - 1, fx1)
    fy1 = np.where(y1 >= rh, map_h - 1, fy1)
    return np.stack([fx0, fy0, fx1, fy1], axis=1)


def network_input(spec: NetworkSpec, params: ParameterStore,
                  pixels: np.ndarray, s: int, flips):
    """The one path from an image to the network: resize to min side `s`
    once, mirror a copy for every set flag in `flips`, preprocess, and
    instantiate the net at that size. Returns (instance,
    (len(flips), C, h, w) input batch), row i mirrored when flips[i]."""
    resized = resize_image(pixels, s)
    batch = np.stack([resized[:, :, ::-1] if flip else resized
                      for flip in flips])
    inst = instantiate(spec, resized.shape[1:], params)
    return inst, dataio.preprocess(batch)


def _check_views_inside(pixels: np.ndarray, views):
    """Reject a view whose window leaves its scale's resized image: pooling
    would clamp it to a region the view does not describe."""
    sizes = {s: resized_dims(pixels.shape[2], pixels.shape[1], s)
             for s in {view.scale for view in views}}
    for view in views:
        rw, rh = sizes[view.scale]
        win = view.window
        if win.x0 < 0 or win.y0 < 0 or win.x1 > rw or win.y1 > rh:
            raise ShapeError(f"view {view} lies outside the {rw}x{rh} "
                             f"image at scale {view.scale}")


def predict_views(spec: NetworkSpec, params: ParameterStore,
                  pixels: np.ndarray, views) -> np.ndarray:
    """Average the softmax scores of all views, pooling each window from the
    feature map of its (scale, flip) group. Per scale, one resize and one
    trunk pass over the stacked unflipped and mirrored inputs it needs give
    the group maps. All views are then projected as one array, pooled from
    all the maps in one `pool_rects` call, and run through the head in one
    call. Rows are summed group by group in order of first appearance, each
    group's in view order, so the result does not depend on how the groups
    share trunk passes or head calls."""
    if not views:
        raise ShapeError("view list is empty")
    _check_views_inside(pixels, views)
    groups: dict[tuple, list] = {}
    for view in views:
        groups.setdefault((view.scale, view.flip), []).append(view)
    flips_of: dict[int, list] = {}
    for s, flip in groups:
        flips_of.setdefault(s, []).append(flip)

    maps, index, sizes = [], {}, {}
    for s, flips in flips_of.items():
        inst, x = network_input(spec, params, pixels, s, flips)
        featmaps = inst.conv_features(x)
        for flip, featmap in zip(flips, featmaps):
            index[s, flip] = len(maps)
            maps.append(featmap)
        rh, rw = inst.input_size
        sizes[s] = (rw, rh, *featmaps.shape[2:])
    # one row per view, group by group: map, flip, sizes, window
    table = np.array([(index[s, flip], flip, *sizes[s], view.window.x0,
                       view.window.y0, view.window.x1, view.window.y1)
                      for (s, flip), members in groups.items()
                      for view in members], dtype=np.int64)
    rects = project_views(table[:, 6:], table[:, 1] != 0, table[:, 2:6],
                          spec.trunk_geometry().stride)
    pooled = pool_rects(maps, np.column_stack([table[:, 0], rects]),
                        spec.pyramid())
    # any scale's instance runs the one shared head; accumulate adds the
    # float64 rows one after another, in view order, as the per-view sum does
    probs = softmax(inst.head_forward(pooled)).astype(np.float64)
    return np.add.accumulate(probs)[-1] / len(views)


def predict_crops(spec: NetworkSpec, params: ParameterStore,
                  pixels: np.ndarray, views) -> np.ndarray:
    """Baseline view averaging from pixel crops: each view is cropped out of
    the resized image and run through the whole network (one trunk pass per
    view). A view outside its scale's resized image is rejected, as in
    `predict_views`."""
    if not views:
        raise ShapeError("view list is empty")
    _check_views_inside(pixels, views)
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
    inst, x = network_input(spec, params, pixels, s, (False,))
    if layer is None:
        layer = spec.layers[spec.spp_index].name
    feat = inst.feature_at(x, layer)[0].reshape(-1)
    return l2_normalize(feat) if l2 else feat
