"""Test-time prediction: full-image representations, the standard 10-view
crop scheme, and multi-view testing pooled directly from feature maps.

Views are (scale, window, flip) triples on the min-side-resized image; a
view must lie inside the image at its scale. `image_maps`, the one path
from an image to its per-scale maps (detection's too), gives every (scale,
flip) map, on threads if the work is large enough; all views are then
projected as one int64 array (`project_views`), pooled by one `pool_rects`
call and run through the fc head once. Views are projected with the
boundary formulas; on any side where a view touches the resized-image
border, the mapped rect is snapped to the map border so that a full-image
view pools exactly the full map (the raw left-boundary formula would drop
row/column 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dataio
from .errors import ShapeError
from .geometry import (WindowRect, map_windows, resize_image, resized_dims,
                       window_array)
from .net import NetworkSpec, ParameterStore, instantiate
from .parallel import map_threads
from .spp import pool_rects
from .tensor import softmax

MULTI_VIEW_SCALES = (224, 256, 300, 360, 448, 560)

# Input pixels in an image's largest pass from which `image_maps` threads
# its scales: between the benchmark's classify (6,272) and detect (16,384+)
# images. Toy net, 2 threads: 0.60-0.65x serial time for a 96-view image at
# scales 224-560; 0.64-1.17x, varying by process, at the benchmark's sizes.
THREADED_PASS_PIXELS = 12_000


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


def image_maps(spec: NetworkSpec, params: ParameterStore,
               pixels: np.ndarray, keys):
    """An image's conv maps for (scale, flip) `keys`: per scale, one
    `network_input` call and one trunk pass over that scale's flips. The
    scales run in rising order, through `parallel.map_threads` when the
    largest pass holds `THREADED_PASS_PIXELS` input pixels, else serially.
    Returns the (K, h, w) maps in key order, their (len(keys), 4) int64
    rows rw, rh, map_h, map_w (resized image and map sizes), and an
    instance that runs the shared head."""
    if not keys:
        raise ShapeError("scale list is empty")
    flips_of: dict[int, list] = {}
    for s, flip in keys:
        flips_of.setdefault(s, []).append(flip)
    scales = sorted(flips_of)

    def scale_maps(s):
        inst, x = network_input(spec, params, pixels, s, flips_of[s])
        featmaps = inst.conv_features(x)
        rh, rw = inst.input_size
        return inst, featmaps, (rw, rh, *featmaps.shape[2:])

    largest = max(len(flips_of[s]) * math.prod(
        resized_dims(pixels.shape[2], pixels.shape[1], s)) for s in scales)
    threaded = largest >= THREADED_PASS_PIXELS
    passes = dict(zip(scales, map_threads(scale_maps, scales) if threaded
                      else map(scale_maps, scales)))
    maps = [passes[s][1][flips_of[s].index(flip)] for s, flip in keys]
    sizes = np.array([passes[s][2] for s, _ in keys], dtype=np.int64)
    return maps, sizes, passes[scales[-1]][0]


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
    """Average the softmax scores of all views, each pooled from the map of
    its (scale, flip) group (`image_maps`): one projection, one `pool_rects`
    call and one head call for all views. Rows are summed group by group in
    order of first appearance, each group's in view order, so the result
    does not depend on how the groups share trunk passes or head calls."""
    if not views:
        raise ShapeError("view list is empty")
    _check_views_inside(pixels, views)
    groups: dict[tuple, list] = {}
    for view in views:
        groups.setdefault((view.scale, view.flip), []).append(view.window)
    maps, sizes, inst = image_maps(spec, params, pixels, list(groups))
    # one row per view, group by group
    index = np.repeat(np.arange(len(groups)), list(map(len, groups.values())))
    flips = np.array([flip for _, flip in groups])[index]
    windows = window_array([w for group in groups.values() for w in group])
    rects = project_views(windows, flips, sizes[index],
                          spec.trunk_geometry().stride)
    pooled = pool_rects(maps, np.column_stack([index, rects]), spec.pyramid())
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
