"""Spatial pyramid pooling: a fixed set of grids (e.g. 6x6, 3x3, 2x2, 1x1)
whose bins scale with the feature map, max-pooled per channel into a vector
whose length depends only on the channel count and the pyramid, never on the
map size.

Two bin geometries are provided:

* `bin_range` partitions a side of length `w` into `n` fractional bins, taking
  the floor on the left/top boundary and the ceiling on the right/bottom.
  Intervals are half-open over 0-based cell indices; this is the only reading
  that tiles [0, w) exactly, and it stays well defined even when n > w (bins
  then overlap but are never empty). Every runtime path pools with this
  form, computing the bounds on each call from the same integer floor/ceil
  formula, so nothing is cached per map size.
* `sliding_pool_params` gives the window/stride pair (ceil(a/n), floor(a/n))
  of the fixed-input-size formulation; it matches `bin_range` whenever n
  divides the map side and exists mainly for that agreement check.

Two kernels pool the fractional bins. Evaluation is max-only: `pool_rects`
takes one form, a sequence of same-channel (K,H_b,W_b) maps of any sizes and
(N,5) int64 rows (b, fx0, fy0, fx1, fy1), and pools every row's region of
map b from a range-max sparse table, four gathers per bin, in memory bounded
by a few copies of the maps laid out as one table (see its docstring).
Multi-view testing pools all of an image's (scale, flip) maps in one call,
region detection all of its scale maps, and `pool_maps` pools whole maps
through it. `spp_forward_batch` (and `spp_forward`, its one-map form) also
returns the per-bin argmax that `spp_backward_batch` routes gradients
through; the argmax exists only for that backward pass, so only training
calls it. Max is exact, so the two kernels give the same values bit for bit.

Output ordering is fixed: level-major, then bins in row-major order, then
channels. Downstream fully-connected weights depend on this order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import ShapeError
from .tensor import scatter_to_argmax


@dataclass(frozen=True)
class PyramidSpec:
    """Pyramid grid sizes, e.g. (6, 3, 2, 1). Total bins M = sum(n*n).
    Levels are stored as ints; bad ones raise ShapeError when built."""

    levels: tuple[int, ...]

    def __post_init__(self):
        levels = self.levels
        object.__setattr__(self, "levels", tuple(int(n) for n in levels))
        if not self.levels or any(n < 1 for n in self.levels):
            raise ShapeError(f"pyramid levels must all be >= 1, got {levels}")

    @property
    def num_bins(self) -> int:
        return sum(n * n for n in self.levels)

    def output_length(self, channels: int) -> int:
        return channels * self.num_bins


@dataclass(frozen=True)
class BinRange:
    """Half-open cell-index intervals [r0,r1) x [c0,c1) of one pyramid bin."""

    r0: int
    r1: int
    c0: int
    c1: int

    def __post_init__(self):
        if self.r1 <= self.r0 or self.c1 <= self.c0:
            raise ShapeError(f"empty bin {self}")


def sliding_pool_params(a: int, n: int) -> tuple[int, int]:
    """Window and stride (ceil(a/n), floor(a/n)) that pool an a-cell side into
    n outputs. Requires 1 <= n <= a; for n > a use `bin_range` instead."""
    if n < 1:
        raise ShapeError(f"grid size must be >= 1, got {n}")
    if n > a:
        raise ShapeError(
            f"sliding pooling needs n <= map side, got n={n} > a={a}; "
            f"use fractional bins for maps smaller than the grid")
    return -(-a // n), a // n


def _bounds(k: int, n: int, side: int) -> tuple[int, int]:
    """Cells [floor(k*side/n), ceil((k+1)*side/n)) of the k-th (0-based) of
    n bins along a side of `side` cells."""
    return k * side // n, -(-(k + 1) * side // n)


def bin_range(i: int, j: int, n: int, w: int, h: int) -> BinRange:
    """Cell range of the (i, j)-th bin (1-based column i, row j) of an n x n
    grid over a w x h map: columns [floor((i-1)*w/n), ceil(i*w/n)) and rows
    [floor((j-1)*h/n), ceil(j*h/n))."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ShapeError(f"bin index ({i},{j}) outside 1..{n}")
    if w < 1 or h < 1:
        raise ShapeError(f"feature map must be at least 1x1, got {w}x{h}")
    return BinRange(*_bounds(j - 1, n, h), *_bounds(i - 1, n, w))


@lru_cache(maxsize=16)
def _bin_grid(levels: tuple[int, ...]) -> np.ndarray:
    """(3, M) read-only rows n, j, i of every bin of a pyramid: its level's
    grid size, bin row and bin column, in `spp_forward` order. Cached, as
    every call pools with one of a few pyramids."""
    grid = np.array([(n, j, i) for n in levels
                     for j in range(n) for i in range(n)]).T
    grid.flags.writeable = False
    return grid


def spp_forward_batch(x: np.ndarray, pyr: PyramidSpec):
    """Pool (B,K,H,W) into (B, K*M) plus an argmax map of flat k*H*W + r*W + c
    indices, ordered (level, bin row-major, channel): one `argmax` per bin
    picks each channel's first max (or NaN) in row-major order, and one
    gather at the flat indices reads every value."""
    if x.ndim != 4:
        raise ShapeError(f"expected (B,K,H,W) feature maps, got {x.shape}")
    b, k, h, w = x.shape
    if h < 1 or w < 1:
        raise ShapeError(f"cannot pool an empty {h}x{w} feature map")
    m = pyr.num_bins
    n, j, i = _bin_grid(pyr.levels)
    r0, r1 = _bounds(j, n, h)
    c0, c1 = _bounds(i, n, w)
    local = np.empty((b, m, k), dtype=np.int64)
    for t, (y0, y1, x0, x1) in enumerate(zip(r0.tolist(), r1.tolist(),
                                             c0.tolist(), c1.tolist())):
        local[:, t] = x[:, :, y0:y1, x0:x1].reshape(b, k, -1).argmax(axis=-1)
    # bin-local cell -> flat k*H*W + r*W + c index, then one gather
    row, col = np.divmod(local, (c1 - c0)[:, None])
    argmax = ((row + r0[:, None]) * w + col + c0[:, None]
              + np.arange(k) * (h * w)).reshape(b, m * k)
    return np.take_along_axis(x.reshape(b, k * h * w), argmax, axis=1), argmax


# Floor on the values in one gathered block of `pool_rects`, so that a small
# map is not pooled a handful of bins at a time.
_MIN_BLOCK_VALUES = 1 << 16


def pool_rects(featmaps, rects, pyr: PyramidSpec) -> np.ndarray:
    """Eval-only pyramid pooling of many regions of many same-channel maps.

    `featmaps` is a sequence of (K,H_b,W_b) maps of any sizes, and `rects`
    is (N,5) integer rows (b, fx0, fy0, fx1, fy1): the index of the map a
    rect lies in, then its inclusive cell bounds in `FeatureRect` field
    order, which must lie inside map b. This is the only form: a bare map
    or rows without the index raise ShapeError. Row i of the (N, K*M) result
    equals `spp_forward` of map rects[i, 0] cropped to rects[i, 1:], bit for
    bit; no argmax is computed.

    Range-max by sparse table (Bender & Farach-Colton 2000): a bin of
    2^a <= height < 2^(a+1) rows and 2^b <= width < 2^(b+1) columns is the
    max of four overlapping 2^a x 2^b window maxima. The table is walked one
    (a, b) level at a time, rows doubled in the outer loop and columns in the
    inner one, and only up to the levels some bin needs; each level's bins
    are gathered before the next level replaces it. The maps enter the table
    as one channel-last (sum H_b, max W_b, K) map: map b's rows start at the
    sum of the heights before it, and its columns past W_b hold -inf. A
    bin's windows never leave its own map, so on a level W' columns wide the
    window max at (y, x) of map b is row (top_b + y)*W' + x of the table.
    Memory beyond the result: three copies of that table (sum H_b x max W_b
    x K values each), two gathered blocks of at most max(sum H_b x max W_b x
    K, 65536) values, and 120 bytes of indices per bin.
    """
    rects = np.asarray(rects, dtype=np.int64)
    if rects.ndim != 2 or rects.shape[1] != 5:
        raise ShapeError(f"expected (N,5) rows (b, fx0, fy0, fx1, fy1), "
                         f"got shape {rects.shape}")
    shapes = [np.shape(m) for m in featmaps]
    if not shapes or any(len(shape) != 3 or shape[0] != shapes[0][0]
                         for shape in shapes):
        raise ShapeError(f"expected a non-empty sequence of (K,H,W) maps of "
                         f"one channel count, got shapes {shapes}")
    tops = list(accumulate((mh for _, mh, _ in shapes), initial=0))
    table_h, table_w = tops.pop(), max(mw for _, _, mw in shapes)
    maps, fx0, fy0, fx1, fy1 = rects.T
    bad = (maps < 0) | (maps >= len(shapes))
    if bad.any():
        raise ShapeError(f"rect {rects[bad.argmax()].tolist()} names map "
                         f"{maps[bad.argmax()]} of a stack of {len(shapes)}")
    # per rect: its map's height, width and first table row
    h, w, top = np.array([(mh, mw, start) for (_, mh, mw), start
                          in zip(shapes, tops)], dtype=np.int64)[maps].T
    bad = ((fx0 < 0) | (fy0 < 0) | (fx1 >= w) | (fy1 >= h)
           | (fx1 < fx0) | (fy1 < fy0))
    if bad.any():
        i = bad.argmax()
        raise ShapeError(f"rect {rects[i, 1:].tolist()} is empty or outside "
                         f"the {h[i]}x{w[i]} map {maps[i]}")
    k = shapes[0][0]
    rows = np.empty((table_h, table_w, k), dtype=np.result_type(*featmaps))
    for featmap, (_, mh, mw), start in zip(featmaps, shapes, tops):
        rows[start:start + mh, :mw] = featmap.transpose(1, 2, 0)
        if mw < table_w:
            rows[start:start + mh, mw:] = -np.inf
    # every bin's half-open table rows [r0, r1) and map columns [c0, c1),
    # rect by rect, each rect's bins in `spp_forward` order
    n, j, i = _bin_grid(pyr.levels)
    first_row, first_col = (fy0 + top)[:, None], fx0[:, None]
    r0, r1 = _bounds(j, n, (fy1 - fy0 + 1)[:, None])
    c0, c1 = _bounds(i, n, (fx1 - fx0 + 1)[:, None])
    r0, r1, c0, c1 = (e.reshape(-1) for e in (
        first_row + r0, first_row + r1, first_col + c0, first_col + c1))
    # floor(log2) of each bin's height and width
    a = np.frexp(r1 - r0)[1] - 1
    b = np.frexp(c1 - c0)[1] - 1
    level = (a * 64 + b).astype(np.uint16)  # small keys: radix sort
    order = np.argsort(level, kind="stable")
    starts = np.flatnonzero(np.diff(level[order])) + 1
    groups = np.split(order, starts) if order.size else []
    block = max(rows.size, _MIN_BLOCK_VALUES) // max(k, 1)

    out = np.empty((len(r0), k), dtype=rows.dtype)
    row_level = 0
    cols, col_level = rows, 0
    for idx in groups:
        la, lb = int(a[idx[0]]), int(b[idx[0]])
        if la != row_level:
            cols = None  # so doubling rows holds two table copies, not three
            while row_level < la:
                s = 1 << row_level
                rows = np.maximum(rows[:-s], rows[s:])
                row_level += 1
            cols, col_level = rows, 0
        while col_level < lb:
            s = 1 << col_level
            cols = np.maximum(cols[:, :-s], cols[:, s:])
            col_level += 1
        # (H', W', K) levels are contiguous: gather rows of K by flat index
        height, width = cols.shape[:2]
        table = cols.reshape(height * width, k)
        for part in (idx[i:i + block] for i in range(0, len(idx), block)):
            y0, x0 = r0[part] * width, c0[part]
            y1, x1 = (r1[part] - (1 << la)) * width, c1[part] - (1 << lb)
            v = table.take(y0 + x0, axis=0)
            np.maximum(v, table.take(y1 + x0, axis=0), out=v)
            np.maximum(v, table.take(y0 + x1, axis=0), out=v)
            np.maximum(v, table.take(y1 + x1, axis=0), out=v)
            out[part] = v
    return out.reshape(len(rects), pyr.num_bins * k)


def pool_maps(x: np.ndarray, pyr: PyramidSpec) -> np.ndarray:
    """Eval-only pooling of whole (B,K,H,W) maps into (B, K*M): the values of
    `spp_forward_batch`, from one `pool_rects` call over B*K channels."""
    if x.ndim != 4:
        raise ShapeError(f"expected (B,K,H,W) feature maps, got {x.shape}")
    b, k, h, w = x.shape
    out = pool_rects([x.reshape(b * k, h, w)], [(0, 0, 0, w - 1, h - 1)],
                     pyr)
    return out.reshape(pyr.num_bins, b, k).transpose(1, 0, 2).reshape(b, -1)


def spp_forward(featmap: np.ndarray, pyr: PyramidSpec):
    """Pool one (K,H,W) feature map into a length K*M vector (+ argmax map)."""
    if featmap.ndim != 3:
        raise ShapeError(f"expected (K,H,W) feature map, got {featmap.shape}")
    out, argmax = spp_forward_batch(featmap[None], pyr)
    return out[0], argmax[0]


def spp_backward_batch(grad_out: np.ndarray, argmax: np.ndarray, featmap_shape):
    """Scatter (B, K*M) gradients back onto (B,K,H,W); cells covered by several
    bins accumulate every contribution."""
    b, k, h, w = featmap_shape
    if argmax.shape[0] != b:
        raise ShapeError(f"argmax map batch {argmax.shape[0]} != {b}")
    return scatter_to_argmax(grad_out, argmax, featmap_shape, 1,
                             "grad length", f"{k}x{h}x{w}", "stale map?")


def spp_backward(grad_out: np.ndarray, argmax: np.ndarray, featmap_shape):
    """Single-map adjoint of `spp_forward`."""
    k, h, w = featmap_shape
    return spp_backward_batch(grad_out[None], argmax[None], (1, k, h, w))[0]
