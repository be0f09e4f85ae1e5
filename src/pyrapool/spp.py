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
  form: `spp_forward_batch` computes the bounds on each call from the same
  integer floor/ceil formula, so nothing is cached per map size.
* `sliding_pool_params` gives the window/stride pair (ceil(a/n), floor(a/n))
  of the fixed-input-size formulation; it matches `bin_range` whenever n
  divides the map side and exists mainly for that agreement check.

Output ordering is fixed: level-major, then bins in row-major order, then
channels. Downstream fully-connected weights depend on this order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


@dataclass(frozen=True)
class PyramidSpec:
    """Pyramid grid sizes, e.g. (6, 3, 2, 1). Total bins M = sum(n*n)."""

    levels: tuple[int, ...]

    def __init__(self, levels):
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


def spp_forward_batch(x: np.ndarray, pyr: PyramidSpec):
    """Pool (B,K,H,W) into (B, K*M) plus an argmax map of flat k*H*W + r*W + c
    indices, ordered (level, bin row-major, channel)."""
    if x.ndim != 4:
        raise ShapeError(f"expected (B,K,H,W) feature maps, got {x.shape}")
    b, k, h, w = x.shape
    if h < 1 or w < 1:
        raise ShapeError(f"cannot pool an empty {h}x{w} feature map")
    m = pyr.num_bins
    out = np.empty((b, m, k), dtype=x.dtype)
    argmax = np.empty((b, m, k), dtype=np.int64)
    chan_base = np.arange(k) * (h * w)
    t = 0
    for n in pyr.levels:
        cols = [_bounds(i, n, w) for i in range(n)]
        for j in range(n):
            r0, r1 = _bounds(j, n, h)
            for c0, c1 in cols:
                bw = c1 - c0
                flat = x[:, :, r0:r1, c0:c1].reshape(b, k, (r1 - r0) * bw)
                local = flat.argmax(axis=-1)
                out[:, t, :] = np.take_along_axis(
                    flat, local[..., None], axis=-1)[..., 0]
                argmax[:, t, :] = (chan_base + (r0 + local // bw) * w
                                   + c0 + local % bw)
                t += 1
    return out.reshape(b, m * k), argmax.reshape(b, m * k)


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
    if grad_out.shape != argmax.shape:
        raise ShapeError(
            f"grad length {grad_out.shape} does not match argmax map "
            f"{argmax.shape}")
    if argmax.shape[0] != b:
        raise ShapeError(f"argmax map batch {argmax.shape[0]} != {b}")
    if argmax.size and (argmax.min() < 0 or argmax.max() >= k * h * w):
        raise ShapeError(f"argmax map indexes outside {k}x{h}x{w}; stale map?")
    grad = np.zeros((b, k * h * w), dtype=np.float64)
    bi = np.arange(b)[:, None]
    np.add.at(grad, (bi, argmax), grad_out.astype(np.float64, copy=False))
    return grad.reshape(b, k, h, w).astype(grad_out.dtype)


def spp_backward(grad_out: np.ndarray, argmax: np.ndarray, featmap_shape):
    """Single-map adjoint of `spp_forward`."""
    k, h, w = featmap_shape
    return spp_backward_batch(grad_out[None], argmax[None], (1, k, h, w))[0]
