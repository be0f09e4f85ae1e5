"""Independent numerical oracles shared by the test suite.

The gradient oracle is central finite differences evaluated in float64; it
never calls any backward-pass code, so analytic gradients are checked against
an implementation-independent estimate.
"""

import numpy as np


def numerical_grad(f, x, h=1e-3):
    """Central-difference gradient of scalar f at x, elementwise."""
    x = x.astype(np.float64).copy()
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f(x)
        x[idx] = orig - h
        fm = f(x)
        x[idx] = orig
        g[idx] = (fp - fm) / (2.0 * h)
        it.iternext()
    return g


def rel_error(a, b, floor=1e-8):
    """Scale-aware elementwise relative error, max-reduced."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.abs(a) + np.abs(b), floor)
    return float(np.max(np.abs(a - b) / denom))


def separated_uniform(rng, shape, gap=0.01):
    """Random values whose pairwise distances (and distance from 0) all exceed
    `gap`, keeping max/relu kinks away from finite-difference steps: a shuffled
    signed magnitude grid."""
    n = int(np.prod(shape))
    mags = (np.arange(n) + 1.0) * gap * 1.5
    vals = mags * rng.choice([-1.0, 1.0], size=n)
    rng.shuffle(vals)
    return vals.reshape(shape)


def reference_iou(a, b):
    """Intersection-over-union of two WindowRects, in [0, 1]: the scalar
    integer formula that `geometry.iou_matrix` reproduces bit for bit."""
    ix0 = max(a.x0, b.x0)
    iy0 = max(a.y0, b.y0)
    ix1 = min(a.x1, b.x1)
    iy1 = min(a.y1, b.y1)
    iw = max(0, ix1 - ix0)
    ih = max(0, iy1 - iy0)
    inter = iw * ih
    if inter == 0:
        return 0.0
    return inter / (a.area + b.area - inter)


def brute_force_iou(a, b):
    """Pixel-set IoU by literal set construction (small boxes only)."""
    cells_a = {(x, y) for x in range(a[0], a[2]) for y in range(a[1], a[3])}
    cells_b = {(x, y) for x in range(b[0], b[2]) for y in range(b[1], b[3])}
    union = cells_a | cells_b
    if not union:
        return 0.0
    return len(cells_a & cells_b) / len(union)
