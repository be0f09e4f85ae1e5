"""Dense NCHW tensor primitives: convolution, max pooling, fully-connected,
ReLU, softmax cross-entropy, and dropout, each with an explicit backward pass.

Activations are plain numpy arrays in (batch, channels, height, width) layout.
Values are stored in 32-bit floats during training; every reduction (matmul,
sum) accumulates in 64-bit and casts back, so gradient checks run to tight
tolerances when fed float64 inputs.

Convolution is an im2col matmul. The float64 (B*OH*OW, C*K*K) patch matrix,
rows output positions and columns (channel, ky, kx) taps, is built once per
call by one gather: the input is cast once into a zero-padded float64 frame,
and `np.take` reads it at flat frame offsets, one small index per band of
output rows (`_im2col`). The float64 product is cast once into the
C-contiguous (B,O,OH,OW) output and the bias added in place, so the ReLU
mask and the gradients that meet it in backward share one memory order.
`conv_forward` returns the matrix in a `ConvCache` beside its output,
training hands that to `conv_backward` so the weight gradient reuses it, and
the input gradient is computed only when a caller asks for it, as one
product per kernel tap of the gradient matrix that the weight gradient also
uses, added into a channel-last float64 buffer that is cast to NCHW once.

Max ties are broken by the first index in row-major scan order, which makes
backward routing deterministic. `maxpool_forward` finds that index by
scanning the window's taps last to first with an arithmetic select (no
masked stores) on a window-cell index held in the smallest unsigned dtype
that fits the window (uint8 up to 256 cells); a window whose max is NaN
keeps cell 0. The returned argmax is flat intp. Backward passes of max
pooling scatter with `np.bincount`, which adds each cell's contributions in
element order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


@dataclass(frozen=True)
class ConvSpec:
    """Convolution hyper-parameters: `out_channels` p×p filters (`kernel` = p),
    square stride, and symmetric zero padding per side."""

    out_channels: int
    kernel: int
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        if self.kernel < 1 or self.stride < 1 or self.padding < 0:
            raise ShapeError(f"invalid conv spec {self}")

    def out_size(self, size: int) -> int:
        return conv_out_size(size, self.kernel, self.stride, self.padding)


def conv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output extent: floor((size + 2*padding - kernel) / stride) + 1."""
    return (size + 2 * padding - kernel) // stride + 1


def _acc_matmul(a: np.ndarray, b: np.ndarray, out_dtype) -> np.ndarray:
    # 64-bit accumulation regardless of storage dtype
    r = a.astype(np.float64, copy=False) @ b.astype(np.float64, copy=False)
    return r.astype(out_dtype, copy=False)


@dataclass(frozen=True)
class ConvCache:
    """What `conv_backward` needs of one `conv_forward` call: the float64
    (B*OH*OW, C*K*K) patch matrix of the padded input, and the input's
    (B,C,H,W) shape and dtype."""

    cols: np.ndarray
    shape: tuple
    dtype: np.dtype


# Most entries in one band of conv_forward's two strided copies: of the
# gather index (intp) that builds the patch matrix, and of the float64
# product cast into NCHW order; 512 KiB either way. Gathers with bands of
# 2^14 or 2^15 entries were faster at fewer than half of ten benchmark and
# zf5 shapes (CHANGES.md).
BAND = 1 << 16


def _padded(x: np.ndarray, padding, fill: float) -> np.ndarray:
    """(B,C,H,W) `x` framed by (ph, pw) rows and columns of `fill` per side;
    `x` itself when there is no padding. Cheaper than `np.pad` here."""
    ph, pw = padding
    if not (ph or pw):
        return x
    b, c, h, w = x.shape
    xp = np.full((b, c, h + 2 * ph, w + 2 * pw), fill, dtype=x.dtype)
    xp[:, :, ph:ph + h, pw:pw + w] = x
    return xp


def _im2col(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """(B,C,H,W) -> float64 (B*OH*OW, C*K*K) patch matrix of the zero-padded
    input, by one gather.

    `x` is cast once into a zero-padded float64 frame. A band of output
    positions, at most `BAND` (position, tap) entries, gets the flat
    frame offset of each of its taps; `np.take` gathers them. When a whole
    image fits in a band, one take along the frame's flat axis covers the
    batch. Otherwise the index is taken band by band into slices of the
    matrix, from the image's frame shifted to the band's first position.
    """
    p, k, s = spec.padding, spec.kernel, spec.stride
    b, c, h, w = x.shape
    oh, ow = spec.out_size(h), spec.out_size(w)
    hp, wp = h + 2 * p, w + 2 * p
    frame = np.zeros((b, c, hp, wp), dtype=np.float64)
    frame[:, :, p:p + h, p:p + w] = x
    frame = frame.reshape(b, c * hp * wp)

    # a band is whole output rows, or part of one row when a row is too long
    taps = c * k * k
    per_band = max(1, BAND // taps)
    rows, cols = min(oh, max(1, per_band // ow)), min(ow, per_band)
    tap_off = (np.arange(c).reshape(-1, 1, 1) * (hp * wp)
               + np.arange(k).reshape(-1, 1) * wp + np.arange(k)).reshape(-1)
    # one output row's offsets, then the band's rows: long inner loops
    row_off = (np.arange(cols).reshape(-1, 1) * s + tap_off).reshape(-1)
    index = (np.arange(rows).reshape(-1, 1) * (s * wp) + row_off).reshape(
        -1, taps)
    out = np.empty((b * oh * ow, taps), dtype=np.float64)
    # mode="clip" writes straight into `out`; the default mode buffers it
    if rows * cols == oh * ow:
        np.take(frame, index, axis=1, mode="clip",
                out=out.reshape(b, oh * ow, taps))
        return out
    for i in range(b):
        for oy in range(0, oh, rows):
            for ox in range(0, ow, cols):
                n = min(rows, oh - oy) * min(cols, ow - ox)
                r = (i * oh + oy) * ow + ox
                np.take(frame[i, (oy * wp + ox) * s:], index[:n],
                        mode="clip", out=out[r:r + n])
    return out


def conv_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray,
                 spec: ConvSpec):
    """Cross-correlate `x` (B,C,H,W) with `weights` (O,C,K,K) plus bias.

    Returns (output, ConvCache for `conv_backward`); output spatial dims
    follow `conv_out_size`.
    """
    if x.ndim != 4:
        raise ShapeError(f"conv input must be 4-d NCHW, got shape {x.shape}")
    b, c, h, w = x.shape
    o, cw, kh, kw = weights.shape
    if (o, kh, kw) != (spec.out_channels, spec.kernel, spec.kernel):
        raise ShapeError(
            f"weights shaped {weights.shape} do not match spec "
            f"{spec.out_channels}x{spec.kernel}x{spec.kernel}")
    if c != cw:
        raise ShapeError(f"conv input has {c} channels but weights expect {cw}")
    if bias.shape != (o,):
        raise ShapeError(f"bias shaped {bias.shape}, expected ({o},)")
    if h + 2 * spec.padding < spec.kernel or w + 2 * spec.padding < spec.kernel:
        raise ShapeError(
            f"padded input {h + 2 * spec.padding}x{w + 2 * spec.padding} is "
            f"smaller than the {spec.kernel}x{spec.kernel} kernel")

    cols = _im2col(x, spec)
    prod = cols @ weights.reshape(o, -1).T.astype(np.float64, copy=False)
    oh, ow = spec.out_size(h), spec.out_size(w)
    # the float64 product is rounded once into NCHW memory order, then the
    # bias is added in x's dtype; channel-last order would make every later
    # elementwise op mix layouts. The transposing cast reads the product at
    # a stride of O float64s, so an image larger than a band goes by bands
    # of output rows: 12.9 -> 6.9 ms at zf5 conv1, B = 2, 224 px
    res = np.empty((b, o, oh, ow), dtype=x.dtype)
    nchw = prod.reshape(b, oh, ow, o).transpose(0, 3, 1, 2)
    if oh * ow * o <= BAND:
        res[...] = nchw
    else:
        rows = max(1, BAND // (ow * o))
        for i in range(b):
            for r in range(0, oh, rows):
                res[i, :, r:r + rows] = nchw[i, :, r:r + rows]
    res += bias.reshape(1, o, 1, 1).astype(x.dtype, copy=False)
    return res, ConvCache(cols, x.shape, x.dtype)


def conv_backward(grad_out: np.ndarray, cache: ConvCache,
                  weights: np.ndarray, spec: ConvSpec, input_grad: bool):
    """Gradients of conv_forward w.r.t. input, weights, and bias.

    `cache` is the `ConvCache` of the forward pass, whose patch matrix gives
    the weight gradient; `grad_out` must match the forward output shape. The
    input gradient is computed only when `input_grad` is set; otherwise None
    stands in its place. It is a K*K loop, taps in row-major order, of one
    float64 product each of the (B*OH*OW, O) gradient matrix and the tap's
    (O, C) weights, added into a strided slice of a (B, H+2p, W+2p, C)
    buffer; the crop is cast once into C-contiguous (B,C,H,W).
    """
    if not isinstance(cache, ConvCache):
        raise ShapeError("conv_backward requires the ConvCache saved by "
                         "conv_forward")
    b, c, h, w = cache.shape
    o = weights.shape[0]
    p, k, s = spec.padding, spec.kernel, spec.stride
    oh = spec.out_size(h)
    ow = spec.out_size(w)
    if grad_out.shape != (b, o, oh, ow):
        raise ShapeError(
            f"grad_out shaped {grad_out.shape}, expected {(b, o, oh, ow)}")

    grad_bias = grad_out.astype(np.float64, copy=False).sum(
        axis=(0, 2, 3)).astype(cache.dtype)
    # one casting copy, after the bias's float64 NCHW copy is freed
    gmat = grad_out.transpose(0, 2, 3, 1).astype(np.float64, order="C")
    gmat = gmat.reshape(-1, o)
    grad_weights = (gmat.T @ cache.cols).reshape(o, c, k, k).astype(
        weights.dtype)
    if not input_grad:
        return None, grad_weights, grad_bias

    # channel-last, so each tap's (B*OH*OW, C) product adds in without a
    # transpose; every element sums its taps in the same order as NCHW would
    gxp = np.zeros((b, h + 2 * p, w + 2 * p, c), dtype=np.float64)
    w64 = weights.astype(np.float64, copy=False)
    for dy in range(k):
        for dx in range(k):
            t = np.dot(gmat, w64[:, :, dy, dx])
            gxp[:, dy:dy + s * oh:s, dx:dx + s * ow:s] += t.reshape(b, oh, ow, c)
    grad_input = gxp[:, p:p + h, p:p + w].transpose(0, 3, 1, 2).astype(
        cache.dtype, order="C")
    return grad_input, grad_weights, grad_bias


def _pool_taps(x: np.ndarray, window, stride, padding):
    """Strided views of the -inf-padded (B,C,H,W) input, one per window cell
    in row-major order: tap t holds cell t of every output's window."""
    wh, ww = window
    sh, sw = stride
    ph, pw = padding
    if wh < 1 or ww < 1:
        raise ShapeError(f"pool window must be positive, got {window}")
    if min(sh, sw) < 1:
        raise ShapeError(f"pool stride must be positive, got {stride}")
    if wh <= ph or ww <= pw:
        raise ShapeError(f"pool window {window} must exceed padding {padding}")
    _, _, h, w = x.shape
    if h + 2 * ph < wh or w + 2 * pw < ww:
        raise ShapeError(
            f"pool window {window} does not fit padded input "
            f"{h + 2 * ph}x{w + 2 * pw}")

    xp = _padded(x, padding, -np.inf)
    oh = conv_out_size(h, wh, sh, ph)
    ow = conv_out_size(w, ww, sw, pw)
    return [xp[:, :, dy:dy + sh * (oh - 1) + 1:sh, dx:dx + sw * (ow - 1) + 1:sw]
            for dy in range(wh) for dx in range(ww)]


def _max_of(taps) -> np.ndarray:
    out = taps[0].copy()
    for tap in taps[1:]:
        np.maximum(out, tap, out=out)
    return out


def maxpool_values(x: np.ndarray, window, stride, padding=(0, 0)) -> np.ndarray:
    """Eval-mode max pool: the values of `maxpool_forward`, with no argmax."""
    return _max_of(_pool_taps(x, window, stride, padding))


def maxpool_forward(x: np.ndarray, window, stride, padding=(0, 0)):
    """Max pool (B,C,H,W) over `window`=(wh,ww) at `stride`=(sh,sw).

    Returns the pooled map and an argmax map of flat row*W+col indices into the
    unpadded input plane; ties go to the first cell in row-major order. Padded
    border cells are -inf: they win only a window whose every cell is -inf.
    """
    taps = _pool_taps(x, window, stride, padding)
    out = _max_of(taps)
    # scanning the taps last to first leaves each output the first cell
    # that holds its max; a NaN output equals no tap and keeps cell 0.
    # No masked stores: in the smallest index dtype, eq = -(tap == out) is
    # 0 or all ones, and local ^= (local ^ t) & eq sets local to t where set
    dt = np.min_scalar_type(len(taps) - 1)
    local = np.zeros(out.shape, dtype=dt)
    eq = np.empty(out.shape, dtype=dt)
    sel = np.empty(out.shape, dtype=dt)
    for t in range(len(taps) - 1, -1, -1):
        np.equal(taps[t], out, out=eq)
        np.negative(eq, out=eq)
        np.bitwise_xor(local, dt.type(t), out=sel)
        sel &= eq
        local ^= sel

    # flat index = window origin of the output cell + offset of its tap
    (_, ww), (sh, sw), (ph, pw) = window, stride, padding
    w = x.shape[3]
    off = np.array([(t // ww) * w + t % ww for t in range(len(taps))],
                   dtype=np.intp)
    oy = np.arange(out.shape[2]).reshape(-1, 1) * sh - ph
    ox = np.arange(out.shape[3]) * sw - pw
    return out, (oy * w + ox) + off.take(local)


def scatter_to_argmax(grad_out: np.ndarray, argmax: np.ndarray, shape,
                      lead: int, grad_name: str, block_name: str, cause: str):
    """Adjoint of a max pool of an input of `shape`, whose first `lead` dims
    number the blocks argmax indexes flat into; the names and the likely
    `cause` of an index outside a block word the errors."""
    if grad_out.shape != argmax.shape:
        raise ShapeError(f"{grad_name} {grad_out.shape} does not match "
                         f"argmax map {argmax.shape}")
    size = math.prod(shape[lead:])
    if argmax.size and (argmax.min() < 0 or argmax.max() >= size):
        raise ShapeError(f"argmax map indexes outside {block_name}; {cause}")
    # bincount adds in element order, from 0.0, in float64
    base = np.arange(math.prod(shape[:lead])).reshape(
        *shape[:lead], *[1] * (argmax.ndim - lead)) * size
    grad = np.bincount((base + argmax).ravel(), weights=grad_out.ravel(),
                       minlength=math.prod(shape))
    return grad.reshape(shape).astype(grad_out.dtype)


def maxpool_backward(grad_out: np.ndarray, argmax: np.ndarray, input_shape):
    """Route `grad_out` to the argmax cells; overlapping windows accumulate."""
    _, _, h, w = input_shape
    return scatter_to_argmax(
        grad_out, argmax, input_shape, 2, "grad_out", f"a {h}x{w} plane",
        "stale map, or a window whose every cell is -inf, which takes a "
        "padding cell?")


def fc_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """x (B,D) @ weights (O,D).T + bias (O,)."""
    if x.ndim != 2:
        raise ShapeError(f"fc input must be (batch, features), got {x.shape}")
    if weights.shape[1] != x.shape[1]:
        raise ShapeError(
            f"fc input has {x.shape[1]} features but weights expect "
            f"{weights.shape[1]}")
    out = _acc_matmul(x, weights.T, x.dtype)
    return out + bias.astype(x.dtype, copy=False)


def fc_backward(grad_out: np.ndarray, saved_input: np.ndarray,
                weights: np.ndarray, input_grad: bool):
    """Gradients of fc_forward w.r.t. input (None unless `input_grad`),
    weights, and bias."""
    if grad_out.shape != (saved_input.shape[0], weights.shape[0]):
        raise ShapeError(
            f"fc grad_out shaped {grad_out.shape}, expected "
            f"{(saved_input.shape[0], weights.shape[0])}")
    grad_input = (_acc_matmul(grad_out, weights, saved_input.dtype)
                  if input_grad else None)
    grad_weights = _acc_matmul(grad_out.T, saved_input, weights.dtype)
    grad_bias = grad_out.astype(np.float64).sum(axis=0).astype(weights.dtype)
    return grad_input, grad_weights, grad_bias


def relu_forward(x: np.ndarray):
    return np.maximum(x, 0), x > 0


def relu_backward(grad_out: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return grad_out * mask


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax; each output row is non-negative and sums to one."""
    z = logits.astype(np.float64, copy=False)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    return p.astype(logits.dtype, copy=False)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch and its gradient w.r.t. logits."""
    if logits.ndim != 2:
        raise ShapeError(f"logits must be (batch, classes), got {logits.shape}")
    b, n = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (b,):
        raise ShapeError(f"labels shaped {labels.shape}, expected ({b},)")
    if labels.size and (labels.min() < 0 or labels.max() >= n):
        raise ShapeError(
            f"label out of range [0, {n}): got {labels.min()}..{labels.max()}")
    z = logits.astype(np.float64, copy=False)
    z = z - z.max(axis=1, keepdims=True)
    logsum = np.log(np.exp(z).sum(axis=1))
    loss = float((logsum - z[np.arange(b), labels]).mean())
    p = np.exp(z - logsum[:, None])
    p[np.arange(b), labels] -= 1.0
    return loss, (p / b).astype(logits.dtype, copy=False)


def dropout(x: np.ndarray, rate: float, train_mode: bool,
            rng: np.random.Generator):
    """Inverted dropout: kept units are scaled by 1/(1-rate) at train time so
    eval mode is the identity. Returns (output, mask); mask is None in eval."""
    if not 0.0 <= rate < 1.0:
        raise ShapeError(f"dropout rate must be in [0, 1), got {rate}")
    if not train_mode or rate == 0.0:
        return x, None
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    mask = mask.astype(x.dtype)
    return x * mask, mask


def dropout_backward(grad_out: np.ndarray, mask) -> np.ndarray:
    return grad_out if mask is None else grad_out * mask
