"""Independent numerical oracles shared by the test suite.

The gradient oracle is central finite differences evaluated in float64; it
never calls any backward-pass code, so analytic gradients are checked against
an implementation-independent estimate. The `oracle_*` training, inference
and detection code at the end holds the earlier implementations that the
current ones must match bit for bit.
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


def tied_relu(rng, shape, dtype=np.float32):
    """Half-integer values clipped at zero: many exact ties, zeros above all."""
    return np.maximum(np.round(rng.normal(size=shape) * 2.0) / 2.0,
                      0.0).astype(dtype)


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
    return inter / (a.width * a.height + b.width * b.height - inter)


def brute_force_iou(a, b):
    """Pixel-set IoU by literal set construction (small boxes only)."""
    cells_a = {(x, y) for x in range(a[0], a[2]) for y in range(a[1], a[3])}
    cells_b = {(x, y) for x in range(b[0], b[2]) for y in range(b[1], b[3])}
    union = cells_a | cells_b
    if not union:
        return 0.0
    return len(cells_a & cells_b) / len(union)


# ---------------------------------------------------------------------------
# Bilinear resizing as it was before it became separable: each output row
# pair gathers its two source rows, then their columns, once per row.
# ---------------------------------------------------------------------------

def oracle_resize_to(img, new_h, new_w):
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
    top = img64[:, y0][:, :, x0] * (1 - wx) + img64[:, y0][:, :, x1] * wx
    bot = img64[:, y1][:, :, x0] * (1 - wx) + img64[:, y1][:, :, x1] * wx
    out = top * (1 - wy) + bot * wy
    return out.astype(img.dtype, copy=False)


# ---------------------------------------------------------------------------
# The training kernels as they were before the patch matrix was cached and
# the scatters became bincounts: a float32 im2col converted to float64 in
# both passes, an input gradient for every layer from one `np.tensordot`
# per tap into an NCHW buffer, `np.add.at` scatters, and a per-bin gather
# for the pyramid. The current kernels must reproduce them bit for bit.
# ---------------------------------------------------------------------------

def _oracle_acc_matmul(a, b, out_dtype):
    r = a.astype(np.float64, copy=False) @ b.astype(np.float64, copy=False)
    return r.astype(out_dtype, copy=False)


def _oracle_im2col(xp, kernel, stride):
    from numpy.lib.stride_tricks import sliding_window_view
    win = sliding_window_view(xp, (kernel, kernel), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]  # (B,C,OH,OW,K,K)
    b, c, oh, ow, k, _ = win.shape
    return win.transpose(0, 2, 3, 1, 4, 5).reshape(b, oh, ow, c * k * k)


def oracle_conv_forward(x, weights, bias, spec):
    b, c, h, w = x.shape
    o = weights.shape[0]
    p = spec.padding
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    cols = _oracle_im2col(xp, spec.kernel, spec.stride)
    wmat = weights.reshape(o, -1)
    out = _oracle_acc_matmul(cols.reshape(-1, cols.shape[-1]), wmat.T, x.dtype)
    oh = spec.out_size(h)
    ow = spec.out_size(w)
    out = out.reshape(b, oh, ow, o).transpose(0, 3, 1, 2)
    return out + bias.reshape(1, o, 1, 1).astype(x.dtype, copy=False)


def oracle_conv_backward(grad_out, saved_input, weights, spec):
    b, c, h, w = saved_input.shape
    o = weights.shape[0]
    oh = spec.out_size(h)
    ow = spec.out_size(w)
    p, k, s = spec.padding, spec.kernel, spec.stride
    xp = np.pad(saved_input, ((0, 0), (0, 0), (p, p), (p, p))) if p else saved_input

    g64 = grad_out.astype(np.float64, copy=False)
    grad_bias = g64.sum(axis=(0, 2, 3)).astype(saved_input.dtype)

    cols = _oracle_im2col(xp, k, s).reshape(-1, c * k * k)
    gmat = g64.transpose(0, 2, 3, 1).reshape(-1, o)
    grad_weights = (gmat.T @ cols.astype(np.float64, copy=False))
    grad_weights = grad_weights.reshape(o, c, k, k).astype(weights.dtype)

    gxp = np.zeros((b, c, h + 2 * p, w + 2 * p), dtype=np.float64)
    w64 = weights.astype(np.float64, copy=False)
    for dy in range(k):
        for dx in range(k):
            t = np.tensordot(g64, w64[:, :, dy, dx], axes=([1], [0]))
            gxp[:, :, dy:dy + s * oh:s, dx:dx + s * ow:s] += t.transpose(0, 3, 1, 2)
    grad_input = gxp[:, :, p:p + h, p:p + w].astype(saved_input.dtype)
    return grad_input, grad_weights, grad_bias


def oracle_maxpool_backward(grad_out, argmax, input_shape):
    b, c, h, w = input_shape
    grad = np.zeros((b, c, h * w), dtype=np.float64)
    bi = np.arange(b).reshape(b, 1, 1, 1)
    ci = np.arange(c).reshape(1, c, 1, 1)
    np.add.at(grad, (bi, ci, argmax), grad_out.astype(np.float64, copy=False))
    return grad.reshape(b, c, h, w).astype(grad_out.dtype)


def oracle_spp_forward_batch(x, levels):
    """The parent's `spp_forward_batch` before its argmax became one gather:
    per bin, an argmax, a `take_along_axis` and the flat index arithmetic,
    with `_bounds` inlined and the argument checks left out."""
    b, k, h, w = x.shape
    m = sum(n * n for n in levels)
    out = np.empty((b, m, k), dtype=x.dtype)
    argmax = np.empty((b, m, k), dtype=np.int64)
    chan_base = np.arange(k) * (h * w)
    t = 0
    for n in levels:
        cols = [(i * w // n, -(-(i + 1) * w // n)) for i in range(n)]
        for j in range(n):
            r0, r1 = j * h // n, -(-(j + 1) * h // n)
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


def oracle_spp_backward_batch(grad_out, argmax, featmap_shape):
    b, k, h, w = featmap_shape
    grad = np.zeros((b, k * h * w), dtype=np.float64)
    bi = np.arange(b)[:, None]
    np.add.at(grad, (bi, argmax), grad_out.astype(np.float64, copy=False))
    return grad.reshape(b, k, h, w).astype(grad_out.dtype)


def oracle_train_step(layers, x, slots, rng, grad_fn):
    """Train-mode forward and backward through `layers` with the kernels
    above: the conv cache is the raw input, and every layer's input gradient
    is computed. `grad_fn(logits)` gives the loss gradient; parameter
    gradients accumulate into `slots`. Returns the logits."""
    from pyrapool import net, tensor

    def conv_spec(layer):
        return tensor.ConvSpec(layer.out_channels, layer.kernel, layer.stride,
                               layer.padding)

    caches = []
    for layer in layers:
        if isinstance(layer, net.Conv):
            wslot, bslot = slots[layer.name]
            out = oracle_conv_forward(x, wslot.value, bslot.value,
                                      conv_spec(layer))
            cache = x
        elif isinstance(layer, net.MaxPool):
            out, argmax = tensor.maxpool_forward(
                x, (layer.window, layer.window), (layer.stride, layer.stride),
                (layer.padding, layer.padding))
            cache = (argmax, x.shape)
        elif isinstance(layer, net.SPP):
            out, argmax = oracle_spp_forward_batch(x, layer.levels)
            cache = (argmax, x.shape)
        elif isinstance(layer, net.FC):
            flat = x.reshape(x.shape[0], -1)
            wslot, bslot = slots[layer.name]
            out = tensor.fc_forward(flat, wslot.value, bslot.value)
            cache = (flat, x.shape)
        elif isinstance(layer, net.ReLU):
            out, cache = tensor.relu_forward(x)
        elif isinstance(layer, net.Dropout):
            out, cache = tensor.dropout(x, layer.rate, True, rng)
        else:  # softmax
            out, cache = x, None
        caches.append(cache)
        x = out

    grad = grad_fn(x)
    for layer, cache in zip(reversed(layers), reversed(caches)):
        if isinstance(layer, net.Conv):
            wslot, bslot = slots[layer.name]
            grad, gw, gb = oracle_conv_backward(grad, cache, wslot.value,
                                                conv_spec(layer))
            wslot.grad += gw
            bslot.grad += gb
        elif isinstance(layer, net.MaxPool):
            grad = oracle_maxpool_backward(grad, *cache)
        elif isinstance(layer, net.SPP):
            grad = oracle_spp_backward_batch(grad, *cache)
        elif isinstance(layer, net.FC):
            flat, in_shape = cache
            wslot, bslot = slots[layer.name]
            grad, gw, gb = tensor.fc_backward(grad, flat, wslot.value,
                                              input_grad=True)
            wslot.grad += gw
            bslot.grad += gb
            grad = grad.reshape(in_shape)
        elif isinstance(layer, net.ReLU):
            grad = tensor.relu_backward(grad, cache)
        elif isinstance(layer, net.Dropout):
            grad = tensor.dropout_backward(grad, cache)
    return x


# ---------------------------------------------------------------------------
# The training loop as it was before the per-size input stacks: every batch
# resizes, mirrors and preprocesses its images again, and every eval pass
# rebuilds the eval batches. `training.train` must give the same checkpoint
# bytes and epoch reports.
# ---------------------------------------------------------------------------

def oracle_make_batch(dataset, indices, size, rng):
    """Square `size` inputs of the indexed samples, each mirrored with
    probability 1/2 when `rng` is given (training), never when it is None."""
    from pyrapool import dataio
    from pyrapool.training import resize_square
    xs = np.empty((len(indices), dataset[0][0].shape[0], size, size),
                  dtype=np.float32)
    ys = np.empty(len(indices), dtype=np.int64)
    for row, i in enumerate(indices):
        pixels, label = dataset[i]
        img = resize_square(pixels, size)
        if rng is not None and rng.random() < 0.5:
            img = img[:, :, ::-1]
        xs[row] = dataio.preprocess(img)
        ys[row] = label
    return xs, ys


def oracle_evaluate(spec, params, dataset, size, config):
    """Top-1 accuracy at a square center view of the given size."""
    from pyrapool.net import instantiate
    if not dataset:
        return float("nan")
    instance = instantiate(spec, (size, size), params)
    correct = 0
    bs = config.batch_size
    for start in range(0, len(dataset), bs):
        idx = range(start, min(start + bs, len(dataset)))
        xs, ys = oracle_make_batch(dataset, idx, size, rng=None)
        logits, _ = instance.forward(xs, train_mode=False)
        correct += int((logits.argmax(axis=1) == ys).sum())
    return correct / len(dataset)


def oracle_train(spec, dataset, config, eval_set=None, on_epoch_end=None):
    """Run the configured schedule over `dataset` ((c,h,w) float32, label)
    pairs from a fresh store seeded by `config.seed`; returns
    (ParameterStore, [EpochReport])."""
    from pyrapool import tensor
    from pyrapool.errors import TrainingDivergedError
    from pyrapool.net import ParameterStore, instantiate
    from pyrapool.training import (EpochReport, _PlateauDecay,
                                   multi_size_schedule, sgd_step)
    if not dataset:
        raise ValueError("training dataset is empty")
    params = ParameterStore(seed=config.seed)
    rng = np.random.default_rng(config.seed + 1)
    decay = _PlateauDecay(config)
    eval_size = config.eval_size or config.sizes[0]
    reports = []
    for epoch, size in enumerate(multi_size_schedule(config)):
        instance = instantiate(spec, (size, size), params)
        order = rng.permutation(len(dataset))
        losses = []
        for start in range(0, len(order), config.batch_size):
            idx = order[start:start + config.batch_size]
            xs, ys = oracle_make_batch(dataset, idx, size, rng)
            logits, saved = instance.forward(xs, train_mode=True, rng=rng)
            loss, grad = tensor.softmax_cross_entropy(logits, ys)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"loss became {loss} at epoch {epoch}")
            instance.backward(saved, grad)
            sgd_step(params, decay.lr, config.momentum)
            losses.append(loss)
        mean_loss = float(np.mean(losses))
        acc = oracle_evaluate(spec, params, eval_set, eval_size, config) \
            if eval_set else float("nan")
        reports.append(EpochReport(epoch, size, mean_loss, acc))
        decay.update(acc if eval_set else -mean_loss)
        if on_epoch_end is not None:
            on_epoch_end(reports[-1], params)
    return params, reports


# ---------------------------------------------------------------------------
# Train-mode max pooling as it was before the argmax became a per-tap offset
# table: a boolean-mask store per tap, then row and column arithmetic over
# the whole map. `tensor.maxpool_forward` must return the same bytes.
# ---------------------------------------------------------------------------

def oracle_maxpool_forward(x, window, stride, padding=(0, 0)):
    """The parent's `maxpool_forward`, with its `_pool_taps` and `_max_of`
    inlined and the argument checks left out."""
    wh, ww = window
    sh, sw = stride
    ph, pw = padding
    _, _, h, w = x.shape
    if ph or pw:
        xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)),
                    constant_values=-np.inf)
    else:
        xp = x
    oh = (h + 2 * ph - wh) // sh + 1
    ow = (w + 2 * pw - ww) // sw + 1
    taps = [xp[:, :, dy:dy + sh * (oh - 1) + 1:sh, dx:dx + sw * (ow - 1) + 1:sw]
            for dy in range(wh) for dx in range(ww)]
    out = taps[0].copy()
    for tap in taps[1:]:
        np.maximum(out, tap, out=out)
    local = np.zeros(out.shape, dtype=np.int64)
    for t in range(len(taps) - 1, -1, -1):
        local[taps[t] == out] = t

    oy = np.arange(oh).reshape(1, 1, oh, 1)
    ox = np.arange(ow).reshape(1, 1, 1, ow)
    row = oy * sh + local // ww - ph
    col = ox * sw + local % ww - pw
    return out, row * x.shape[3] + col


# ---------------------------------------------------------------------------
# The SVM fit before safe screening: one full margin product per epoch.
# `detection._fit_hinge` must return the same bytes.
# ---------------------------------------------------------------------------

def oracle_fit_hinge(x, y, c, epochs, lr, w=None, b=0.0):
    """The parent's `_fit_hinge`, verbatim but for its name."""
    from pyrapool.detection import SVM_REG
    n, d = x.shape
    if w is None:
        w = np.zeros(d, dtype=np.float64)
    x64 = x.astype(np.float64)
    y64 = y.astype(np.float64)
    for t in range(epochs):
        margins = y64 * (x64 @ w + b)
        viol = margins < 1.0
        step = lr / (1.0 + 0.02 * t)
        gw = SVM_REG * w
        gb = 0.0
        if viol.any():
            gw = gw - c * (y64[viol] @ x64[viol]) / n
            gb = -c * y64[viol].sum() / n
        w = w - step * gw
        b = b - step * gb
    return w, b


# ---------------------------------------------------------------------------
# Detection windows as they were before they travelled as arrays: each
# window clamped, scaled and projected on its own, a `Detection` for every
# proposal of every class, and one bbox regression per survivor. The array
# path must give the same features, errors and detections.
# ---------------------------------------------------------------------------

def oracle_extract_many(extractor, image_id, pixels, windows):
    """The parent's `RegionFeatureExtractor.extract_many`, with `self` named
    `extractor`."""
    from pyrapool.errors import ShapeError
    from pyrapool.geometry import map_window, select_scale
    from pyrapool.spp import pool_rects
    if not windows:
        return np.empty((0, extractor.feature_length), np.float32)
    entry = extractor.prepare(image_id, pixels)
    img_w, img_h = entry["size"]
    by_scale = {}
    for row, window in enumerate(windows):
        if (window.x0 >= img_w or window.y0 >= img_h
                or window.x1 <= 0 or window.y1 <= 0):
            raise ShapeError(f"proposal {window} of image {image_id} "
                             f"lies outside {img_w}x{img_h}")
        win = window.clamped(img_w, img_h)
        s = select_scale(win, (img_w, img_h), extractor.scales, extractor.view)
        featmap, (rw, rh) = entry["maps"][s]
        scaled = win.scaled(s / min(img_w, img_h)).clamped(rw, rh)
        r = map_window(scaled, extractor.stride, featmap.shape[1:])
        rows, rects = by_scale.setdefault(s, ([], []))
        rows.append(row)
        rects.append((0, r.fx0, r.fy0, r.fx1, r.fy1))
    feats = np.empty((len(windows), extractor.feature_length), np.float32)
    for s, (rows, rects) in by_scale.items():
        feats[rows] = pool_rects([entry["maps"][s][0]], rects,
                                 extractor.pyramid)
    return feats


def oracle_bbox_apply(regressor, feature, window, image_size):
    """The parent's `BBoxRegressor.apply`, with `self` named `regressor`."""
    from pyrapool.geometry import WindowRect
    if not regressor.enabled:
        return window
    aug = np.concatenate([feature.astype(np.float64), [1.0]])
    tx, ty, tw, th = aug @ regressor.weights
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


def oracle_apply_rows(regressor, features, windows, image_size):
    """`BBoxRegressor.apply_rows` as it was with one `row @ weights` product
    per row in a list, with `self` named `regressor`."""
    from pyrapool.errors import ShapeError
    from pyrapool.geometry import WindowRect
    if not regressor.enabled:
        return windows
    aug = np.concatenate([features.astype(np.float64),
                          np.ones((len(features), 1))], axis=1)
    tx, ty, tw, th = np.array([row @ regressor.weights for row in aug]
                              ).reshape(-1, 4).T
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
    img_w, img_h = image_size
    x0, y0, x1, y1 = np.round(np.clip(
        corners, 0, (img_w, img_h, img_w, img_h))).astype(np.int64).T
    x1 = np.maximum(x0 + 1, x1)
    y1 = np.maximum(y0 + 1, y1)
    return np.stack([np.maximum(0, np.minimum(x0, img_w - 1)),
                     np.maximum(0, np.minimum(y0, img_h - 1)),
                     np.maximum(1, np.minimum(x1, img_w)),
                     np.maximum(1, np.minimum(y1, img_h))], axis=1)


def oracle_ridge_system(features, targets, ridge_lambda=1.0):
    """The ridge normal equations as `bbox_regress_train` formed them: the
    Gram matrix plus a penalty matrix built from `np.eye`."""
    x = np.asarray(features, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    aug = np.concatenate([x, np.ones((len(x), 1))], axis=1)
    penalty = ridge_lambda * np.eye(aug.shape[1])
    penalty[-1, -1] = 0.0
    return aug.T @ aug + penalty, aug.T @ t


def oracle_nms(detections, threshold=0.3):
    """The parent's `nms`, with its `_greedy_keep` inlined."""
    from pyrapool.geometry import iou_matrix
    order = sorted(range(len(detections)),
                   key=lambda i: (-detections[i].score, i))
    windows = [d.window for d in detections]
    overlaps = iou_matrix(windows, windows) > threshold
    suppressed = np.zeros(len(overlaps), dtype=bool)
    kept = []
    for i in order:
        if not suppressed[i]:
            kept.append(i)
            suppressed |= overlaps[i]
    return [detections[i] for i in kept]


def oracle_run_detector(extractor, model, images, proposals,
                        nms_threshold=0.3, apply_bbox=False):
    """The parent's `run_detector` over the oracles above."""
    from pyrapool.detection import BBoxRegressor, Detection
    out = []
    for image_id in sorted(images):
        pixels = images[image_id]
        props = proposals.get(image_id, [])
        feats = oracle_extract_many(extractor, image_id, pixels, props)
        row_of = dict(zip(props, feats))
        image_size = (pixels.shape[2], pixels.shape[1])
        for cls, svm in sorted(model.svms.items()):
            scores = svm.scores(feats)
            dets = [Detection(image_id, p, cls, float(s))
                    for p, s in zip(props, scores)]
            survivors = oracle_nms(dets, nms_threshold)
            if apply_bbox and model.regressors.get(cls, BBoxRegressor()).enabled:
                reg = model.regressors[cls]
                survivors = [Detection(
                    image_id, oracle_bbox_apply(reg, row_of[d.window],
                                                d.window, image_size),
                    cls, d.score)
                    for d in survivors]
            out.extend(survivors)
    return out


# ---------------------------------------------------------------------------
# Multi-view testing as it was before the flip pair shared a trunk pass: one
# resize, trunk pass, `pool_rects` call and head call per (scale, flip)
# group, each view projected on its own. The batched path must give the
# same rects and probabilities byte for byte.
# ---------------------------------------------------------------------------

def hflipped(window, image_w):
    """`window` mirrored left to right in an image `image_w` pixels wide."""
    from pyrapool.geometry import WindowRect
    return WindowRect(image_w - window.x1, window.y0, image_w - window.x0,
                      window.y1)


def view_to_feature_rect(window, resized_size, stride, map_size):
    """The scalar view projection `inference.project_views` replaced:
    `map_window` plus border snapping for edge-flush view windows."""
    from pyrapool.geometry import FeatureRect, map_window
    rw, rh = resized_size
    map_h, map_w = map_size
    r = map_window(window, stride, map_size)
    fx0 = 0 if window.x0 <= 0 else r.fx0
    fy0 = 0 if window.y0 <= 0 else r.fy0
    fx1 = map_w - 1 if window.x1 >= rw else r.fx1
    fy1 = map_h - 1 if window.y1 >= rh else r.fy1
    return FeatureRect(fx0, fy0, max(fx1, fx0), max(fy1, fy0))


def oracle_predict_views(spec, params, pixels, views):
    """The `predict_views` of before the flip pair shared a trunk pass,
    calling today's `network_input` with a one-flip sequence."""
    from pyrapool.errors import ShapeError
    from pyrapool.inference import network_input
    from pyrapool.spp import pool_rects
    from pyrapool.tensor import softmax
    if not views:
        raise ShapeError("view list is empty")
    stride = spec.trunk_geometry().stride
    pyramid = spec.pyramid()
    groups: dict[tuple, list] = {}
    for view in views:
        groups.setdefault((view.scale, view.flip), []).append(view)

    total = None
    for (s, flip), members in groups.items():
        inst, x = network_input(spec, params, pixels, s, (flip,))
        rh, rw = inst.input_size
        featmap = inst.conv_features(x)[0]
        rects = []
        for view in members:
            win = hflipped(view.window, rw) if flip else view.window
            r = view_to_feature_rect(win, (rw, rh), stride, featmap.shape[1:])
            rects.append((0, r.fx0, r.fy0, r.fx1, r.fy1))
        probs = softmax(inst.head_forward(pool_rects([featmap], rects,
                                                     pyramid)))
        # row by row, in view order: the float64 sum is the per-view one
        for row in probs:
            total = row.astype(np.float64) if total is None else total + row
    return total / len(views)
