"""SGD training loops: single-size baseline, epoch-alternating multi-size
training on one shared parameter store, and the uniform-random size variant;
each step is one momentum update of every slot of the store (`sgd_step`).

Learning rate starts at the configured value and is divided by 10 (at most
twice) when eval accuracy plateaus: improvement below 0.2 points over 3
consecutive epochs. Training batches are mirrored with probability 1/2.

Each image is resized once per size. Within one `train` call, an epoch at
size s reads its batches from an (N, C, s, s) float32 stack of
`preprocess(resize_square(pixels, s))` over the training set, built with one
resize call per source shape (per RESIZE_BLOCK source values, which bounds
the resize's float64 intermediates), and a batch is a gather of its rows
with the chosen ones mirrored (mirroring commutes with the elementwise
`preprocess`). A stack is kept while its size is one of the last
STACKS_KEPT sizes used, which covers `alternate`'s period; the eval set gets
one stack at the eval size, built once. They take at most
2·N·C·s_max²·4 bytes for training plus N_eval·C·e²·4 bytes for eval, and
are dropped when `train` returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dataio, tensor
from .errors import GraphError, ShapeError, TrainingDivergedError
from .geometry import resize_image
from .net import FC, NetworkSpec, ParameterStore, instantiate

LR_DECAY_FACTOR = 0.1
PLATEAU_PATIENCE = 3           # stale epochs before a decay
PLATEAU_MIN_IMPROVE = 0.002    # 0.2 accuracy points
MAX_DECAYS = 2
STACKS_KEPT = 2                # training input stacks kept, newest sizes
RESIZE_BLOCK = 1 << 18         # source values resized per call, per shape


@dataclass
class TrainConfig:
    lr: float = 0.01
    momentum: float = 0.9
    batch_size: int = 32
    epochs: int = 10
    schedule: str = "single"          # single | alternate | random
    sizes: tuple[int, ...] = (224,)   # alternate: (s1, s2); random: (lo, hi)
    eval_size: int | None = None      # None -> sizes[0]
    seed: int = 0

    def __post_init__(self):
        """Reject a bad value; each message opens with the field's name."""
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(
                f"lr (learning rate) must be positive and finite, got {self.lr}")
        if not (np.isfinite(self.momentum) and 0 <= self.momentum < 1):
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.schedule not in ("single", "alternate", "random"):
            raise ValueError(f"schedule must be single, alternate or random, "
                             f"got {self.schedule!r}")
        self.sizes = tuple(int(s) for s in self.sizes)
        if not self.sizes or min(self.sizes) < 1:
            raise ValueError(f"sizes must be positive, got {self.sizes}")
        for name in ("batch_size", "epochs", "eval_size"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive, got {value}")


@dataclass
class EpochReport:
    epoch: int
    size: int
    loss: float
    accuracy: float

    def line(self) -> str:
        return f"{self.epoch},{self.size},{self.loss:.6f},{self.accuracy:.6f}"


def multi_size_schedule(config: TrainConfig):
    """Per-epoch input sizes: constant, two-size alternation, or one uniform
    draw from [lo, hi] per epoch (seeded)."""
    if config.schedule == "single":
        for _ in range(config.epochs):
            yield config.sizes[0]
    elif config.schedule == "alternate":
        for e in range(config.epochs):
            yield config.sizes[e % len(config.sizes)]
    else:
        lo, hi = min(config.sizes), max(config.sizes)
        rng = np.random.default_rng(config.seed)
        for _ in range(config.epochs):
            yield int(rng.integers(lo, hi + 1))


def sgd_step(params: ParameterStore, lr: float, momentum: float):
    """Classic momentum update of every slot; clears their gradients. Aborts
    on a non-finite gradient, naming its slot, before that slot changes."""
    for name, slot in params.items():
        if not np.isfinite(slot.grad).all():
            raise TrainingDivergedError(
                f"non-finite gradient in slot {name!r}; aborting")
        slot.momentum *= momentum
        slot.momentum -= lr * slot.grad
        slot.value += slot.momentum
        slot.grad[...] = 0.0


def resize_square(pixels: np.ndarray, s: int) -> np.ndarray:
    """Resize so the min side is s, then center-crop to s x s."""
    out = resize_image(pixels, s)
    _, h, w = out.shape
    y0 = (h - s) // 2
    x0 = (w - s) // 2
    return out[:, y0:y0 + s, x0:x0 + s]


def checked_labels(spec: NetworkSpec, labels, name: str) -> np.ndarray:
    """The (N,) int64 `labels` of the `name` set; a label outside
    [0, n_classes) of the network's last fc layer raises ShapeError naming
    the set and the sample's index."""
    fc = [layer for layer in spec.layers if isinstance(layer, FC)]
    if not fc:
        raise GraphError("network has no fc layer to classify with")
    n_classes = fc[-1].out_features
    for i, label in enumerate(labels):
        if not 0 <= label < n_classes:
            raise ShapeError(f"{name} sample {i} has label {label}, outside "
                             f"[0, {n_classes})")
    return np.array(labels, dtype=np.int64)


def _checked_labels(spec: NetworkSpec, dataset, name: str) -> np.ndarray:
    """`checked_labels` of `dataset`; then a sample whose channel count is
    not the network's raises ShapeError naming the set and its index."""
    labels = checked_labels(spec, [label for _, label in dataset], name)
    for i, (pixels, _) in enumerate(dataset):
        shape = np.shape(pixels)
        if len(shape) != 3 or shape[0] != spec.in_channels:
            raise ShapeError(
                f"{name} sample {i} is shaped {shape}; the network expects "
                f"{spec.in_channels} channel(s) as (c, h, w)")
    return labels


def _square_inputs(dataset, size: int) -> np.ndarray:
    """(N, C, size, size) float32 network inputs of the samples, unmirrored:
    row i is preprocess(resize_square(pixels_i, size)). Samples of one
    shape and dtype are resized together, in (n*C, H, W) stacks of at most
    RESIZE_BLOCK source values, or of one sample when it is larger."""
    c = dataset[0][0].shape[0]
    xs = np.empty((len(dataset), c, size, size), dtype=np.float32)
    groups: dict[tuple, list] = {}
    for row, (pixels, _) in enumerate(dataset):
        groups.setdefault((pixels.shape, pixels.dtype), []).append(row)
    for (shape, _), rows in groups.items():
        step = max(1, RESIZE_BLOCK // math.prod(shape))
        for start in range(0, len(rows), step):
            block = rows[start:start + step]
            stack = np.concatenate([dataset[row][0] for row in block])
            xs[block] = dataio.preprocess(resize_square(stack, size)).reshape(
                len(block), c, size, size)
    return xs


def evaluate(spec: NetworkSpec, params: ParameterStore, inputs: np.ndarray,
             labels: np.ndarray, config: TrainConfig) -> float:
    """Top-1 accuracy on `inputs`, an (N, C, s, s) stack of square center
    views as `train` builds once per call, against the (N,) `labels`."""
    if not len(inputs):
        return float("nan")
    size = inputs.shape[-1]
    instance = instantiate(spec, (size, size), params)
    correct = 0
    bs = config.batch_size
    for start in range(0, len(inputs), bs):
        logits, _ = instance.forward(inputs[start:start + bs],
                                     train_mode=False)
        correct += int((logits.argmax(axis=1)
                        == labels[start:start + bs]).sum())
    return correct / len(inputs)


class _PlateauDecay:
    """Multiply lr by LR_DECAY_FACTOR when the best metric stalls for
    PLATEAU_PATIENCE epochs; fires at most MAX_DECAYS times."""

    def __init__(self, config: TrainConfig):
        self.lr = config.lr
        self.best = -np.inf
        self.stale = 0
        self.decays = 0

    def update(self, metric: float) -> float:
        if metric >= self.best + PLATEAU_MIN_IMPROVE:
            self.best = metric
            self.stale = 0
        else:
            self.stale += 1
            if self.stale >= PLATEAU_PATIENCE and self.decays < MAX_DECAYS:
                self.lr *= LR_DECAY_FACTOR
                self.decays += 1
                self.stale = 0
        return self.lr


def train(spec: NetworkSpec, dataset, config: TrainConfig, eval_set=None,
          on_epoch_end=None):
    """Run the configured schedule over `dataset` ((c,h,w) float32, label)
    pairs from a fresh store seeded by `config.seed`; returns
    (ParameterStore, [EpochReport]).

    Every epoch instantiates the network at that epoch's size against the
    same store, so all sizes train the same parameters. Plateau detection uses
    eval accuracy when an eval set is given, otherwise the (negated) training
    loss.

    Every training and eval sample is checked before the first step (see
    `_checked_labels`). Each epoch's batches are gathered from the stack of
    its size, built once and kept while the size is one of the last
    STACKS_KEPT used; the eval set's stack is built once (module docstring).
    """
    if not dataset:
        raise ValueError("training dataset is empty")
    labels = _checked_labels(spec, dataset, "training")
    if eval_set:
        eval_labels = _checked_labels(spec, eval_set, "eval")
        eval_inputs = _square_inputs(eval_set,
                                     config.eval_size or config.sizes[0])
    params = ParameterStore(seed=config.seed)
    rng = np.random.default_rng(config.seed + 1)
    decay = _PlateauDecay(config)
    stacks = {}                         # size -> stack, least recent first
    reports = []
    for epoch, size in enumerate(multi_size_schedule(config)):
        stack = stacks.pop(size, None)
        if stack is None:
            if len(stacks) == STACKS_KEPT:
                del stacks[next(iter(stacks))]
            stack = _square_inputs(dataset, size)
        stacks[size] = stack
        instance = instantiate(spec, (size, size), params)
        order = rng.permutation(len(dataset))
        losses = []
        for start in range(0, len(order), config.batch_size):
            idx = order[start:start + config.batch_size]
            xs = stack[idx]
            flip = rng.random(len(idx)) < 0.5   # one draw per row, in order
            xs[flip] = xs[flip, :, :, ::-1]
            ys = labels[idx]
            logits, saved = instance.forward(xs, train_mode=True, rng=rng)
            loss, grad = tensor.softmax_cross_entropy(logits, ys)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"loss became {loss} at epoch {epoch}")
            instance.backward(saved, grad)
            sgd_step(params, decay.lr, config.momentum)
            losses.append(loss)
        mean_loss = float(np.mean(losses))
        acc = evaluate(spec, params, eval_inputs, eval_labels, config) \
            if eval_set else float("nan")
        reports.append(EpochReport(epoch, size, mean_loss, acc))
        decay.update(acc if eval_set else -mean_loss)
        if on_epoch_end is not None:
            on_epoch_end(reports[-1], params)
    return params, reports

