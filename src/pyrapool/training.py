"""SGD training loops: single-size baseline, epoch-alternating multi-size
training on one shared parameter store, the uniform-random size variant, and
fc-only fine-tuning on pooled region features.

Learning rate starts at the configured value and is divided by 10 (at most
twice) when eval accuracy plateaus: improvement below 0.2 points over 3
consecutive epochs. Training batches are mirrored with probability 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dataio, tensor
from .errors import GraphError, TrainingDivergedError
from .geometry import resize_image
from .net import (FC, NetworkSpec, ParameterStore, Softmax, backward_layers,
                  forward_layers, instantiate)

LR_DECAY_FACTOR = 0.1
PLATEAU_PATIENCE = 3           # stale epochs before a decay
PLATEAU_MIN_IMPROVE = 0.002    # 0.2 accuracy points
MAX_DECAYS = 2


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
        if self.lr <= 0:
            raise ValueError(f"learning rate must be positive, got {self.lr}")
        if self.schedule not in ("single", "alternate", "random"):
            raise ValueError(f"unknown size schedule {self.schedule!r}")
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


def sgd_step(params: ParameterStore, lr: float, momentum: float,
             names=None):
    """Classic momentum update of the named slots (all when `names` is None);
    clears their gradients. Aborts on non-finite grads."""
    for name in params.names() if names is None else names:
        slot = params[name]
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


def _make_batch(dataset, indices, size, rng):
    """Square `size` inputs of the indexed samples, each mirrored with
    probability 1/2 when `rng` is given (training), never when it is None."""
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


def evaluate(spec: NetworkSpec, params: ParameterStore, dataset, size: int,
             config: TrainConfig) -> float:
    """Top-1 accuracy at a square center view of the given size."""
    if not dataset:
        return float("nan")
    instance = instantiate(spec, (size, size), params)
    correct = 0
    bs = config.batch_size
    for start in range(0, len(dataset), bs):
        idx = range(start, min(start + bs, len(dataset)))
        xs, ys = _make_batch(dataset, idx, size, rng=None)
        logits, _ = instance.forward(xs, train_mode=False)
        correct += int((logits.argmax(axis=1) == ys).sum())
    return correct / len(dataset)


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
          params: ParameterStore | None = None, on_epoch_end=None):
    """Run the configured schedule over `dataset` ((c,h,w) float32, label)
    pairs; returns (ParameterStore, [EpochReport]).

    Every epoch instantiates the network at that epoch's size against the
    same store, so all sizes train the same parameters. Plateau detection uses
    eval accuracy when an eval set is given, otherwise the (negated) training
    loss.
    """
    if not dataset:
        raise ValueError("training dataset is empty")
    if params is None:
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
            xs, ys = _make_batch(dataset, idx, size, rng)
            logits, saved = instance.forward(xs, train_mode=True, rng=rng)
            loss, grad = tensor.softmax_cross_entropy(logits, ys)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"loss became {loss} at epoch {epoch}")
            instance.backward(saved, grad)
            sgd_step(params, decay.lr, config.momentum)
            losses.append(loss)
        mean_loss = float(np.mean(losses))
        acc = evaluate(spec, params, eval_set, eval_size, config) \
            if eval_set else float("nan")
        reports.append(EpochReport(epoch, size, mean_loss, acc))
        decay.update(acc if eval_set else -mean_loss)
        if on_epoch_end is not None:
            on_epoch_end(reports[-1], params)
    return params, reports


# ---------------------------------------------------------------------------
# fc-only fine-tuning on pooled region features
# ---------------------------------------------------------------------------

FINETUNE_HEAD = "fc_det"           # name of the fresh output layer
FINETUNE_POSITIVE_FRACTION = 0.25  # positives per mini-batch
FINETUNE_LATE_FRACTION = 0.2       # tail of steps run at lr_late
FINETUNE_MOMENTUM = 0.9


@dataclass
class FinetuneConfig:
    n_classes: int                     # detection classes + background
    steps: int = 400
    batch_size: int = 32
    lr_initial: float = 1e-4
    lr_late: float = 1e-5
    sigma: float = 0.01                # init of the new output layer
    seed: int = 0


def _finetune_head(spec: NetworkSpec, params: ParameterStore,
                   config: FinetuneConfig):
    """The fc stack after the pyramid layer, with the final classifier layer
    replaced by a freshly initialized FINETUNE_HEAD layer (label 0 is
    background); returns (layers, name -> (weight, bias) slot map)."""
    head = [l for l in spec.head_layers() if not isinstance(l, Softmax)]
    fc_layers = [l for l in head if isinstance(l, FC)]
    if not fc_layers:
        raise GraphError("network head has no fc layer to fine-tune")
    for layer in fc_layers:
        if f"{layer.name}.weight" not in params:
            raise GraphError(f"slot {layer.name}.weight missing; fine-tune "
                             f"after pre-training")
    last_fc = fc_layers[-1]
    layers = head[:head.index(last_fc)]
    slots = {l.name: (params[f"{l.name}.weight"], params[f"{l.name}.bias"])
             for l in layers if isinstance(l, FC)}
    in_features = params[f"{last_fc.name}.weight"].value.shape[1]
    slots[FINETUNE_HEAD] = (
        params.reinit_slot(f"{FINETUNE_HEAD}.weight",
                           (config.n_classes, in_features), config.sigma),
        params.reinit_slot(f"{FINETUNE_HEAD}.bias", (config.n_classes,),
                           init="zeros"))
    layers.append(FC(config.n_classes, name=FINETUNE_HEAD))
    return layers, slots


def finetune_fc(params: ParameterStore, spec: NetworkSpec,
                features: np.ndarray, labels: np.ndarray,
                config: FinetuneConfig, on_batch=None):
    """Fine-tune the fc layers on fixed-length pooled region features.

    Labels: 0 = background, 1..n-1 = object classes. Each mini-batch holds
    FINETUNE_POSITIVE_FRACTION positives (label > 0). Conv slots are untouched and
    verified bit-identical before/after. Returns the fine-tuned head's
    scoring function: pooled (N, k*M) features -> eval-mode (N, n_classes)
    logits.
    """
    labels = np.asarray(labels)
    pos_idx = np.flatnonzero(labels > 0)
    neg_idx = np.flatnonzero(labels == 0)
    if len(pos_idx) == 0 or len(neg_idx) == 0:
        raise ValueError("need at least one positive and one negative sample")

    conv_before = {name: slot.value.copy() for name, slot in params.items()
                   if name.startswith("conv")}
    layers, slots = _finetune_head(spec, params, config)
    fc_names = [f"{name}.{suffix}" for name in slots
                for suffix in ("weight", "bias")]
    rng = np.random.default_rng(config.seed)
    n_pos = max(1, int(round(config.batch_size * FINETUNE_POSITIVE_FRACTION)))
    switch = int(config.steps * (1.0 - FINETUNE_LATE_FRACTION))
    for step in range(config.steps):
        lr = config.lr_initial if step < switch else config.lr_late
        pick_pos = rng.choice(pos_idx, size=n_pos, replace=True)
        pick_neg = rng.choice(neg_idx, size=config.batch_size - n_pos,
                              replace=True)
        idx = np.concatenate([pick_pos, pick_neg])
        rng.shuffle(idx)
        xb = features[idx].astype(np.float32)
        yb = labels[idx]
        logits, caches = forward_layers(layers, xb, slots, True, rng)
        loss, grad = tensor.softmax_cross_entropy(logits, yb)
        backward_layers(layers, caches, slots, grad)
        sgd_step(params, lr, FINETUNE_MOMENTUM, names=fc_names)
        if on_batch is not None:
            on_batch(step, yb, loss)
    for name, before in conv_before.items():
        if not np.array_equal(params[name].value, before):
            raise GraphError(f"conv slot {name!r} changed during fine-tuning")
    return lambda pooled: forward_layers(layers, pooled, slots)[0]
