"""Sequential network descriptions, the parameter store they share across
input-size instantiations, and forward/backward execution.

A `NetworkSpec` is an ordered chain of conv / maxpool / spp / fc / relu /
dropout / softmax layers. A layer is the spec its kernel runs with: `Conv`
is a `tensor.ConvSpec` and `SPP` an `spp.PyramidSpec`, each plus a name.
Instantiating a spec at a concrete input size resolves every feature-map
shape; all instantiations of one spec resolve their parameter slots to the
identical arrays in one `ParameterStore`, which is what makes multi-size
training a single model rather than several.

With a pyramid layer present, the pooled length k*M is independent of the
input size, so the fully-connected stack (and therefore the whole parameter
set) is size-agnostic.
"""

from __future__ import annotations

import dataclasses
import struct
import threading
from dataclasses import dataclass

import numpy as np

from . import dataio, tensor
from .errors import (CheckpointError, GraphError, ShapeError,
                     SpecMismatchError)
from .geometry import FeatureGeometry, GeomLayer
from .spp import (PyramidSpec, pool_maps, spp_backward_batch,
                  spp_forward_batch)


class ForwardStats:
    """Process-wide instrumentation: how many images the convolutional trunk
    has run, counting each map of a batch, so one pass over a (B,C,H,W)
    batch adds B.

    Multi-view prediction and region pooling are contractually bounded in
    trunk passes per image; tests and the bench read how far this counter
    moves over a call. Threads that share the process (the parallel
    `detect` workers) add to it under a lock.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.trunk_passes = 0

    def add(self, images: int):
        with self._lock:
            self.trunk_passes += images


stats = ForwardStats()


# ---------------------------------------------------------------------------
# layer descriptions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Conv(tensor.ConvSpec):
    """The `tensor.ConvSpec` a conv kernel runs with, plus a name. Padding
    None resolves to floor(kernel/2) when built, before the spec's checks."""

    padding: int | None = None
    name: str = ""

    def __post_init__(self):
        if self.padding is None:
            object.__setattr__(self, "padding", self.kernel // 2)
        super().__post_init__()


@dataclass(frozen=True)
class MaxPool:
    window: int
    stride: int
    padding: int | None = None  # None -> floor(window/2), when built
    name: str = ""
    # the window side, under the name a conv layer gives its own
    kernel = property(lambda self: self.window)

    def __post_init__(self):
        if self.padding is None:
            object.__setattr__(self, "padding", self.window // 2)


@dataclass(frozen=True)
class SPP(PyramidSpec):
    """The `spp.PyramidSpec` the pyramid kernels pool with, plus a name."""

    name: str = ""


@dataclass(frozen=True)
class FC:
    out_features: int
    name: str = ""


@dataclass(frozen=True)
class ReLU:
    name: str = ""


@dataclass(frozen=True)
class Dropout:
    rate: float = 0.5
    name: str = ""


@dataclass(frozen=True)
class Softmax:
    name: str = ""


_KIND_PREFIX = {Conv: "conv", MaxPool: "pool", SPP: "spp", FC: "fc",
                ReLU: "relu", Dropout: "drop", Softmax: "softmax"}


class NetworkSpec:
    """Ordered layer chain with auto-assigned names and structural checks."""

    def __init__(self, layers, in_channels: int = 1):
        self.in_channels = in_channels
        named = []
        counts: dict[str, int] = {}
        for layer in layers:
            if not layer.name:
                prefix = _KIND_PREFIX[type(layer)]
                counts[prefix] = counts.get(prefix, 0) + 1
                layer = dataclasses.replace(
                    layer, name=f"{prefix}{counts[prefix]}")
            named.append(layer)
        self.layers = tuple(named)
        self._validate()

    def _validate(self):
        spp_idx = [i for i, l in enumerate(self.layers) if isinstance(l, SPP)]
        if len(spp_idx) > 1:
            raise GraphError("at most one pyramid pooling layer is allowed")
        fc_idx = [i for i, l in enumerate(self.layers) if isinstance(l, FC)]
        sm_idx = [i for i, l in enumerate(self.layers) if isinstance(l, Softmax)]
        if sm_idx and sm_idx[0] != len(self.layers) - 1:
            raise GraphError("softmax must be the final layer")
        if spp_idx:
            i = spp_idx[0]
            if not fc_idx or fc_idx[0] < i:
                raise GraphError(
                    "the pyramid layer must come before every fc layer")
            for later in self.layers[i + 1:]:
                if isinstance(later, (Conv, MaxPool)):
                    raise GraphError(
                        f"{later.name} follows the pyramid layer; it must be "
                        f"the last spatially-aware layer")
        self.spp_index = spp_idx[0] if spp_idx else None

    def layer_named(self, name: str):
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise GraphError(f"no layer named {name!r}")

    def _pyramid_index(self) -> int:
        if self.spp_index is None:
            raise GraphError("network has no pyramid layer")
        return self.spp_index

    def trunk_layers(self):
        """Layers before the pyramid layer (conv / maxpool / relu)."""
        return self.layers[:self._pyramid_index()]

    def pyramid(self) -> SPP:
        """The pyramid pooling layer."""
        return self.layers[self._pyramid_index()]

    def head_layers(self):
        """Layers after the pyramid layer (fc / relu / dropout / softmax)."""
        return self.layers[self._pyramid_index() + 1:]

    def trunk_geometry(self) -> FeatureGeometry:
        """Stride/padding record of the conv trunk (everything before the
        pyramid layer); fails if any padding breaks the mapping rule."""
        return FeatureGeometry(
            GeomLayer(layer.kernel, layer.stride, layer.padding)
            for layer in self.trunk_layers()
            if isinstance(layer, (Conv, MaxPool)))

    def slot_names(self) -> list[str]:
        """The parameter slots an instance binds, in the order it binds
        them: each conv and fc layer's weight, then its bias."""
        return [f"{layer.name}.{part}" for layer in self.layers
                if isinstance(layer, (Conv, FC))
                for part in ("weight", "bias")]


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

class Slot:
    __slots__ = ("value", "grad", "momentum")

    def __init__(self, value: np.ndarray):
        self.value = value
        self.grad = np.zeros_like(value)
        self.momentum = np.zeros_like(value)


# one lock serves every store: a lookup is brief and a creation rare
_SLOT_LOCK = threading.Lock()


class ParameterStore:
    """Named parameter slots with gradient and momentum buffers.

    Slots are created on first use and afterwards resolved by name, so every
    instantiation of a spec shares the same storage. Weights draw from a
    Gaussian whose width is fan-in-scaled (sqrt(2/fan_in)) unless a fixed
    `sigma` is given; biases start at zero.
    """

    def __init__(self, seed: int = 0, sigma: float | None = None):
        self.sigma = sigma
        self._rng = np.random.default_rng(seed)
        self._slots: dict[str, Slot] = {}

    def slot(self, name: str, shape, init: str = "gauss") -> Slot:
        """The slot `name`, created if missing. Threads that instantiate at
        once each walk the slots in layer order, and a slot is looked up
        and created under `_SLOT_LOCK`, so the draws come in that order."""
        with _SLOT_LOCK:
            return self._slot(name, shape, init)

    def _slot(self, name: str, shape, init: str) -> Slot:
        existing = self._slots.get(name)
        if existing is not None:
            if existing.value.shape != tuple(shape):
                raise SpecMismatchError(
                    f"slot {name!r} holds shape {existing.value.shape}, "
                    f"network expects {tuple(shape)}")
            return existing
        if init == "gauss":
            sigma = self.sigma
            if sigma is None:  # fan-in scaled
                sigma = float(np.sqrt(2.0 / max(int(np.prod(shape[1:])), 1)))
            value = self._rng.normal(0.0, sigma, size=shape)
        elif init == "zeros":
            value = np.zeros(shape)
        else:
            raise ValueError(f"unknown init {init!r}")
        slot = Slot(value.astype(np.float32))
        self._slots[name] = slot
        return slot

    def names(self):
        return list(self._slots)

    def items(self):
        return self._slots.items()

    def __getitem__(self, name: str) -> Slot:
        return self._slots[name]

    def load_values(self, values: dict[str, np.ndarray]):
        """Install checkpointed arrays; fresh grad/momentum buffers."""
        for name, arr in values.items():
            self._slots[name] = Slot(np.ascontiguousarray(arr, dtype=np.float32))


# ---------------------------------------------------------------------------
# shape resolution and instantiation
# ---------------------------------------------------------------------------

def compute_shapes(spec: NetworkSpec, input_size) -> list[tuple[str, tuple]]:
    """Walk the chain at (h, w) and return [(layer name, output shape)];
    spatial shapes are (c, h, w), post-pyramid/fc shapes are (features,).

    Raises GraphError naming the first layer whose map collapses below 1x1.
    """
    h, w = input_size
    if h < 1 or w < 1:
        raise GraphError(f"input size {input_size} is degenerate")
    shape: tuple = (spec.in_channels, h, w)
    out = []
    for layer in spec.layers:
        if isinstance(layer, (Conv, MaxPool)):
            c, hh, ww = _require_spatial(shape, layer)
            oh, ow = (tensor.conv_out_size(n, layer.kernel, layer.stride,
                                           layer.padding) for n in (hh, ww))
            if oh < 1 or ow < 1:
                raise GraphError(
                    f"feature map collapses to {oh}x{ow} at layer {layer.name}")
            shape = (layer.out_channels if isinstance(layer, Conv) else c,
                     oh, ow)
        elif isinstance(layer, SPP):
            c, hh, ww = _require_spatial(shape, layer)
            shape = (layer.output_length(c),)
        elif isinstance(layer, FC):
            shape = (layer.out_features,)
        # relu/dropout/softmax keep the shape
        out.append((layer.name, shape))
    return out


def _require_spatial(shape, layer):
    if len(shape) != 3:
        raise GraphError(f"layer {layer.name} needs a spatial input, got {shape}")
    return shape


class NetworkInstance:
    """One spec resolved at a fixed input size against a shared store."""

    def __init__(self, spec: NetworkSpec, input_size, params: ParameterStore):
        self.spec = spec
        self.input_size = tuple(input_size)
        self.params = params
        self.shapes = compute_shapes(spec, input_size)
        self._bind_slots()

    def _bind_slots(self):
        in_shape: tuple = (self.spec.in_channels, *self.input_size)
        self.slots: dict[str, tuple] = {}
        names = iter(self.spec.slot_names())
        for layer, (name, out_shape) in zip(self.spec.layers, self.shapes):
            if isinstance(layer, (Conv, FC)):
                wshape = ((layer.out_channels, in_shape[0], layer.kernel,
                           layer.kernel) if isinstance(layer, Conv) else
                          (layer.out_features, int(np.prod(in_shape))))
                self.slots[name] = (
                    self.params.slot(next(names), wshape, "gauss"),
                    self.params.slot(next(names), wshape[:1], "zeros"))
            in_shape = out_shape

    @property
    def output_length(self) -> int:
        return int(np.prod(self.shapes[-1][1]))

    # -- execution ---------------------------------------------------------

    def forward(self, batch: np.ndarray, train_mode: bool = False,
                rng: np.random.Generator | None = None):
        """Run the chain; returns (logits, saved activations for backward).

        Logits are the activations entering the softmax layer (or the final
        layer's output when no softmax is declared). Train mode draws its
        dropout masks from `rng`, which it requires.
        """
        if train_mode and rng is None:
            raise GraphError("train-mode forward needs an rng to draw "
                             "dropout masks from")
        self._begin_pass(batch)
        x, caches = forward_layers(self.spec.layers, batch, self.slots,
                                   train_mode, rng)
        return x, {"train_mode": train_mode, "caches": caches}

    def _begin_pass(self, batch):
        """Reject a batch this instance cannot run, else count a trunk pass
        for each of its images."""
        expect = (self.spec.in_channels, *self.input_size)
        if batch.ndim != 4 or batch.shape[1:] != expect:
            raise ShapeError(
                f"batch shaped {batch.shape}, instance expects (B, {expect[0]}, "
                f"{expect[1]}, {expect[2]})")
        if not np.isfinite(batch).all():
            bad = batch.size - int(np.count_nonzero(np.isfinite(batch)))
            raise ShapeError(f"batch holds {bad} non-finite values")
        stats.add(batch.shape[0])

    def backward(self, saved, grad_logits: np.ndarray) -> None:
        """Accumulate parameter gradients from a train-mode forward pass into
        the slots' `.grad`; no gradient with respect to the batch is
        computed or returned."""
        if not saved["train_mode"]:
            raise GraphError(
                "backward requires activations saved with train_mode=True")
        backward_layers(self.spec.layers, saved["caches"], self.slots,
                        grad_logits)

    def feature_at(self, batch: np.ndarray, layer_name: str) -> np.ndarray:
        """Eval-mode activation after the named layer."""
        layer = self.spec.layer_named(layer_name)
        self._begin_pass(batch)
        upto = self.spec.layers[:self.spec.layers.index(layer) + 1]
        x, _ = forward_layers(upto, batch, self.slots)
        return tensor.softmax(x) if isinstance(layer, Softmax) else x

    def conv_features(self, batch: np.ndarray) -> np.ndarray:
        """Eval-mode feature maps entering the pyramid layer, one per image
        of the batch (one trunk pass per image)."""
        layers = self.spec.trunk_layers()
        self._begin_pass(batch)
        x, _ = forward_layers(layers, batch, self.slots)
        return x

    def head_forward(self, pooled: np.ndarray) -> np.ndarray:
        """Eval-mode logits from an already-pooled (B, k*M) feature batch."""
        x, _ = forward_layers(self.spec.head_layers(), pooled, self.slots)
        return x

    def predict_proba(self, batch: np.ndarray) -> np.ndarray:
        logits, _ = self.forward(batch, train_mode=False)
        return tensor.softmax(logits)


def instantiate(spec: NetworkSpec, input_size,
                params: ParameterStore) -> NetworkInstance:
    """Resolve `spec` at (h, w) against `params`; see NetworkInstance."""
    return NetworkInstance(spec, input_size, params)


# ---------------------------------------------------------------------------
# the layer interpreter
# ---------------------------------------------------------------------------

def forward_layers(layers, x: np.ndarray, slots, train_mode: bool = False,
                   rng: np.random.Generator | None = None):
    """Run a slice of a layer chain on `x`; returns (output, caches).

    `slots` maps each conv / fc layer name to its (weight, bias) slots.
    Softmax passes its input through: training couples it with the loss.
    Caches for `backward_layers` are kept in train mode only (a conv layer
    keeps its float64 patch matrix, not its input); in eval mode the list is
    empty, max pooling and the pyramid compute no argmax, and ReLU no mask.
    """
    caches = []
    for layer in layers:
        cache = None  # in eval mode, frees the last layer's cache
        if isinstance(layer, Conv):
            wslot, bslot = slots[layer.name]
            out, cache = tensor.conv_forward(x, wslot.value, bslot.value,
                                             layer)
        elif isinstance(layer, MaxPool):
            args = (x, (layer.window, layer.window),
                    (layer.stride, layer.stride),
                    (layer.padding, layer.padding))
            if train_mode:
                out, argmax = tensor.maxpool_forward(*args)
                cache = (argmax, x.shape)
            else:
                out = tensor.maxpool_values(*args)
        elif isinstance(layer, SPP):
            if train_mode:
                out, argmax = spp_forward_batch(x, layer)
                cache = (argmax, x.shape)
            else:
                out = pool_maps(x, layer)
        elif isinstance(layer, FC):
            flat = x.reshape(x.shape[0], -1)
            wslot, bslot = slots[layer.name]
            out = tensor.fc_forward(flat, wslot.value, bslot.value)
            cache = (flat, x.shape)
        elif isinstance(layer, ReLU):
            if train_mode:
                out, cache = tensor.relu_forward(x)
            else:
                out = np.maximum(x, 0)
        elif isinstance(layer, Dropout):
            out, cache = tensor.dropout(x, layer.rate, train_mode, rng)
        elif isinstance(layer, Softmax):
            out = x
        else:
            raise GraphError(f"unknown layer {layer!r}")
        if train_mode:
            caches.append(cache)
        x = out
    return x, caches


def backward_layers(layers, caches, slots, grad: np.ndarray) -> None:
    """Back-propagate `grad` through the slice `forward_layers` ran in train
    mode, accumulating conv / fc parameter gradients into `slots`. Nothing
    reads the gradient with respect to the slice's input, so it is not
    computed: the first layer yields only its parameter gradients."""
    for i in range(len(layers) - 1, -1, -1):
        layer, cache = layers[i], caches[i]
        if isinstance(layer, Conv):
            wslot, bslot = slots[layer.name]
            grad, gw, gb = tensor.conv_backward(grad, cache, wslot.value,
                                                layer, input_grad=i > 0)
            wslot.grad += gw
            bslot.grad += gb
        elif isinstance(layer, FC):
            flat, in_shape = cache
            wslot, bslot = slots[layer.name]
            grad, gw, gb = tensor.fc_backward(grad, flat, wslot.value,
                                              input_grad=i > 0)
            wslot.grad += gw
            bslot.grad += gb
            if i > 0:
                grad = grad.reshape(in_shape)
        elif i == 0:
            break  # a parameter-free first layer has nothing to accumulate
        elif isinstance(layer, MaxPool):
            grad = tensor.maxpool_backward(grad, *cache)
        elif isinstance(layer, SPP):
            grad = spp_backward_batch(grad, *cache)
        elif isinstance(layer, ReLU):
            grad = tensor.relu_backward(grad, cache)
        elif isinstance(layer, Dropout):
            grad = tensor.dropout_backward(grad, cache)
        # softmax: the loss gradient is already w.r.t. the logits


# ---------------------------------------------------------------------------
# canned architectures
# ---------------------------------------------------------------------------

def toy_shape_net(n_classes: int = 5, channels=(8, 16), levels=(3, 2, 1),
                  fc_width: int = 64, in_channels: int = 1) -> NetworkSpec:
    """Small trunk (stride product 4) for the synthetic shape corpora; every
    layer pads floor(k/2), so it supports window mapping."""
    c1, c2 = channels
    return NetworkSpec([
        Conv(c1, 3, 1),
        ReLU(),
        MaxPool(3, 2),
        Conv(c2, 3, 2),
        ReLU(),
        SPP(tuple(levels)),
        FC(fc_width),
        ReLU(),
        Dropout(0.5),
        FC(n_classes),
        Softmax(),
    ], in_channels=in_channels)


def zf5_net(n_classes: int = 1000, levels=(6, 3, 2, 1), fc_dims=(4096, 4096),
            table_padding: bool = True) -> NetworkSpec:
    """Five-conv reference architecture (stride product 16).

    With `table_padding` the published per-layer paddings are used, which
    reproduce the 55/27/13 map sizes at 224x224 input; set it False for the
    floor(k/2) deployment padding that window mapping requires.
    """
    if table_padding:
        pads = dict(conv1=1, pool1=1, conv2=1, pool2=0)
    else:
        pads = dict(conv1=3, pool1=1, conv2=2, pool2=1)
    layers = [
        Conv(96, 7, 2, pads["conv1"], name="conv1"),
        ReLU(),
        MaxPool(3, 2, pads["pool1"], name="pool1"),
        Conv(256, 5, 2, pads["conv2"], name="conv2"),
        ReLU(),
        MaxPool(3, 2, pads["pool2"], name="pool2"),
        Conv(384, 3, 1, 1, name="conv3"),
        ReLU(),
        Conv(384, 3, 1, 1, name="conv4"),
        ReLU(),
        Conv(256, 3, 1, 1, name="conv5"),
        ReLU(),
        SPP(tuple(levels)),
    ]
    for width in fc_dims:
        layers += [FC(width), ReLU(), Dropout(0.5)]
    layers += [FC(n_classes), Softmax()]
    return NetworkSpec(layers, in_channels=3)


NET_REGISTRY = {
    "toy": toy_shape_net,
    "zf5": zf5_net,
}


def build_net(name: str, **kw) -> NetworkSpec:
    try:
        builder = NET_REGISTRY[name]
    except KeyError:
        raise GraphError(
            f"unknown network {name!r}; choose from {sorted(NET_REGISTRY)}")
    return builder(**kw)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"SPPCKPT1"
CHECKPOINT_VERSION = 1


def checkpoint_bytes(store: ParameterStore) -> bytes:
    """Binary, bit-exact parameter dump: magic, version byte, slot count, then
    per-slot (name, shape, raw little-endian float32 values)."""
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<B", CHECKPOINT_VERSION)
    items = list(store.items())
    blob += struct.pack("<I", len(items))
    for name, slot in items:
        encoded = name.encode("utf-8")
        blob += struct.pack("<H", len(encoded))
        blob += encoded
        value = np.ascontiguousarray(slot.value, dtype="<f4")
        blob += struct.pack("<B", value.ndim)
        for dim in value.shape:
            blob += struct.pack("<I", dim)
        blob += value.tobytes()
    return bytes(blob)


def save_checkpoint(store: ParameterStore, path):
    """Write `checkpoint_bytes(store)` to `path` atomically: an interrupted
    save leaves the previous file whole."""
    dataio.atomic_write(path, checkpoint_bytes(store))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}")
    off = 0

    def take(n, what):
        nonlocal off
        if off + n > len(data):
            raise CheckpointError(
                f"checkpoint {path} truncated reading {what} at byte {off}")
        chunk = data[off:off + n]
        off += n
        return chunk

    if take(8, "magic") != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
    version = struct.unpack("<B", take(1, "version"))[0]
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    count = struct.unpack("<I", take(4, "slot count"))[0]
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        name_len = struct.unpack("<H", take(2, "name length"))[0]
        raw_name = take(name_len, "name")
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(
                f"checkpoint {path} has a slot name that is not UTF-8 at "
                f"byte {off - name_len + e.start}") from None
        ndim = struct.unpack("<B", take(1, "ndim"))[0]
        shape = tuple(struct.unpack("<I", take(4, "dim"))[0]
                      for _ in range(ndim))
        n_values = int(np.prod(shape)) if shape else 1
        raw = take(4 * n_values, f"values of {name}")
        value = np.frombuffer(raw, dtype="<f4").reshape(shape)
        if not np.isfinite(value).all():
            raise CheckpointError(
                f"checkpoint {path} slot {name!r} holds a non-finite value")
        out[name] = value.copy()
    if off != len(data):
        raise CheckpointError(
            f"checkpoint {path} has {len(data) - off} trailing bytes at byte "
            f"{off}")
    return out
