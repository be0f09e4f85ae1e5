"""Span tracing from outside the package: wrap public pyrapool functions and
methods, record one span per call, and turn the spans into per-layer metrics.

A span is (name, start, end, parent span index, op id). Spans live in memory
and are written out once, when the run ends. A span's self time is its
duration minus the part of its interval covered by its children.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass

# (module, attribute, class or None); a module function is replaced in every
# pyrapool namespace that binds it, e.g. `spp_forward` also in `detection` and
# `inference`. `detection.iou` is left alone on purpose: thousands of ~6 us
# calls per op would make the wrapper cost dominate what it measures.
TARGETS = (
    ("tensor", "conv_forward", None),
    ("tensor", "conv_backward", None),
    ("tensor", "maxpool_forward", None),
    ("tensor", "maxpool_backward", None),
    ("tensor", "fc_forward", None),
    ("tensor", "fc_backward", None),
    ("net", "instantiate", None),
    ("net", "forward", "NetworkInstance"),
    ("net", "backward", "NetworkInstance"),
    ("net", "conv_features", "NetworkInstance"),
    ("net", "feature_at", "NetworkInstance"),
    ("net", "head_forward", "NetworkInstance"),
    ("spp", "spp_forward", None),
    ("spp", "spp_forward_batch", None),
    ("spp", "spp_backward", None),
    ("spp", "spp_backward_batch", None),
    ("geometry", "resize_image", None),
    ("geometry", "resize_to", None),
    ("geometry", "map_window", None),
    ("dataio", "preprocess", None),
    ("training", "train", None),
    ("training", "sgd_step", None),
    ("training", "evaluate", None),
    ("training", "resize_square", None),
    ("inference", "predict_views", None),
    ("detection", "prepare", "RegionFeatureExtractor"),
    ("detection", "extract", "RegionFeatureExtractor"),
    ("detection", "train_svm", None),
    ("detection", "nms", None),
    ("detection", "bbox_regress_train", None),
    ("detection", "apply", "BBoxRegressor"),
    ("detection", "fit_detector", None),
    ("detection", "run_detector", None),
)

# per-layer time metric -> the spans whose self time it sums
TIME_GROUPS = {
    "tensor.conv_forward_s": ("tensor.conv_forward",),
    "tensor.conv_backward_s": ("tensor.conv_backward",),
    "tensor.maxpool_s": ("tensor.maxpool_forward", "tensor.maxpool_backward"),
    "tensor.fc_s": ("tensor.fc_forward", "tensor.fc_backward"),
    "net.instantiate_s": ("net.instantiate",),
    "net.head_forward_s": ("net.NetworkInstance.head_forward",),
    "net.forward_s": ("net.NetworkInstance.forward",
                      "net.NetworkInstance.conv_features",
                      "net.NetworkInstance.feature_at"),
    "net.backward_s": ("net.NetworkInstance.backward",),
    "spp.forward_s": ("spp.spp_forward", "spp.spp_forward_batch"),
    "spp.backward_s": ("spp.spp_backward", "spp.spp_backward_batch"),
    "geometry.resize_s": ("geometry.resize_image", "geometry.resize_to"),
    "geometry.map_window_s": ("geometry.map_window",),
    "dataio.preprocess_s": ("dataio.preprocess",),
    "training.sgd_step_s": ("training.sgd_step",),
    "training.evaluate_s": ("training.evaluate",),
    "training.resize_square_s": ("training.resize_square",),
    "inference.predict_views_s": ("inference.predict_views",),
    "detection.extract_s": ("detection.RegionFeatureExtractor.extract",
                            "detection.RegionFeatureExtractor.prepare"),
    "detection.train_svm_s": ("detection.train_svm",),
    "detection.nms_s": ("detection.nms",),
    "detection.bbox_s": ("detection.bbox_regress_train",
                         "detection.BBoxRegressor.apply"),
}

# per-layer call counts -> the span they count
CALL_COUNTS = {
    "net.instantiate_calls": "net.instantiate",
    "net.head_forward_calls": "net.NetworkInstance.head_forward",
    "geometry.resize_calls": "geometry.resize_to",
    "detection.extract_calls": "detection.RegionFeatureExtractor.extract",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to its own interval."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur0 = cur1 = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur1 is None or a > cur1:
                if cur1 is not None:
                    covered += cur1 - cur0
                cur0, cur1 = a, b
            else:
                cur1 = max(cur1, b)
        if cur1 is not None:
            covered += cur1 - cur0
        out.append((s.end - s.start) - covered)
    return out


def _conv_flop(args) -> float:
    """2*B*O*OH*OW*C*K*K multiply-adds of one conv_forward call."""
    x, weights, _, spec = args[:4]
    b, c, h, w = x.shape
    o = weights.shape[0]
    return 2.0 * b * o * spec.out_size(h) * spec.out_size(w) * c * spec.kernel ** 2


class Tracer:
    """Records spans and counters while `active`; single-threaded, like the
    closed loop that drives it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.active = False
        self.op = 0
        self._stack: list[int] = []
        self._undo: list = []

    def add(self, name: str, value: float):
        self.counters[name] = self.counters.get(name, 0.0) + value

    def wrap(self, name: str, fn, count=None):
        """`count`, if given, is a pair (before, after): `before(args)` runs
        ahead of the call and `after(tracer, args, result, state)` after it,
        with `state` the value `before` returned."""
        tracer = self
        before, after = count or (None, None)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            state = before(args) if before is not None else None
            tracer.spans.append(None)
            tracer._stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._stack.pop()
                tracer.spans[idx] = Span(name, start, end, parent, tracer.op)
            if after is not None:
                after(tracer, args, result, state)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every TARGETS entry; `uninstall` restores the originals."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "pyrapool" or name.startswith("pyrapool.")}
        for mod_name, attr, cls_name in TARGETS:
            home = modules[f"pyrapool.{mod_name}"]
            if cls_name is not None:
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                wrapper = self.wrap(f"{mod_name}.{cls_name}.{attr}", original,
                                    _COUNTS.get((cls_name, attr)))
                setattr(cls, attr, wrapper)
                self._undo.append((cls, attr, original))
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(f"{mod_name}.{attr}", original,
                                _COUNTS.get((mod_name, attr)))
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def write(self, path):
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps([s.name, s.start, s.end, s.parent, s.op])
                        + "\n")


def _count_conv_fwd(tracer, args, result, state):
    tracer.add("tensor.conv_gflop", _conv_flop(args) / 1e9)


def _count_conv_bwd(tracer, args, result, state):
    # (grad_out, saved_input, weights, spec): the weight and the input
    # gradient each cost one forward pass of multiply-adds
    _, x, weights, spec = args[:4]
    tracer.add("tensor.conv_gflop", 2.0 * _conv_flop((x, weights, None, spec)) / 1e9)


def _count_spp(tracer, args, result, state):
    tracer.add("spp.windows_pooled", args[0].shape[0])


def _count_views(tracer, args, result, state):
    tracer.add("inference.views", len(args[3]))


def _count_prepare(tracer, args, result, state):
    extractor = args[0]
    tracer.add("detection.prepare_calls", 1)
    tracer.add("detection.map_misses",
               (extractor.conv_passes - state) / len(extractor.scales))


def _count_svm(tracer, args, result, state):
    tracer.add("detection.hard_negatives_added", result.hard_negatives_added)


def _count_nms(tracer, args, result, state):
    tracer.add("detection.nms_in", len(args[0]))
    tracer.add("detection.nms_kept", len(result))


_COUNTS = {
    ("tensor", "conv_forward"): (None, _count_conv_fwd),
    ("tensor", "conv_backward"): (None, _count_conv_bwd),
    ("spp", "spp_forward_batch"): (None, _count_spp),
    ("inference", "predict_views"): (None, _count_views),
    ("RegionFeatureExtractor", "prepare"):
        (lambda args: args[0].conv_passes, _count_prepare),
    ("detection", "train_svm"): (None, _count_svm),
    ("detection", "nms"): (None, _count_nms),
}


def per_layer_metrics(spans, counters, cycles: int) -> dict[str, float]:
    """Per-layer metrics per pass over the workload's inputs: self seconds,
    call and work counts, and ratios measured where the work happens."""
    selfs = self_times(spans)
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, t in zip(spans, selfs):
        by_name[s.name] = by_name.get(s.name, 0.0) + t
        calls[s.name] = calls.get(s.name, 0) + 1
    out = {}
    for metric, names in TIME_GROUPS.items():
        out[metric] = sum(by_name.get(n, 0.0) for n in names) / cycles
    for metric, name in CALL_COUNTS.items():
        out[metric] = calls.get(name, 0) / cycles
    c = counters.get
    for name in ("tensor.conv_gflop", "net.trunk_passes", "spp.windows_pooled",
                 "inference.views", "detection.hard_negatives_added"):
        out[name] = c(name, 0.0) / cycles
    passes = c("net.trunk_passes", 0.0)
    out["spp.windows_per_map"] = (c("spp.windows_pooled", 0.0) / passes
                                  if passes else 0.0)
    prepares = c("detection.prepare_calls", 0.0)
    out["detection.map_cache_hit_ratio"] = (
        1.0 - c("detection.map_misses", 0.0) / prepares if prepares else 0.0)
    nms_in = c("detection.nms_in", 0.0)
    out["detection.nms_kept_ratio"] = (c("detection.nms_kept", 0.0) / nms_in
                                       if nms_in else 0.0)
    return out


def module_self_times(spans, cycles: int) -> dict[str, float]:
    """Self seconds per pass, summed by pyrapool module."""
    out: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        mod = s.name.split(".", 1)[0]
        out[mod] = out.get(mod, 0.0) + t / cycles
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))
