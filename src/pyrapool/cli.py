"""Operator entry point: train, eval, extract, detect, bench.

Configuration is line-based `key=value` (keys match the long flag names with
underscores); command-line flags override file values. Config, manifest,
proposal and ground-truth files are read by `dataio.read_records`, so a
malformed line exits 1 naming `path:line`; a missing input file, or a
manifest or ground-truth file that lists nothing, exits 2 naming its flag,
before any image is decoded. Output files are written atomically (temp file +
rename) and every run is reproducible: same config gives identical output
bytes, timing values excepted, for any PYRAPOOL_THREADS. A bad flag or
PYRAPOOL_THREADS value exits 1 naming it, before any work.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import dataio, detection, inference, net, training
from .dataio import atomic_write
from .errors import CheckpointError, GraphError, ShapeError, SpecMismatchError
from .parallel import thread_count

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISSING_INPUT = 2
EXIT_BAD_CHECKPOINT = 3
EXIT_SPEC_MISMATCH = 4
# an error's exit code is that of the first type it is an instance of
EXIT_CODES = ((FileNotFoundError, EXIT_MISSING_INPUT),
              (CheckpointError, EXIT_BAD_CHECKPOINT),
              (SpecMismatchError, EXIT_SPEC_MISMATCH),
              (Exception, EXIT_ERROR))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error: `main` reports it, exit 1
        raise ShapeError(message)


def _config_entry(line: str):
    if line.startswith("#"):
        return None
    key, sep, value = line.partition("=")
    if not sep:
        raise ValueError("expected key=value")
    return key.strip().replace("-", "_"), value.strip()


def read_config_file(path) -> dict[str, str]:
    """`key=value` lines; a line starting with `#` is a comment."""
    entries = dataio.read_records(path, _config_entry)
    return dict(entry for entry in entries if entry is not None)


def _int_tuple(text: str):
    try:
        return tuple(int(v) for v in str(text).split(",") if v != "")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers such as 48,64, got {text!r}"
        ) from None


def _bool(text: str) -> bool:
    word = text.lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(
            f"expected 1/0, true/false, yes/no or on/off, got {text!r}")
    return word in ("1", "true", "yes", "on")


def apply_config_defaults(parser: argparse.ArgumentParser, config, path):
    """File values become the subcommand's defaults, so flags given on the
    command line still override them. A bad key or value names the file and
    the key."""
    actions = {a.dest: a for a in parser._actions
               if a.dest not in ("help", "config")}
    unknown = set(config) - set(actions)
    if unknown:
        raise ShapeError(f"{path}: unknown config keys: {sorted(unknown)}")
    defaults = {}
    for key, raw in config.items():
        action = actions[key]
        convert = (_bool if isinstance(action, argparse._StoreTrueAction)
                   else action.type or str)
        try:
            defaults[key] = convert(raw)
        except (ValueError, argparse.ArgumentTypeError) as e:
            raise ShapeError(f"{path}: {key}: {e}") from None
    parser.set_defaults(**defaults)


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


# flags that hold counts or sizes: every value must be a positive integer
POSITIVE_FLAGS = ("classes", "levels", "channels", "in_channels", "fc_width",
                  "epochs", "batch_size", "sizes", "eval_size", "scale",
                  "scales", "view", "pyramid", "view_size", "n_proposals",
                  "repeats", "window_size")
EVAL_MODES = ("single", "10view", "10view-pixels", "96view")


def check_args(args) -> net.NetworkSpec:
    """The network the flags describe, built once. Reject a missing required
    option, a non-positive count or size, a repeated scale, an unknown eval
    mode, an eval view larger than the scales it is cut at, an NMS threshold
    outside [0, 1], a non-positive or non-finite SVM C, a --net that is
    unknown, cannot take the given flags or cannot map the windows a command
    pools, a --layer the network lacks, or a bad PYRAPOOL_THREADS, naming
    the flag or the variable."""
    for dest in args.required:
        if getattr(args, dest) is None:
            raise ShapeError(f"missing required option: {_flag(dest)}")
    for dest in POSITIVE_FLAGS:
        value = getattr(args, dest, None)
        if value is None:
            continue
        values = value if isinstance(value, tuple) else (value,)
        if not values or min(values) < 1:
            raise ShapeError(
                f"{_flag(dest)} must be positive, got "
                f"{','.join(map(str, values)) or 'nothing'}")
    scales = getattr(args, "scales", None) or ()
    repeated = [s for s in scales if scales.count(s) > 1]
    if repeated:
        raise ShapeError(f"--scales repeats {repeated[0]}, got "
                         f"{','.join(map(str, scales))}")
    mode = getattr(args, "mode", None)
    if mode is not None and mode not in EVAL_MODES:
        raise ShapeError(f"--mode must be one of {', '.join(EVAL_MODES)}, "
                         f"got {mode!r}")
    if mode in ("10view", "10view-pixels") and args.view > args.scale:
        raise ShapeError(
            f"--view {args.view} is larger than --scale {args.scale}")
    if mode == "96view" and args.view > min(args.scales):
        raise ShapeError(f"--view {args.view} is larger than the smallest "
                         f"of --scales, {min(args.scales)}")
    nms_threshold = getattr(args, "nms_threshold", None)
    if nms_threshold is not None and not 0.0 <= nms_threshold <= 1.0:
        raise ShapeError(
            f"--nms-threshold must lie in [0, 1], got {nms_threshold}")
    svm_c = getattr(args, "svm_c", None)
    if svm_c is not None and not (np.isfinite(svm_c) and svm_c > 0):
        raise ShapeError(f"--svm-c must be positive and finite, got {svm_c}")
    spec = build_network(args)
    names = [layer.name for layer in spec.layers]
    if getattr(args, "layer", None) not in (None, *names):
        raise ShapeError(f"--layer must be one of {', '.join(names)}, "
                         f"got {args.layer!r}")
    if args.command in ("detect", "bench") or mode in ("10view", "96view"):
        try:
            spec.trunk_geometry()
        except GraphError as e:
            what = args.command if mode is None else f"eval --mode {mode}"
            raise ShapeError(f"--net {args.net} cannot map windows onto its "
                             f"feature maps, which {what} needs: {e}") from None
    thread_count()
    return spec


def build_network(args) -> net.NetworkSpec:
    if args.net not in net.NET_REGISTRY:
        raise ShapeError(f"--net must be one of "
                         f"{', '.join(net.NET_REGISTRY)}, got {args.net!r}")
    kwargs = {}
    if args.classes is not None:
        kwargs["n_classes"] = args.classes
    if args.levels is not None:
        kwargs["levels"] = args.levels
    for dest in ("channels", "in_channels", "fc_width"):  # toy net only
        value = getattr(args, dest)
        if value is None:
            continue
        if args.net != "toy":
            raise ShapeError(
                f"{_flag(dest)} applies to --net toy only, not {args.net}")
        kwargs[dest] = value
    channels = kwargs.get("channels")
    if channels is not None and len(channels) != 2:
        raise ShapeError(f"--channels takes the toy net's 2 conv widths, got "
                         f"{','.join(map(str, channels))}")
    return net.build_net(args.net, **kwargs)


def load_store(args, spec: net.NetworkSpec) -> net.ParameterStore:
    """Load the checkpoint; its slots must be exactly the weight and bias of
    every conv and fc layer of `spec`."""
    values = net.load_checkpoint(_existing(args, "checkpoint"))
    expected = set(spec.slot_names())
    for names, what in ((expected - set(values), "lacks"),
                        (set(values) - expected, "has unknown")):
        if names:
            raise SpecMismatchError(
                f"checkpoint {args.checkpoint} {what} slot(s) "
                f"{', '.join(sorted(names))} for this network")
    store = net.ParameterStore()
    store.load_values(values)
    return store


def _load_pixels(path, spec: net.NetworkSpec) -> np.ndarray:
    """The (c, h, w) pixels of the image at `path`; a channel count that is
    not the network's raises ShapeError starting with the path."""
    pixels = dataio.load_image(path).pixels
    if pixels.shape[0] != spec.in_channels:
        raise ShapeError(f"{path}: image has {pixels.shape[0]} channel(s), "
                         f"the network expects {spec.in_channels}")
    return pixels


def _existing(args, dest):
    """The path that flag `dest` names, which must exist."""
    path = getattr(args, dest)
    if not os.path.exists(path):
        raise FileNotFoundError(f"{_flag(dest)} {path} does not exist")
    return path


def _listed(args, dest, read, what):
    """`read` of the file that flag `dest` names, which must list `what`."""
    records = read(_existing(args, dest))
    if not records:
        raise FileNotFoundError(
            f"{_flag(dest)} {getattr(args, dest)} lists no {what}")
    return records


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(args, spec: net.NetworkSpec) -> int:
    try:
        config = training.TrainConfig(
            lr=args.lr, momentum=args.momentum, batch_size=args.batch_size,
            epochs=args.epochs, schedule=args.schedule, sizes=args.sizes,
            eval_size=args.eval_size, seed=args.seed)
    except ValueError as e:  # the message opens with the field's name
        field, rest = str(e).split(" ", 1)
        raise ShapeError(f"{_flag(field)} {rest}") from None
    manifests = [
        _listed(args, "train_manifest", dataio.load_manifest, "images"),
        _listed(args, "test_manifest", dataio.load_manifest, "images")
        if args.test_manifest else []]
    dataset, eval_set = [[(dataio.load_image(p).pixels, label)
                          for p, label in entries] for entries in manifests]
    params, reports = training.train(spec, dataset, config, eval_set=eval_set)
    net.save_checkpoint(params, args.out)
    if args.log:
        atomic_write(args.log, "".join(r.line() + "\n" for r in reports))
    print(f"trained {len(reports)} epochs; final loss "
          f"{reports[-1].loss:.4f} accuracy {reports[-1].accuracy:.4f}")
    return EXIT_OK


def cmd_eval(args, spec: net.NetworkSpec) -> int:
    dataset = _listed(args, "test_manifest", dataio.load_manifest, "images")
    training.checked_labels(spec, [label for _, label in dataset], "test")
    params = load_store(args, spec)
    mode, scale, view = args.mode, args.scale, args.view
    correct = 0
    for path, label in dataset:
        pixels = _load_pixels(path, spec)
        size = (pixels.shape[2], pixels.shape[1])
        if mode == "single":
            scores = inference.full_image_representation(
                spec, params, pixels, scale, layer=spec.layers[-1].name)
        elif mode == "96view":
            scores = inference.predict_views(
                spec, params, pixels, inference.multi_view_windows(
                    size, scales=args.scales, view=view))
        else:  # the ten views, pooled from maps or run on pixel crops
            predict = (inference.predict_crops if mode == "10view-pixels"
                       else inference.predict_views)
            scores = predict(spec, params, pixels, inference.ten_view_windows(
                size, s=scale, view=view))
        correct += int(int(np.argmax(scores)) == label)
    accuracy = correct / len(dataset)
    report = (f"mode,{mode}\nimages,{len(dataset)}\ncorrect,{correct}\n"
              f"accuracy,{accuracy:.6f}\n")
    if args.out:
        atomic_write(args.out, report)
    print(report, end="")
    return EXIT_OK


def cmd_extract(args, spec: net.NetworkSpec) -> int:
    entries = _listed(args, "manifest", dataio.load_manifest, "images")
    params = load_store(args, spec)
    lines = []
    base = os.path.dirname(os.path.abspath(args.manifest))
    for path, _ in entries:
        pixels = _load_pixels(path, spec)
        vec = inference.full_image_representation(
            spec, params, pixels, args.scale, layer=args.layer, l2=args.l2)
        rel = os.path.relpath(path, base)
        lines.append(rel + "," + ",".join(f"{v:.6g}" for v in vec))
    atomic_write(args.out, "\n".join(lines) + "\n")
    print(f"wrote {len(lines)} feature vectors to {args.out}")
    return EXIT_OK


def cmd_detect(args, spec: net.NetworkSpec) -> int:
    manifests = [_listed(args, dest, dataio.load_detection_manifest, "images")
                 for dest in ("train_images", "images")]
    train_props = detection.read_proposals(_existing(args, "train_proposals"))
    train_gt = _listed(args, "train_gt", detection.read_ground_truth, "boxes")
    proposals = detection.read_proposals(_existing(args, "proposals"))
    gt = (_listed(args, "gt", detection.read_ground_truth, "boxes")
          if args.gt else None)
    params = load_store(args, spec)
    # a file both manifests name is decoded once
    paths = dict.fromkeys(p for by_id in manifests for p in by_id.values())
    pixels = {p: _load_pixels(p, spec) for p in paths}
    train_images, images = [
        {image_id: pixels[p] for image_id, p in by_id.items()}
        for by_id in manifests]
    classes = sorted({c for entries in train_gt.values()
                      for c, _ in entries})
    extractor = detection.RegionFeatureExtractor(
        spec, params, scales=args.scales, pyramid=args.pyramid,
        view=args.view_size)
    model = detection.fit_detector(
        extractor, train_images, train_props, train_gt, classes,
        svm_c=args.svm_c, with_bbox=not args.no_bbox)
    detections = detection.run_detector(
        extractor, model, images, proposals,
        nms_threshold=args.nms_threshold, apply_bbox=not args.no_bbox)
    atomic_write(args.out, detection.format_detections(detections))
    print(f"wrote {len(detections)} detections to {args.out}")
    if gt is not None:
        aps, mean = detection.evaluate_map(detections, gt)
        lines = [f"class,{cls},ap,{ap:.6f}" for cls, ap in sorted(aps.items())]
        lines.append(f"mAP,{mean:.6f}")
        report = "\n".join(lines) + "\n"
        if args.map_report:
            atomic_write(args.map_report, report)
        print(report, end="")
    return EXIT_OK


def cmd_bench(args, spec: net.NetworkSpec) -> int:
    if args.checkpoint:
        params = load_store(args, spec)
    else:
        params = net.ParameterStore(seed=args.seed)
        net.instantiate(spec, (args.window_size,) * 2, params)
    if args.image:
        pixels = _load_pixels(_existing(args, "image"), spec)
    else:
        rng = np.random.default_rng(args.seed)
        pixels = rng.uniform(0, 255, size=(spec.in_channels, 96, 128)) \
                    .astype(np.float32)
    img_h, img_w = pixels.shape[1], pixels.shape[2]
    if min(img_h, img_w) < 18:  # proposal sides are drawn from [8, side // 2)
        raise ShapeError(f"{args.image}: image is {img_w}x{img_h}, bench "
                         f"needs at least 18 px on each side")
    n = args.n_proposals
    rng = np.random.default_rng(args.seed + 1)
    proposals = []
    for _ in range(n):
        w = int(rng.integers(8, img_w // 2))
        h = int(rng.integers(8, img_h // 2))
        x0 = int(rng.integers(0, img_w - w))
        y0 = int(rng.integers(0, img_h - h))
        proposals.append(detection.WindowRect(x0, y0, x0 + w, y0 + h))
    lines = ["mode,n,conv_time,pool_time,fc_time,total_time"]
    medians = {}
    for mode in ("shared", "per_window"):
        runs = [detection.speed_bench(
            spec, params, pixels, proposals, mode, scales=args.scales,
            window_size=args.window_size)
            for _ in range(args.repeats)]
        conv = float(np.median([r.conv_time for r in runs]))
        pool = float(np.median([r.pool_time for r in runs]))
        fc = float(np.median([r.fc_time for r in runs]))
        medians[mode] = (conv, pool, fc)
        lines.append(f"{mode},{n},{conv:.6f},{pool:.6f},{fc:.6f},"
                     f"{conv + pool + fc:.6f}")
    conv_ratio = medians["per_window"][0] / max(medians["shared"][0], 1e-12)
    total_ratio = (sum(medians["per_window"])
                   / max(sum(medians["shared"]), 1e-12))
    lines.append(f"speedup_conv,{conv_ratio:.3f}")
    lines.append(f"speedup_total,{total_ratio:.3f}")
    table = "\n".join(lines) + "\n"
    if args.out:
        atomic_write(args.out, table)
    print(table, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_net_flags(p):
    p.add_argument("--net", default="toy", help="network name (toy | zf5)")
    p.add_argument("--classes", type=int, default=None)
    p.add_argument("--levels", type=_int_tuple, default=None,
                   help="pyramid grid sizes, e.g. 3,2,1")
    p.add_argument("--channels", type=_int_tuple, default=None)
    p.add_argument("--in-channels", type=int, default=None)
    p.add_argument("--fc-width", type=int, default=None)
    p.add_argument("--config", default=None, help="key=value defaults file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pyrapool",
        description="pyramid-pooled network toolkit: train, evaluate, "
                    "extract features, detect, benchmark")
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = training.TrainConfig

    p = sub.add_parser("train", help="train a classifier")
    _add_net_flags(p)
    p.add_argument("--train-manifest", default=None)
    p.add_argument("--test-manifest", default=None)
    p.add_argument("--epochs", type=int, default=defaults.epochs)
    p.add_argument("--batch-size", type=int, default=defaults.batch_size)
    p.add_argument("--lr", type=float, default=defaults.lr)
    p.add_argument("--momentum", type=float, default=defaults.momentum)
    p.add_argument("--schedule", default=defaults.schedule,
                   help="single | alternate | random")
    p.add_argument("--sizes", type=_int_tuple, default=(32,),
                   help="input sizes, e.g. 32,24")
    p.add_argument("--eval-size", type=int, default=None)
    p.add_argument("--out", default=None, help="checkpoint path")
    p.add_argument("--log", default=None, help="epoch log path")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train, required=("train_manifest", "out"))

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_net_flags(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--test-manifest", default=None)
    p.add_argument("--mode", default="single",
                   help=" | ".join(EVAL_MODES))
    p.add_argument("--scale", type=int, default=32)
    p.add_argument("--scales", type=_int_tuple,
                   default=inference.MULTI_VIEW_SCALES)
    p.add_argument("--view", type=int, default=32)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval, required=("test_manifest", "checkpoint"))

    p = sub.add_parser("extract", help="write full-image feature vectors")
    _add_net_flags(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--manifest", default=None)
    p.add_argument("--scale", type=int, default=32)
    p.add_argument("--layer", default=None)
    p.add_argument("--l2", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_extract,
                   required=("manifest", "checkpoint", "out"))

    p = sub.add_parser("detect", help="train SVMs on proposals and detect")
    _add_net_flags(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--train-images", default=None)
    p.add_argument("--train-proposals", default=None)
    p.add_argument("--train-gt", default=None)
    p.add_argument("--images", default=None)
    p.add_argument("--proposals", default=None)
    p.add_argument("--gt", default=None, help="enables the mAP report")
    p.add_argument("--scales", type=_int_tuple,
                   default=detection.DETECTION_SCALES)
    p.add_argument("--pyramid", type=_int_tuple,
                   default=detection.DETECTION_PYRAMID)
    p.add_argument("--view-size", type=int, default=224)
    p.add_argument("--nms-threshold", type=float,
                   default=detection.NMS_THRESHOLD)
    p.add_argument("--svm-c", type=float, default=1.0)
    p.add_argument("--no-bbox", action="store_true")
    p.add_argument("--out", default=None, help="detections path")
    p.add_argument("--map-report", default=None)
    p.set_defaults(func=cmd_detect, required=(
        "checkpoint", "train_images", "train_proposals", "train_gt",
        "images", "proposals", "out"))

    p = sub.add_parser("bench", help="shared vs per-window timing")
    _add_net_flags(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--image", default=None)
    p.add_argument("--n-proposals", type=int, default=100)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--scales", type=_int_tuple, default=(480,))
    p.add_argument("--window-size", type=int, default=224)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench, required=())
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            config = read_config_file(_existing(args, "config"))
            sub = next(a for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction))
            apply_config_defaults(sub.choices[args.command], config,
                                  args.config)
            args = parser.parse_args(argv)
        spec = check_args(args)
        return args.func(args, spec)
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(e, kind))


if __name__ == "__main__":
    sys.exit(main())
