"""Operator entry point: train, eval, extract, detect, bench.

Configuration is line-based `key=value` (keys match the long flag names with
underscores); command-line flags override file values. Output files are
written atomically (temp file + rename) and every run is reproducible from
its seed: same config + seed gives identical output bytes, timing values
excepted. PYRAPOOL_THREADS caps internal parallelism (0 = auto).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import dataio, detection, inference, net, training
from .errors import CheckpointError, GraphError, ShapeError, SpecMismatchError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISSING_INPUT = 2
EXIT_BAD_CHECKPOINT = 3
EXIT_SPEC_MISMATCH = 4


def atomic_write(path, data: str | bytes):
    """Write text or bytes to a fresh temp file beside `path`, then rename it
    over `path`. The file gets the mode `open()` would give it."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def thread_count() -> int:
    raw = os.environ.get("PYRAPOOL_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ShapeError(f"PYRAPOOL_THREADS must be an integer, got {raw!r}")
    if n == 0:
        return os.cpu_count() or 1
    return max(1, n)


def read_config_file(path) -> dict[str, str]:
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file {path} does not exist")
    out = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ShapeError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _int_tuple(text: str):
    return tuple(int(v) for v in str(text).split(",") if v != "")


def _bool(text) -> bool:
    if isinstance(text, bool):
        return text
    return str(text).lower() in ("1", "true", "yes", "on")


def apply_config_defaults(parser: argparse.ArgumentParser, args, config):
    """File values fill any flag the command line left at None."""
    known = set()
    for action in parser._actions:
        known.add(action.dest)
        if action.dest == "help" or action.dest not in config:
            continue
        if getattr(args, action.dest) is None:
            raw = config[action.dest]
            if isinstance(action, (argparse._StoreTrueAction,
                                   argparse._StoreFalseAction)):
                setattr(args, action.dest, _bool(raw))
            elif action.type is not None:
                setattr(args, action.dest, action.type(raw))
            else:
                setattr(args, action.dest, raw)
    unknown = set(config) - known - {"config"}
    if unknown:
        raise ShapeError(f"unknown config keys: {sorted(unknown)}")
    return args


def build_network(args) -> net.NetworkSpec:
    kwargs = {}
    if args.classes is not None:
        kwargs["n_classes"] = args.classes
    if args.levels is not None:
        kwargs["levels"] = args.levels
    if args.net == "toy":
        if args.channels is not None:
            kwargs["channels"] = args.channels
        if args.in_channels is not None:
            kwargs["in_channels"] = args.in_channels
        if args.fc_width is not None:
            kwargs["fc_width"] = args.fc_width
    return net.build_net(args.net, **kwargs)


def load_store(args) -> net.ParameterStore:
    if not os.path.exists(args.checkpoint):
        raise FileNotFoundError(f"checkpoint {args.checkpoint} does not exist")
    store = net.ParameterStore(seed=args.seed or 0)
    store.load_values(net.load_checkpoint(args.checkpoint))
    return store


def _require(path, what):
    if path is None:
        raise ShapeError(f"missing required option: {what}")
    if not os.path.exists(path):
        raise FileNotFoundError(f"{what} {path} does not exist")
    return path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    manifest = _require(args.train_manifest, "--train-manifest")
    dataset = dataio.load_dataset(manifest)
    if not dataset:
        raise FileNotFoundError(f"train manifest {manifest} lists no images")
    eval_set = (dataio.load_dataset(args.test_manifest)
                if args.test_manifest else None)
    spec = build_network(args)
    config = training.TrainConfig(
        lr=args.lr if args.lr is not None else 0.01,
        momentum=args.momentum if args.momentum is not None else 0.9,
        batch_size=args.batch_size or 32,
        epochs=args.epochs or 10,
        schedule=args.schedule or "single",
        sizes=args.sizes or (32,),
        eval_size=args.eval_size,
        seed=args.seed or 0,
    )
    params, reports = training.train(spec, dataset, config, eval_set=eval_set)
    atomic_write(_require_path(args.out, "--out"),
                 net.checkpoint_bytes(params))
    if args.log:
        atomic_write(args.log, "".join(r.line() + "\n" for r in reports))
    print(f"trained {len(reports)} epochs; final loss "
          f"{reports[-1].loss:.4f} accuracy {reports[-1].accuracy:.4f}")
    return EXIT_OK


def _require_path(path, what):
    if path is None:
        raise ShapeError(f"missing required option: {what}")
    return path


def cmd_eval(args) -> int:
    manifest = _require(args.test_manifest, "--test-manifest")
    dataset = dataio.load_manifest(manifest)
    if not dataset:
        raise FileNotFoundError(f"test manifest {manifest} lists no images")
    spec = build_network(args)
    params = load_store(args)
    try:
        net.instantiate(spec, (args.view or 32,) * 2, params)  # slot check
    except GraphError:
        pass  # too small for this net; slots get checked on first use
    mode = args.mode or "single"
    scale = args.scale or 32
    view = args.view or 32
    correct = 0
    for path, label in dataset:
        pixels = dataio.load_image(path).pixels
        if mode == "single":
            vec = inference.full_image_representation(
                spec, params, pixels, scale, layer=spec.layers[-1].name)
            pred = int(np.argmax(vec))
        elif mode == "10view":
            views = inference.ten_view_windows(
                (pixels.shape[2], pixels.shape[1]), s=scale, view=view)
            pred = int(np.argmax(inference.predict_views(
                spec, params, pixels, views)))
        elif mode == "10view-pixels":
            views = inference.ten_view_windows(
                (pixels.shape[2], pixels.shape[1]), s=scale, view=view)
            pred = int(np.argmax(inference.predict_crops(
                spec, params, pixels, views)))
        elif mode == "96view":
            views = inference.multi_view_windows(
                (pixels.shape[2], pixels.shape[1]),
                scales=args.scales or inference.MULTI_VIEW_SCALES, view=view)
            pred = int(np.argmax(inference.predict_views(
                spec, params, pixels, views)))
        else:
            raise ShapeError(f"unknown eval mode {mode!r}")
        correct += int(pred == label)
    accuracy = correct / len(dataset)
    report = (f"mode,{mode}\nimages,{len(dataset)}\ncorrect,{correct}\n"
              f"accuracy,{accuracy:.6f}\n")
    if args.out:
        atomic_write(args.out, report)
    print(report, end="")
    return EXIT_OK


def cmd_extract(args) -> int:
    manifest = _require(args.manifest, "--manifest")
    spec = build_network(args)
    params = load_store(args)
    entries = dataio.load_manifest(manifest)
    scale = args.scale or 32
    lines = []
    base = os.path.dirname(os.path.abspath(manifest))
    for path, _ in entries:
        pixels = dataio.load_image(path).pixels
        vec = inference.full_image_representation(
            spec, params, pixels, scale, layer=args.layer,
            l2=bool(args.l2))
        rel = os.path.relpath(path, base)
        lines.append(rel + "," + ",".join(f"{v:.6g}" for v in vec))
    out = _require_path(args.out, "--out")
    atomic_write(out, "\n".join(lines) + "\n")
    print(f"wrote {len(lines)} feature vectors to {out}")
    return EXIT_OK


def _load_images(manifest_path):
    by_id = dataio.load_detection_manifest(manifest_path)
    return {image_id: dataio.load_image(p).pixels
            for image_id, p in by_id.items()}


def cmd_detect(args) -> int:
    spec = build_network(args)
    params = load_store(args)
    scales = args.scales or detection.DETECTION_SCALES
    pyramid = args.pyramid or detection.DETECTION_PYRAMID
    view = args.view_size or 224
    train_images = _load_images(_require(args.train_images, "--train-images"))
    train_props = detection.read_proposals(
        _require(args.train_proposals, "--train-proposals"))
    train_gt = detection.read_ground_truth(
        _require(args.train_gt, "--train-gt"))
    classes = sorted({c for entries in train_gt.values()
                      for c, _ in entries})
    extractor = detection.RegionFeatureExtractor(
        spec, params, scales=scales, pyramid=pyramid, view=view)
    model = detection.fit_detector(
        extractor, train_images, train_props, train_gt, classes,
        svm_c=args.svm_c if args.svm_c is not None else 1.0,
        with_bbox=not args.no_bbox)

    images = _load_images(_require(args.images, "--images"))
    proposals = detection.read_proposals(_require(args.proposals,
                                                  "--proposals"))
    nms_t = args.nms_threshold if args.nms_threshold is not None else 0.3
    threads = thread_count()
    detections = _detect_parallel(
        spec, params, model, images, proposals, scales, pyramid, view,
        nms_t, apply_bbox=not args.no_bbox, threads=threads)
    out = _require_path(args.out, "--out")
    atomic_write(out, detection.format_detections(detections))
    print(f"wrote {len(detections)} detections to {out}")
    if args.gt:
        gt = detection.read_ground_truth(_require(args.gt, "--gt"))
        aps, mean = detection.evaluate_map(detections, gt)
        lines = [f"class,{cls},ap,{ap:.6f}" for cls, ap in sorted(aps.items())]
        lines.append(f"mAP,{mean:.6f}")
        report = "\n".join(lines) + "\n"
        if args.map_report:
            atomic_write(args.map_report, report)
        print(report, end="")
    return EXIT_OK


def _detect_parallel(spec, params, model, images, proposals, scales, pyramid,
                     view, nms_t, apply_bbox, threads):
    """Per-image pipelines are independent; each worker owns its extractor
    (and so its feature-map cache)."""
    image_ids = sorted(images)

    def run_one(image_id):
        extractor = detection.RegionFeatureExtractor(
            spec, params, scales=scales, pyramid=pyramid, view=view)
        return detection.run_detector(
            extractor, model, {image_id: images[image_id]}, proposals,
            nms_threshold=nms_t, apply_bbox=apply_bbox)

    if threads <= 1 or len(image_ids) <= 1:
        results = [run_one(i) for i in image_ids]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_one, image_ids))
    return [d for dets in results for d in dets]


def cmd_bench(args) -> int:
    spec = build_network(args)
    params = load_store(args) if args.checkpoint else \
        net.ParameterStore(seed=args.seed or 0)
    if args.checkpoint is None:
        net.instantiate(spec, (args.window_size or 224,) * 2, params)
    if args.image:
        pixels = dataio.load_image(_require(args.image, "--image")).pixels
    else:
        rng = np.random.default_rng(args.seed or 0)
        pixels = rng.uniform(0, 255, size=(spec.in_channels, 96, 128)) \
                    .astype(np.float32)
    n = args.n_proposals or 100
    rng = np.random.default_rng((args.seed or 0) + 1)
    img_h, img_w = pixels.shape[1], pixels.shape[2]
    proposals = []
    for _ in range(n):
        w = int(rng.integers(8, img_w // 2))
        h = int(rng.integers(8, img_h // 2))
        x0 = int(rng.integers(0, img_w - w))
        y0 = int(rng.integers(0, img_h - h))
        proposals.append(detection.WindowRect(x0, y0, x0 + w, y0 + h))
    repeats = args.repeats or 5
    scales = args.scales or (480,)
    lines = ["mode,n,conv_time,pool_time,fc_time,total_time"]
    medians = {}
    for mode in ("shared", "per_window"):
        runs = [detection.speed_bench(
            spec, params, pixels, proposals, mode, scales=scales,
            window_size=args.window_size or 224)
            for _ in range(repeats)]
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
    p.add_argument("--net", default=None, help="network name (toy | zf5)")
    p.add_argument("--classes", type=int, default=None)
    p.add_argument("--levels", type=_int_tuple, default=None,
                   help="pyramid grid sizes, e.g. 3,2,1")
    p.add_argument("--channels", type=_int_tuple, default=None)
    p.add_argument("--in-channels", type=int, default=None)
    p.add_argument("--fc-width", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None, help="key=value defaults file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pyrapool",
        description="pyramid-pooled network toolkit: train, evaluate, "
                    "extract features, detect, benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a classifier")
    _add_net_flags(p)
    p.add_argument("--train-manifest", default=None)
    p.add_argument("--test-manifest", default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--momentum", type=float, default=None)
    p.add_argument("--schedule", default=None,
                   help="single | alternate | random")
    p.add_argument("--sizes", type=_int_tuple, default=None,
                   help="input sizes, e.g. 32,24")
    p.add_argument("--eval-size", type=int, default=None)
    p.add_argument("--out", default=None, help="checkpoint path")
    p.add_argument("--log", default=None, help="epoch log path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_net_flags(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--test-manifest", default=None)
    p.add_argument("--mode", default=None,
                   help="single | 10view | 10view-pixels | 96view")
    p.add_argument("--scale", type=int, default=None)
    p.add_argument("--scales", type=_int_tuple, default=None)
    p.add_argument("--view", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("extract", help="write full-image feature vectors")
    _add_net_flags(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--manifest", default=None)
    p.add_argument("--scale", type=int, default=None)
    p.add_argument("--layer", default=None)
    p.add_argument("--l2", action="store_true", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("detect", help="train SVMs on proposals and detect")
    _add_net_flags(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--train-images", default=None)
    p.add_argument("--train-proposals", default=None)
    p.add_argument("--train-gt", default=None)
    p.add_argument("--images", default=None)
    p.add_argument("--proposals", default=None)
    p.add_argument("--gt", default=None, help="enables the mAP report")
    p.add_argument("--scales", type=_int_tuple, default=None)
    p.add_argument("--pyramid", type=_int_tuple, default=None)
    p.add_argument("--view-size", type=int, default=None)
    p.add_argument("--nms-threshold", type=float, default=None)
    p.add_argument("--svm-c", type=float, default=None)
    p.add_argument("--no-bbox", action="store_true", default=None)
    p.add_argument("--out", default=None, help="detections path")
    p.add_argument("--map-report", default=None)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("bench", help="shared vs per-window timing")
    _add_net_flags(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--image", default=None)
    p.add_argument("--n-proposals", type=int, default=None)
    p.add_argument("--repeats", type=int, default=None)
    p.add_argument("--scales", type=_int_tuple, default=None)
    p.add_argument("--window-size", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            config = read_config_file(args.config)
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    apply_config_defaults(action.choices[args.command], args,
                                          config)
                    break
        if args.net is None:
            args.net = "toy"
        if getattr(args, "no_bbox", False) is None:
            args.no_bbox = False
        return args.func(args)
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except CheckpointError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_CHECKPOINT
    except SpecMismatchError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SPEC_MISMATCH
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
