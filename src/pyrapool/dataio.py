"""Image decoding (NetPBM P5/P6), manifests, mean subtraction, and the
synthetic shape corpora used for desk-scale training and detection runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .geometry import WindowRect, iou

CLASS_NAMES = ("circle", "triangle", "square", "cross", "blank")
DETECT_CLASS_NAMES = CLASS_NAMES[:4]  # blank is background only


@dataclass(frozen=True)
class Image:
    """Decoded raster: float32 planes shaped (channels, height, width) holding
    the original 8-bit sample values."""

    pixels: np.ndarray

    def __post_init__(self):
        if self.pixels.ndim != 3 or self.pixels.shape[0] not in (1, 3):
            raise ShapeError(
                f"image planes must be (1|3, h, w), got {self.pixels.shape}")
        if self.pixels.shape[1] < 1 or self.pixels.shape[2] < 1:
            raise ShapeError(f"degenerate image {self.pixels.shape}")

    @property
    def channels(self) -> int:
        return self.pixels.shape[0]

    @property
    def height(self) -> int:
        return self.pixels.shape[1]

    @property
    def width(self) -> int:
        return self.pixels.shape[2]


def _parse_pnm_tokens(data: bytes, count: int):
    """Read `count` whitespace/comment-delimited ASCII tokens after the magic;
    returns (tokens, offset just past the single whitespace ending the header).
    """
    tokens = []
    i = 2  # past magic
    while len(tokens) < count:
        while i < len(data) and data[i:i + 1].isspace():
            i += 1
        if i < len(data) and data[i:i + 1] == b"#":
            while i < len(data) and data[i:i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < len(data) and not data[i:i + 1].isspace():
            i += 1
        if start == i:
            raise ShapeError(f"malformed NetPBM header at byte {start}")
        tokens.append(data[start:i])
    if i >= len(data) or not data[i:i + 1].isspace():
        raise ShapeError(f"missing whitespace after NetPBM header at byte {i}")
    return tokens, i + 1


def decode_netpbm(data: bytes) -> Image:
    """Decode binary P5 (grayscale) or P6 (RGB) bytes, maxval <= 255."""
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise ShapeError(f"unsupported NetPBM magic {magic!r} at byte 0")
    channels = 1 if magic == b"P5" else 3
    tokens, offset = _parse_pnm_tokens(data, 3)
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError:
        raise ShapeError(f"non-numeric NetPBM header field before byte {offset}")
    if w < 1 or h < 1:
        raise ShapeError(f"degenerate NetPBM dimensions {w}x{h}")
    if not 0 < maxval <= 255:
        raise ShapeError(f"only 8-bit NetPBM supported, maxval={maxval}")
    need = w * h * channels
    payload = data[offset:offset + need]
    if len(payload) < need:
        raise ShapeError(
            f"truncated NetPBM payload: expected {need} bytes at byte "
            f"{offset}, got {len(payload)}")
    arr = np.frombuffer(payload, dtype=np.uint8).astype(np.float32)
    if channels == 1:
        planes = arr.reshape(1, h, w)
    else:
        planes = arr.reshape(h, w, 3).transpose(2, 0, 1)
    return Image(planes)


def encode_netpbm(image: Image) -> bytes:
    """Binary P5/P6 encoding; values must already be integral 0..255."""
    px = image.pixels
    if px.min() < 0 or px.max() > 255:
        raise ShapeError("pixel values outside 0..255 cannot be encoded")
    samples = np.rint(px).astype(np.uint8)
    if image.channels == 1:
        magic, payload = b"P5", samples[0].tobytes()
    else:
        magic, payload = b"P6", samples.transpose(1, 2, 0).tobytes()
    header = b"%s\n%d %d\n255\n" % (magic, image.width, image.height)
    return header + payload


def load_image(path) -> Image:
    with open(path, "rb") as f:
        return decode_netpbm(f.read())


def save_image(path, image: Image):
    with open(path, "wb") as f:
        f.write(encode_netpbm(image))


def preprocess(pixels: np.ndarray, mean: float = 128.0,
               scale: float = 1.0 / 128.0) -> np.ndarray:
    """Network input conditioning: subtract the constant mean, then scale.
    The defaults, (x - 128) / 128, are the one normalisation that training,
    view testing and detection all feed the network."""
    return ((pixels.astype(np.float32) - np.float32(mean))
            * np.float32(scale))


# ---------------------------------------------------------------------------
# synthetic shape rendering
# ---------------------------------------------------------------------------

def _render_shape(class_id: int, h: int, w: int, rng: np.random.Generator):
    """Draw one shape on an h x w noise canvas; returns (planes, tight bbox).

    bbox is (x0, y0, x1, y1) half-open, or None for the blank class.
    """
    canvas = rng.normal(24.0, 8.0, size=(h, w))
    name = CLASS_NAMES[class_id]
    if name == "blank":
        return np.clip(canvas, 0, 255)[None].astype(np.float32), None

    half = int(min(h, w) * rng.uniform(0.24, 0.38))
    half = max(4, half)
    cy = int(rng.integers(half, h - half))
    cx = int(rng.integers(half, w - half))
    fg = rng.uniform(170.0, 230.0)
    yy, xx = np.mgrid[0:h, 0:w]

    if name == "circle":
        mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= half * half
    elif name == "square":
        mask = (np.abs(yy - cy) <= half) & (np.abs(xx - cx) <= half)
    elif name == "triangle":
        # filled upward triangle: width grows linearly from apex to base
        rel = (yy - (cy - half)) / (2.0 * half)
        mask = (rel >= 0) & (rel <= 1) & (np.abs(xx - cx) <= rel * half)
    elif name == "cross":
        bar = max(2, half // 3)
        mask = ((np.abs(yy - cy) <= bar) & (np.abs(xx - cx) <= half)) | (
            (np.abs(xx - cx) <= bar) & (np.abs(yy - cy) <= half))
    else:  # pragma: no cover
        raise ShapeError(f"unknown class {class_id}")

    canvas[mask] = fg + rng.normal(0.0, 6.0, size=int(mask.sum()))
    ys, xs = np.nonzero(mask)
    bbox = (int(xs.min()), int(ys.min()), int(xs.max()) + 1, int(ys.max()) + 1)
    return np.clip(canvas, 0, 255)[None].astype(np.float32), bbox


def generate_toy_dataset(root, seed: int, n_per_class: int,
                         size_range=(24, 40), test_fraction: float = 0.2):
    """Write a 5-class shape corpus under `root` and return the train/test
    manifest paths. Deterministic for a fixed seed; exactly n_per_class images
    per class across both splits."""
    lo, hi = size_range
    if lo < 8 or hi < lo:
        raise ShapeError(f"bad canvas size range {size_range}")
    rng = np.random.default_rng(seed)
    img_dir = os.path.join(root, "images")
    os.makedirs(img_dir, exist_ok=True)
    n_test = int(round(n_per_class * test_fraction))
    train_lines, test_lines = [], []
    for cls in range(len(CLASS_NAMES)):
        for idx in range(n_per_class):
            size = int(rng.integers(lo, hi + 1))
            planes, _ = _render_shape(cls, size, size, rng)
            name = f"{CLASS_NAMES[cls]}_{idx:04d}.pgm"
            save_image(os.path.join(img_dir, name), Image(planes))
            line = f"images/{name},{cls}"
            (test_lines if idx < n_test else train_lines).append(line)
    train_path = os.path.join(root, "train.txt")
    test_path = os.path.join(root, "test.txt")
    with open(train_path, "w") as f:
        f.write("\n".join(train_lines) + "\n")
    with open(test_path, "w") as f:
        f.write("\n".join(test_lines) + "\n")
    return train_path, test_path


def read_records(path, parse):
    """`parse(line)` for each non-blank, stripped line of the operator text
    file `path`, in file order; a ValueError (ShapeError too) from `parse` is
    re-raised as ShapeError("path:line: reason")."""
    records = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(parse(line))
            except ValueError as e:
                raise ShapeError(f"{path}:{lineno}: {e}") from None
    return records


def load_manifest(path):
    """Classification manifest lines `relative/path,label` -> list of tuples
    (absolute path, int label). The label is split off the right, so paths
    may hold commas."""
    base = os.path.dirname(os.path.abspath(path))

    def entry(line):
        rel, label = line.rsplit(",", 1)
        return os.path.join(base, rel), int(label)

    return read_records(path, entry)


def load_dataset(manifest_path):
    """Decode every manifest entry into ((c,h,w) float32 pixels, label)."""
    return [(load_image(p).pixels, label)
            for p, label in load_manifest(manifest_path)]


# ---------------------------------------------------------------------------
# synthetic detection corpus
# ---------------------------------------------------------------------------

def _jitter_box(box, img_w, img_h, rng):
    x0, y0, x1, y1 = box
    w = x1 - x0
    h = y1 - y0
    dx = int(round(rng.normal(0, 0.06) * w))
    dy = int(round(rng.normal(0, 0.06) * h))
    gw = max(4, int(round(w * rng.uniform(0.85, 1.18))))
    gh = max(4, int(round(h * rng.uniform(0.85, 1.18))))
    cx = (x0 + x1) // 2 + dx
    cy = (y0 + y1) // 2 + dy
    nx0 = max(0, cx - gw // 2)
    ny0 = max(0, cy - gh // 2)
    nx1 = min(img_w, nx0 + gw)
    ny1 = min(img_h, ny0 + gh)
    if nx1 - nx0 < 4 or ny1 - ny0 < 4:
        return box
    return (nx0, ny0, nx1, ny1)


def generate_toy_detection_dataset(root, seed: int, n_images: int,
                                   canvas_range=(56, 96),
                                   shapes_per_image=(1, 3),
                                   jitters_per_gt: int = 4,
                                   random_boxes: int = 8):
    """Write a detection corpus: images with 1..3 non-blank shapes, a
    ground-truth file, and a proposal file of jittered ground-truth boxes plus
    random background boxes.

    Files written under `root`:
      images/det_*.pgm
      manifest.txt   image_id,relative path
      gt.txt         image_id,class_id,x0,y0,x1,y1
      proposals.txt  image_id,x0,y0,x1,y1
    """
    rng = np.random.default_rng(seed)
    img_dir = os.path.join(root, "images")
    os.makedirs(img_dir, exist_ok=True)
    lo, hi = canvas_range
    manifest, gt_lines, prop_lines = [], [], []
    for i in range(n_images):
        image_id = f"det_{i:04d}"
        h = int(rng.integers(lo, hi + 1))
        w = int(rng.integers(lo, hi + 1))
        canvas = np.clip(rng.normal(24.0, 8.0, size=(h, w)), 0, 255)
        n_shapes = int(rng.integers(shapes_per_image[0], shapes_per_image[1] + 1))
        boxes = []
        for _ in range(n_shapes):
            cls = int(rng.integers(0, len(DETECT_CLASS_NAMES)))
            side = int(rng.integers(18, min(h, w) // 2 + 8))
            for _attempt in range(20):
                y0 = int(rng.integers(0, h - side))
                x0 = int(rng.integers(0, w - side))
                cand = WindowRect(x0, y0, x0 + side, y0 + side)
                if all(iou(cand, WindowRect(*b[1])) < 0.15 for b in boxes):
                    break
            else:
                continue
            planes, bbox = _render_shape(cls, side, side, rng)
            patch = planes[0]
            region = canvas[y0:y0 + side, x0:x0 + side]
            canvas[y0:y0 + side, x0:x0 + side] = np.maximum(region, patch)
            tight = (x0 + bbox[0], y0 + bbox[1], x0 + bbox[2], y0 + bbox[3])
            boxes.append((cls, tight))
        name = f"{image_id}.pgm"
        save_image(os.path.join(img_dir, name),
                   Image(canvas[None].astype(np.float32)))
        manifest.append(f"{image_id},images/{name}")
        for cls, b in boxes:
            gt_lines.append(f"{image_id},{cls},{b[0]},{b[1]},{b[2]},{b[3]}")
            for _ in range(jitters_per_gt):
                j = _jitter_box(b, w, h, rng)
                prop_lines.append(
                    f"{image_id},{j[0]},{j[1]},{j[2]},{j[3]}")
        for _ in range(random_boxes):
            bw = int(rng.integers(12, max(14, w // 2)))
            bh = int(rng.integers(12, max(14, h // 2)))
            x0 = int(rng.integers(0, w - bw))
            y0 = int(rng.integers(0, h - bh))
            prop_lines.append(f"{image_id},{x0},{y0},{x0 + bw},{y0 + bh}")
    paths = {
        "manifest": os.path.join(root, "manifest.txt"),
        "gt": os.path.join(root, "gt.txt"),
        "proposals": os.path.join(root, "proposals.txt"),
    }
    for key, lines in (("manifest", manifest), ("gt", gt_lines),
                       ("proposals", prop_lines)):
        with open(paths[key], "w") as f:
            f.write("\n".join(lines) + "\n")
    return paths


def load_detection_manifest(path):
    """Detection manifest lines `image_id,relative path` -> dict id -> path."""
    base = os.path.dirname(os.path.abspath(path))

    def entry(line):
        image_id, rel = line.split(",", 1)
        return image_id, os.path.join(base, rel)

    return dict(read_records(path, entry))
