"""NetPBM codec, mean subtraction, the synthetic corpora, and the line
reader behind the operator text files."""

import os
from pathlib import Path

import numpy as np
import pytest

from pyrapool import cli, dataio, detection
from pyrapool.errors import ShapeError


class TestNetpbm:
    def test_single_pixel_p5(self):
        img = dataio.decode_netpbm(b"P5\n1 1\n255\n" + bytes([128]))
        assert img.channels == 1 and img.width == 1 and img.height == 1
        assert img.pixels[0, 0, 0] == 128

    def test_p6_channel_planes(self):
        payload = bytes([10, 20, 30, 40, 50, 60, 70, 80, 90])
        img = dataio.decode_netpbm(b"P6\n3 1\n255\n" + payload)
        assert img.channels == 3
        np.testing.assert_array_equal(img.pixels[0, 0], [10, 40, 70])
        np.testing.assert_array_equal(img.pixels[1, 0], [20, 50, 80])
        np.testing.assert_array_equal(img.pixels[2, 0], [30, 60, 90])

    def test_comment_in_header(self):
        img = dataio.decode_netpbm(b"P5\n# a comment\n2 1\n255\n" + bytes([1, 2]))
        np.testing.assert_array_equal(img.pixels[0, 0], [1, 2])

    def test_truncated_payload_reports_offset(self):
        with pytest.raises(ShapeError, match="truncated.*byte 11"):
            dataio.decode_netpbm(b"P5\n2 2\n255\n" + bytes([1, 2]))

    def test_bad_magic(self):
        with pytest.raises(ShapeError, match="magic.*byte 0"):
            dataio.decode_netpbm(b"P3\n1 1\n255\n1")

    def test_sixteen_bit_rejected(self):
        with pytest.raises(ShapeError, match="maxval"):
            dataio.decode_netpbm(b"P5\n1 1\n65535\n\0\0")

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(31)
        planes = rng.integers(0, 256, size=(1, 9, 7)).astype(np.float32)
        img = dataio.Image(planes)
        blob = dataio.encode_netpbm(img)
        again = dataio.decode_netpbm(blob)
        np.testing.assert_array_equal(again.pixels, planes)
        assert dataio.encode_netpbm(again) == blob

    def test_round_trip_rgb(self):
        rng = np.random.default_rng(32)
        planes = rng.integers(0, 256, size=(3, 4, 5)).astype(np.float32)
        blob = dataio.encode_netpbm(dataio.Image(planes))
        np.testing.assert_array_equal(dataio.decode_netpbm(blob).pixels, planes)


class TestSubtractMean:
    """`preprocess` subtracts the constant mean 128, then scales by 1/128, a
    power of two: exact on 8-bit values, so scaling back recovers them."""

    def test_constant_image_zeroes(self):
        px = np.full((1, 3, 3), 128.0, np.float32)
        assert not dataio.preprocess(px).any()

    def test_zero_mean_identity(self):
        px = np.arange(-4, 5, dtype=np.float32).reshape(1, 3, 3)
        np.testing.assert_array_equal(
            dataio.preprocess(px + 128.0) * np.float32(128.0), px)

    def test_white_minus_mean(self):
        px = np.full((1, 1, 1), 255.0, np.float32)
        assert dataio.preprocess(px)[0, 0, 0] == np.float32(127.0 / 128.0)

    def test_add_back_recovers(self):
        rng = np.random.default_rng(33)
        planes = rng.integers(0, 256, size=(1, 6, 6)).astype(np.float32)
        out = dataio.preprocess(planes)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out * 128.0 + 128.0, planes)


class TestToyDataset:
    def test_deterministic_and_counts(self, tmp_path):
        roots = []
        for sub in ("a", "b"):
            root = tmp_path / sub
            dataio.generate_toy_dataset(root, seed=99, n_per_class=6,
                                        size_range=(24, 40))
            roots.append(root)
        files_a = sorted(os.listdir(roots[0] / "images"))
        files_b = sorted(os.listdir(roots[1] / "images"))
        assert files_a == files_b
        for name in files_a:
            assert (roots[0] / "images" / name).read_bytes() == \
                   (roots[1] / "images" / name).read_bytes()
        # exactly n_per_class per class across both splits
        train = dataio.load_manifest(roots[0] / "train.txt")
        test = dataio.load_manifest(roots[0] / "test.txt")
        labels = [l for _, l in train + test]
        for cls in range(5):
            assert labels.count(cls) == 6

    def test_canvas_sizes_span_range(self, tmp_path):
        dataio.generate_toy_dataset(tmp_path, seed=5, n_per_class=30,
                                    size_range=(24, 40))
        sizes = set()
        for path, _ in dataio.load_manifest(tmp_path / "train.txt"):
            img = dataio.load_image(path)
            assert 24 <= img.width <= 40
            sizes.add(img.width)
        assert len(sizes) > 8

    def test_images_decodable_and_labeled(self, tmp_path):
        dataio.generate_toy_dataset(tmp_path, seed=1, n_per_class=3)
        data = dataio.load_dataset(tmp_path / "test.txt")
        assert all(px.ndim == 3 for px, _ in data)
        assert {label for _, label in data} <= set(range(5))


class TestDetectionCorpus:
    def test_files_and_bounds(self, tmp_path):
        paths = dataio.generate_toy_detection_dataset(tmp_path, seed=3,
                                                      n_images=6)
        by_id = dataio.load_detection_manifest(paths["manifest"])
        assert len(by_id) == 6
        sizes = {}
        for image_id, p in by_id.items():
            img = dataio.load_image(p)
            sizes[image_id] = (img.width, img.height)
        n_gt = 0
        with open(paths["gt"]) as f:
            for line in f:
                image_id, cls, x0, y0, x1, y1 = line.strip().split(",")
                w, h = sizes[image_id]
                assert 0 <= int(x0) < int(x1) <= w
                assert 0 <= int(y0) < int(y1) <= h
                assert 0 <= int(cls) < 4
                n_gt += 1
        assert n_gt >= 6
        with open(paths["proposals"]) as f:
            n_props = sum(1 for line in f if line.strip())
        assert n_props > n_gt

    def test_deterministic(self, tmp_path):
        pa = dataio.generate_toy_detection_dataset(tmp_path / "a", seed=8,
                                                   n_images=4)
        pb = dataio.generate_toy_detection_dataset(tmp_path / "b", seed=8,
                                                   n_images=4)
        for key in ("gt", "proposals"):
            assert Path(pa[key]).read_text() == Path(pb[key]).read_text()


# the five operator text files and the reader of each
READERS = {
    "manifest": dataio.load_manifest,
    "detection_manifest": dataio.load_detection_manifest,
    "proposals": detection.read_proposals,
    "gt": detection.read_ground_truth,
    "config": cli.read_config_file,
}
# the corruptions each format can suffer, and its integer fields
CORRUPTIONS = {
    "manifest": ("drop_field", "non_integer"),
    "detection_manifest": ("drop_field",),
    "proposals": ("drop_field", "non_integer", "invert_box"),
    "gt": ("drop_field", "non_integer", "invert_box"),
    "config": ("drop_equals",),
}
INT_FIELDS = {"manifest": (1,), "proposals": (1, 2, 3, 4),
              "gt": (1, 2, 3, 4, 5)}


@pytest.fixture(scope="module", params=(0, 1, 2))
def operator_files(request, tmp_path_factory):
    """Valid files of all five formats, written by the corpus generators (the
    config by hand), for one seed."""
    seed = request.param
    root = tmp_path_factory.mktemp(f"operator{seed}")
    train, _ = dataio.generate_toy_dataset(root / "cls", seed=seed,
                                           n_per_class=2)
    det = dataio.generate_toy_detection_dataset(root / "det", seed=seed,
                                                n_images=3)
    config = root / "run.cfg"
    config.write_text("# a training run\nepochs=3\nbatch-size=16\nlr=0.05\n"
                      "sizes=32,24\nschedule=alternate\n")
    files = {"manifest": train, "detection_manifest": det["manifest"],
             "proposals": det["proposals"], "gt": det["gt"],
             "config": str(config)}
    return seed, {k: Path(v).read_text().splitlines()
                  for k, v in files.items()}


def _corrupt(kind, fmt, line, rng):
    if kind == "drop_equals":
        return line.replace("=", "", 1)
    parts = line.split(",")
    if kind == "drop_field":
        del parts[int(rng.integers(len(parts)))]
    elif kind == "non_integer":
        field = INT_FIELDS[fmt][int(rng.integers(len(INT_FIELDS[fmt])))]
        parts[field] = ("x", "1.5", "", "7a")[int(rng.integers(4))]
    else:  # invert_box: swap x0 with x1, or y0 with y1
        i = len(parts) - 4 + int(rng.integers(2))
        parts[i], parts[i + 2] = parts[i + 2], parts[i]
    return ",".join(parts)


class TestOperatorFiles:
    @pytest.mark.parametrize("fmt", sorted(READERS))
    def test_blank_lines_and_padding_skipped(self, operator_files, fmt,
                                             tmp_path):
        seed, files = operator_files
        rng = np.random.default_rng(seed)
        lines = list(files[fmt])
        clean = tmp_path / "clean.txt"
        clean.write_text("\n".join(lines) + "\n")
        i = int(rng.integers(len(lines)))
        lines[i] = "  " + lines[i] + " \t"
        for _ in range(3):
            lines.insert(int(rng.integers(len(lines) + 1)),
                         ("", "   ", "\t")[int(rng.integers(3))])
        padded = tmp_path / "padded.txt"
        padded.write_text("\n".join(lines) + "\n")
        expected = READERS[fmt](str(clean))
        assert expected
        assert READERS[fmt](str(padded)) == expected

    @pytest.mark.parametrize("fmt,kind", [
        (fmt, kind) for fmt, kinds in CORRUPTIONS.items() for kind in kinds])
    def test_corrupt_line_names_path_and_line(self, operator_files, fmt,
                                              kind, tmp_path):
        seed, files = operator_files
        rng = np.random.default_rng([seed, len(fmt), len(kind)])
        lines = list(files[fmt])
        lines.insert(int(rng.integers(len(lines) + 1)), "")
        candidates = [i for i, line in enumerate(lines)
                      if line and not line.startswith("#")]
        i = candidates[int(rng.integers(len(candidates)))]
        lines[i] = _corrupt(kind, fmt, lines[i], rng)
        path = tmp_path / "corrupt.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ShapeError) as err:
            READERS[fmt](str(path))
        assert str(err.value).startswith(f"{path}:{i + 1}: ")

    def test_repeated_detection_id_names_path_and_line(self, tmp_path):
        # before: the later line silently replaced the earlier one
        path = tmp_path / "manifest.txt"
        path.write_text("det_0000,a.pgm\ndet_0001,b.pgm\n\n"
                        "det_0000,b.pgm\n")
        with pytest.raises(ShapeError) as err:
            dataio.load_detection_manifest(str(path))
        assert str(err.value) == f"{path}:4: image id det_0000 repeats"

    def test_non_utf8_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_bytes(b"a,1\n\xff\xfe,2\n")
        with pytest.raises(ShapeError) as err:
            dataio.load_manifest(str(path))
        assert str(err.value).startswith(f"{path}:2: ")
