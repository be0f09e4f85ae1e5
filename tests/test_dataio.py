"""NetPBM codec, mean subtraction, and the synthetic corpora."""

import os

import numpy as np
import pytest

from pyrapool import dataio
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
    """`preprocess` at scale 1 is plain constant-mean subtraction."""

    def test_constant_image_zeroes(self):
        px = np.full((1, 3, 3), 128.0, np.float32)
        assert not dataio.preprocess(px, 128.0, 1.0).any()

    def test_zero_mean_identity(self):
        px = np.arange(9, dtype=np.float32).reshape(1, 3, 3)
        np.testing.assert_array_equal(dataio.preprocess(px, 0.0, 1.0), px)

    def test_white_minus_mean(self):
        px = np.full((1, 1, 1), 255.0, np.float32)
        assert dataio.preprocess(px, 128.0, 1.0)[0, 0, 0] == 127.0

    def test_add_back_recovers(self):
        rng = np.random.default_rng(33)
        planes = rng.integers(0, 256, size=(1, 6, 6)).astype(np.float32)
        out = dataio.preprocess(planes, 128.0, 1.0)
        np.testing.assert_array_equal(out + 128.0, planes)


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
            assert open(pa[key]).read() == open(pb[key]).read()
