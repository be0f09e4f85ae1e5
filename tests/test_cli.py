"""Command-line behavior: config merging, reproducible outputs, exit codes."""

import os
import threading
from pathlib import Path

import numpy as np
import pytest

from pyrapool import cli, dataio, inference, net, training

from _oracles import oracle_predict_views


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    dataio.generate_toy_dataset(root / "cls", seed=13, n_per_class=24,
                                size_range=(24, 36))
    det_paths = dataio.generate_toy_detection_dataset(root / "det", seed=14,
                                                      n_images=6)
    return root, det_paths


@pytest.fixture(scope="module")
def checkpoint(corpus, tmp_path_factory):
    root, _ = corpus
    out = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    log = str(out) + ".log"
    rc = cli.main([
        "train",
        "--train-manifest", str(root / "cls" / "train.txt"),
        "--test-manifest", str(root / "cls" / "test.txt"),
        "--epochs", "4", "--sizes", "28", "--seed", "5",
        "--out", str(out), "--log", log,
    ])
    assert rc == 0
    return out


class TestConfigFile:
    def test_values_fill_unset_flags(self, tmp_path, corpus, checkpoint):
        root, _ = corpus
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "mode=single\nscale=28\n"
            f"checkpoint={checkpoint}\n"
            f"test_manifest={root / 'cls' / 'test.txt'}\n")
        rc = cli.main(["eval", "--config", str(cfg)])
        assert rc == 0

    def test_flags_override_file(self, tmp_path, corpus, checkpoint, capsys):
        root, _ = corpus
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode=96view\nscale=28\n"
                       f"checkpoint={checkpoint}\n"
                       f"test_manifest={root / 'cls' / 'test.txt'}\n")
        rc = cli.main(["eval", "--config", str(cfg), "--mode", "single"])
        assert rc == 0
        assert "mode,single" in capsys.readouterr().out

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus_key=1\n")
        rc = cli.main(["eval", "--config", str(cfg)])
        assert rc == cli.EXIT_ERROR

    def test_missing_config_file(self):
        rc = cli.main(["eval", "--config", "/nonexistent.cfg"])
        assert rc == cli.EXIT_MISSING_INPUT

    def test_bad_value_names_file_and_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=abc\n")
        rc = cli.main(["train", "--config", str(cfg)])
        assert rc == cli.EXIT_ERROR
        assert f"{cfg}: epochs: invalid literal" in capsys.readouterr().err

    def test_unknown_key_names_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus_key=1\n")
        rc = cli.main(["eval", "--config", str(cfg)])
        assert rc == cli.EXIT_ERROR
        assert f"{cfg}: unknown config keys: ['bogus_key']" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("word", ["ture", "flase", "2"])
    def test_bad_store_true_value_names_file_and_key(self, tmp_path, capsys,
                                                     word):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"l2={word}\n")
        rc = cli.main(["extract", "--config", str(cfg)])
        assert rc == cli.EXIT_ERROR
        assert f"{cfg}: l2: expected 1/0, true/false" in capsys.readouterr().err

    @pytest.mark.parametrize("word,value", [
        ("1", True), ("TRUE", True), ("yes", True), ("On", True),
        ("0", False), ("false", False), ("no", False), ("off", False)])
    def test_store_true_words(self, tmp_path, monkeypatch, word, value):
        seen = []
        monkeypatch.setattr(cli, "cmd_extract",
                            lambda args: seen.append(args.l2) or 0)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# comment\nl2 = {word}\n"
                       "manifest=m.txt\ncheckpoint=m.ckpt\nout=f.txt\n")
        assert cli.main(["extract", "--config", str(cfg)]) == cli.EXIT_OK
        assert seen == [value]


class TestTrainReproducibility:
    def test_same_seed_same_bytes(self, corpus, tmp_path):
        root, _ = corpus
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub / "model.ckpt"
            os.makedirs(out.parent)
            rc = cli.main([
                "train",
                "--train-manifest", str(root / "cls" / "train.txt"),
                "--epochs", "2", "--sizes", "24", "--seed", "7",
                "--out", str(out), "--log", str(out) + ".log",
            ])
            assert rc == 0
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert (str(outs[0]) + ".log" != str(outs[1]) + ".log")
        assert Path(str(outs[0]) + ".log").read_text() == \
            Path(str(outs[1]) + ".log").read_text()

    def test_stale_staging_path_does_not_block(self, corpus, tmp_path):
        root, _ = corpus
        out = tmp_path / "model.ckpt"
        os.makedirs(str(out) + ".tmp-ckpt")
        rc = cli.main([
            "train",
            "--train-manifest", str(root / "cls" / "train.txt"),
            "--epochs", "1", "--sizes", "24", "--seed", "7",
            "--out", str(out),
        ])
        assert rc == 0
        assert net.load_checkpoint(out)
        assert sorted(os.listdir(tmp_path)) == ["model.ckpt",
                                                "model.ckpt.tmp-ckpt"]

    def test_checkpoint_round_trip_identical_eval(self, corpus, checkpoint,
                                                  tmp_path, capsys):
        root, _ = corpus
        store = net.ParameterStore()
        store.load_values(net.load_checkpoint(checkpoint))
        again = tmp_path / "again.ckpt"
        net.save_checkpoint(store, again)
        assert again.read_bytes() == checkpoint.read_bytes()
        outputs = []
        for ck in (checkpoint, again):
            rc = cli.main(["eval", "--checkpoint", str(ck),
                           "--test-manifest", str(root / "cls" / "test.txt"),
                           "--mode", "single", "--scale", "28"])
            assert rc == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestEvalViews:
    @pytest.mark.parametrize("mode,flags", [
        ("10view", ["--scale", "28", "--view", "24"]),
        ("96view", ["--scales", "24,28,32", "--view", "24"])])
    def test_report_matches_oracle_views(self, corpus, checkpoint, tmp_path,
                                         monkeypatch, mode, flags):
        # the report, and every image's averaged probabilities, are the ones
        # the one-pass-per-(scale, flip) path gives
        root, _ = corpus
        reports, probs = [], []
        for label, predict in (("new", inference.predict_views),
                               ("oracle", oracle_predict_views)):
            seen = []

            def recorded(*args, predict=predict, seen=seen):
                out = predict(*args)
                seen.append(out.tobytes())
                return out

            monkeypatch.setattr(inference, "predict_views", recorded)
            out = tmp_path / f"{label}.txt"
            rc = cli.main(["eval", "--checkpoint", str(checkpoint),
                           "--test-manifest", str(root / "cls" / "test.txt"),
                           "--mode", mode, *flags, "--out", str(out)])
            assert rc == 0
            reports.append(out.read_bytes())
            probs.append(seen)
        assert reports[0] == reports[1]
        assert f"mode,{mode}".encode() in reports[0]
        assert len(probs[0]) > 0 and probs[0] == probs[1]


class TestAtomicWrite:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_mode_follows_umask(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            cli.atomic_write(tmp_path / "text.txt", "x\n")
            cli.atomic_write(tmp_path / "bytes.bin", b"x")
        finally:
            os.umask(old)
        for name in ("text.txt", "bytes.bin"):
            assert os.stat(tmp_path / name).st_mode & 0o777 == mode


class TestDetect:
    def test_detect_writes_reproducible_outputs(self, corpus, checkpoint,
                                                tmp_path):
        root, det_paths = corpus
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub / "dets.txt"
            os.makedirs(out.parent)
            rc = cli.main([
                "detect", "--checkpoint", str(checkpoint),
                "--train-images", det_paths["manifest"],
                "--train-proposals", det_paths["proposals"],
                "--train-gt", det_paths["gt"],
                "--images", det_paths["manifest"],
                "--proposals", det_paths["proposals"],
                "--gt", det_paths["gt"],
                "--scales", "48,64", "--view-size", "32", "--seed", "3",
                "--out", str(out), "--map-report", str(out) + ".map",
            ])
            assert rc == 0
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert Path(str(outs[0]) + ".map").read_text() == \
            Path(str(outs[1]) + ".map").read_text()

    def test_empty_proposals_empty_detections(self, corpus, checkpoint,
                                              tmp_path):
        root, det_paths = corpus
        empty = tmp_path / "none.txt"
        empty.write_text("")
        out = tmp_path / "dets.txt"
        rc = cli.main([
            "detect", "--checkpoint", str(checkpoint),
            "--train-images", det_paths["manifest"],
            "--train-proposals", det_paths["proposals"],
            "--train-gt", det_paths["gt"],
            "--images", det_paths["manifest"],
            "--proposals", str(empty),
            "--scales", "48", "--view-size", "32",
            "--out", str(out),
        ])
        assert rc == 0
        assert out.read_text() == ""

    def test_corrupt_proposals_line_exits_1(self, corpus, checkpoint,
                                            tmp_path, capsys):
        root, det_paths = corpus
        lines = Path(det_paths["proposals"]).read_text().splitlines()
        lines[2] = "det_0000,1,x,3,4"
        bad = tmp_path / "props.txt"
        bad.write_text("\n".join(lines) + "\n")
        rc = cli.main([
            "detect", "--checkpoint", str(checkpoint),
            "--train-images", det_paths["manifest"],
            "--train-proposals", det_paths["proposals"],
            "--train-gt", det_paths["gt"],
            "--images", det_paths["manifest"],
            "--proposals", str(bad),
            "--scales", "48", "--view-size", "32",
            "--out", str(tmp_path / "dets.txt"),
        ])
        assert rc == cli.EXIT_ERROR
        assert f"{bad}:3: " in capsys.readouterr().err
        assert not (tmp_path / "dets.txt").exists()

    def test_corrupt_gt_line_exits_1_before_fitting(self, corpus, checkpoint,
                                                    tmp_path, capsys,
                                                    monkeypatch):
        root, det_paths = corpus
        lines = Path(det_paths["gt"]).read_text().splitlines()
        lines[1] = "det_0000,0,1,2,y,4"
        bad = tmp_path / "gt.txt"
        bad.write_text("\n".join(lines) + "\n")
        fits = []
        monkeypatch.setattr(cli.detection, "fit_detector",
                            lambda *a, **k: fits.append(a))
        rc = cli.main([
            "detect", "--checkpoint", str(checkpoint),
            "--train-images", det_paths["manifest"],
            "--train-proposals", det_paths["proposals"],
            "--train-gt", det_paths["gt"],
            "--images", det_paths["manifest"],
            "--proposals", det_paths["proposals"],
            "--gt", str(bad),
            "--scales", "48", "--view-size", "32",
            "--out", str(tmp_path / "dets.txt"),
        ])
        assert rc == cli.EXIT_ERROR
        assert f"{bad}:2: " in capsys.readouterr().err
        assert fits == []
        assert not (tmp_path / "dets.txt").exists()

    def test_threads_env_same_output(self, corpus, checkpoint, tmp_path,
                                     monkeypatch):
        root, det_paths = corpus
        outs = []
        for threads, sub in (("1", "a"), ("2", "b")):
            monkeypatch.setenv("PYRAPOOL_THREADS", threads)
            out = tmp_path / sub / "dets.txt"
            os.makedirs(out.parent)
            rc = cli.main([
                "detect", "--checkpoint", str(checkpoint),
                "--train-images", det_paths["manifest"],
                "--train-proposals", det_paths["proposals"],
                "--train-gt", det_paths["gt"],
                "--images", det_paths["manifest"],
                "--proposals", det_paths["proposals"],
                "--scales", "48", "--view-size", "32",
                "--out", str(out),
            ])
            assert rc == 0
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()


    def test_two_threads_finish_within_the_count(self, corpus, checkpoint,
                                                 tmp_path, monkeypatch):
        # the image workers reach `prepare`, which starts threaded work of
        # its own: each run must end, with at most 2 trunk passes at once
        # and the serial bytes, at 1 and 2 threads over 6 images
        root, det_paths = corpus
        assert len(dataio.load_detection_manifest(det_paths["manifest"])) >= 3
        busy = {"now": 0, "most": 0}
        lock = threading.Lock()
        conv_features = net.NetworkInstance.conv_features

        def counted(self, x):
            with lock:
                busy["now"] += 1
                busy["most"] = max(busy["most"], busy["now"])
            try:
                return conv_features(self, x)
            finally:
                with lock:
                    busy["now"] -= 1

        monkeypatch.setattr(net.NetworkInstance, "conv_features", counted)
        texts = []
        for threads in ("1", "2"):
            monkeypatch.setenv("PYRAPOOL_THREADS", threads)
            out = tmp_path / threads / "dets.txt"
            os.makedirs(out.parent)
            codes = []
            run = threading.Thread(target=lambda: codes.append(cli.main([
                "detect", "--checkpoint", str(checkpoint),
                "--train-images", det_paths["manifest"],
                "--train-proposals", det_paths["proposals"],
                "--train-gt", det_paths["gt"],
                "--images", det_paths["manifest"],
                "--proposals", det_paths["proposals"],
                "--scales", "48,64,96", "--view-size", "32",
                "--out", str(out),
            ])), daemon=True)
            run.start()
            run.join(timeout=120)
            assert not run.is_alive(), f"detect hung at {threads} threads"
            assert codes == [0]
            texts.append(out.read_bytes())
        assert busy["most"] <= 2
        assert texts[0] and texts[0] == texts[1]


class TestExtract:
    def test_extract_reproducible_and_l2(self, corpus, checkpoint, tmp_path):
        root, _ = corpus
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub / "feats.txt"
            os.makedirs(out.parent)
            rc = cli.main([
                "extract", "--checkpoint", str(checkpoint),
                "--manifest", str(root / "cls" / "test.txt"),
                "--scale", "28", "--l2", "--out", str(out),
            ])
            assert rc == 0
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        first = outs[0].read_text().splitlines()[0].split(",")
        vec = np.array([float(v) for v in first[1:]])
        assert np.isclose(np.linalg.norm(vec), 1.0, atol=1e-4)


class TestBench:
    def test_single_proposal_ratio_near_one_allowed(self, checkpoint, capsys):
        rc = cli.main(["bench", "--checkpoint", str(checkpoint),
                       "--n-proposals", "1", "--repeats", "2",
                       "--scales", "64", "--window-size", "48",
                       "--seed", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup_conv," in out
        ratio = float([l for l in out.splitlines()
                       if l.startswith("speedup_conv")][0].split(",")[1])
        assert ratio > 0.05  # ratio field present; near 1 is fine at n=1

    def test_report_rows(self, checkpoint, tmp_path):
        out = tmp_path / "bench.txt"
        rc = cli.main(["bench", "--checkpoint", str(checkpoint),
                       "--n-proposals", "5", "--repeats", "2",
                       "--scales", "64", "--window-size", "48",
                       "--seed", "2", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "mode,n,conv_time,pool_time,fc_time,total_time"
        assert lines[1].startswith("shared,5,")
        assert lines[2].startswith("per_window,5,")


    @pytest.mark.parametrize("channels", [1, 3])
    def test_image_channels_checked(self, checkpoint, tmp_path, capsys,
                                    channels):
        # before: a 3-channel image failed in the trunk, naming no file
        image = tmp_path / ("colour.ppm" if channels == 3 else "grey.pgm")
        dataio.save_image(image, dataio.Image(np.random.default_rng(0)
                          .integers(0, 256, (channels, 64, 85))
                          .astype(np.float32)))
        rc = cli.main(["bench", "--checkpoint", str(checkpoint),
                       "--image", str(image), "--n-proposals", "2",
                       "--repeats", "1", "--scales", "64",
                       "--window-size", "48"])
        err = capsys.readouterr().err
        if channels == 1:
            assert rc == cli.EXIT_OK and err == ""
        else:
            assert rc == cli.EXIT_ERROR
            assert err == (f"error: {image}: image has 3 channel(s), the "
                           f"network expects 1\n")


class TestExitCodes:
    def test_missing_input(self, corpus):
        root, _ = corpus
        rc = cli.main(["eval", "--checkpoint", "/nonexistent.ckpt",
                       "--test-manifest", str(root / "cls" / "test.txt")])
        assert rc == cli.EXIT_MISSING_INPUT

    def test_empty_manifest(self, checkpoint, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        rc = cli.main(["eval", "--checkpoint", str(checkpoint),
                       "--test-manifest", str(empty)])
        assert rc == cli.EXIT_MISSING_INPUT
        assert str(empty) in capsys.readouterr().err

    def test_eval_label_out_of_range(self, corpus, checkpoint, tmp_path,
                                     capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("read before the labels were checked")

        root, _ = corpus
        paths = [p for p, _ in dataio.load_manifest(root / "cls" / "test.txt")]
        manifest = tmp_path / "test.txt"
        manifest.write_text(f"{paths[0]},0\n{paths[1]},1\n{paths[2]},9\n")
        monkeypatch.setattr(dataio, "load_image", no_work)
        monkeypatch.setattr(net, "load_checkpoint", no_work)
        rc = cli.main(["eval", "--checkpoint", str(checkpoint),
                       "--test-manifest", str(manifest), "--mode", "10view"])
        assert rc == cli.EXIT_ERROR
        assert ("test sample 2 has label 9, outside [0, 5)"
                in capsys.readouterr().err)

    def test_detect_names_class_without_negatives(self, corpus, checkpoint,
                                                  tmp_path, capsys):
        # no training proposals: every class has positives and no negatives
        root, det_paths = corpus
        empty = tmp_path / "none.txt"
        empty.write_text("")
        first = min(int(line.split(",")[1]) for line in
                    Path(det_paths["gt"]).read_text().splitlines())
        out = tmp_path / "dets.txt"
        rc = cli.main([
            "detect", "--checkpoint", str(checkpoint),
            "--train-images", det_paths["manifest"],
            "--train-proposals", str(empty),
            "--train-gt", det_paths["gt"],
            "--images", det_paths["manifest"],
            "--proposals", det_paths["proposals"],
            "--scales", "48", "--view-size", "32",
            "--out", str(out),
        ])
        assert rc == cli.EXIT_ERROR
        assert (f"class {first}: SVM training needs both classes present"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_empty_train_manifest(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        rc = cli.main(["train", "--train-manifest", str(empty),
                       "--out", str(tmp_path / "m.ckpt")])
        assert rc == cli.EXIT_MISSING_INPUT
        assert str(empty) in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    def test_corrupt_checkpoint(self, corpus, tmp_path):
        root, _ = corpus
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbagegarbage")
        rc = cli.main(["eval", "--checkpoint", str(bad),
                       "--test-manifest", str(root / "cls" / "test.txt")])
        assert rc == cli.EXIT_BAD_CHECKPOINT

    def test_slot_name_not_utf8(self, corpus, checkpoint, tmp_path, capsys):
        # the first slot's name starts at byte 15: magic, version, count
        # and the name's length come first
        data = bytearray(Path(checkpoint).read_bytes())
        data[15] = 0xFF
        bad = tmp_path / "bad_name.ckpt"
        bad.write_bytes(bytes(data))
        rc = cli.main(["eval", "--checkpoint", str(bad),
                       "--test-manifest", str(corpus[0] / "cls" / "test.txt")])
        assert rc == cli.EXIT_BAD_CHECKPOINT
        err = capsys.readouterr().err
        assert str(bad) in err and "not UTF-8 at byte 15" in err

    def test_truncated_image_named(self, corpus, checkpoint, tmp_path,
                                   capsys):
        root, _ = corpus
        paths = [p for p, _ in dataio.load_manifest(root / "cls" / "test.txt")]
        cut = tmp_path / "cut.pgm"
        cut.write_bytes(Path(paths[1]).read_bytes()[:-10])
        manifest = tmp_path / "test.txt"
        manifest.write_text(f"{paths[0]},0\n{cut},1\n")
        rc = cli.main(["eval", "--checkpoint", str(checkpoint),
                       "--test-manifest", str(manifest)])
        assert rc == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert f"{cut}: truncated NetPBM payload" in err

    @pytest.mark.parametrize("command", [
        ["eval", "--mode", "single"], ["eval", "--mode", "10view"],
        ["eval", "--mode", "96view"], ["extract"], ["detect"]],
        ids=["single", "10view", "96view", "extract", "detect"])
    def test_wrong_channel_count_named(self, corpus, checkpoint, tmp_path,
                                       capsys, command):
        # a 3-channel image first in the manifest of a 1-channel network:
        # exit 1 before any trunk pass, naming the image
        root, det_paths = corpus
        colour = tmp_path / "colour.ppm"
        rng = np.random.default_rng(0)
        dataio.save_image(colour, dataio.Image(
            rng.integers(0, 256, (3, 32, 32)).astype(np.float32)))
        paths = [p for p, _ in dataio.load_manifest(root / "cls" / "test.txt")]
        manifest = tmp_path / "manifest.txt"
        out = tmp_path / "out.txt"
        argv = command + ["--checkpoint", str(checkpoint), "--out", str(out)]
        if command[0] == "detect":
            manifest.write_text(f"bad,{colour}\n")
            argv += ["--train-images", det_paths["manifest"],
                     "--train-proposals", det_paths["proposals"],
                     "--train-gt", det_paths["gt"],
                     "--images", str(manifest),
                     "--proposals", det_paths["proposals"],
                     "--scales", "48", "--view-size", "32"]
        else:
            manifest.write_text(f"{colour},0\n{paths[0]},0\n")
            argv += ["--test-manifest" if command[0] == "eval"
                     else "--manifest", str(manifest)]
        passes = net.stats.trunk_passes
        assert cli.main(argv) == cli.EXIT_ERROR
        assert net.stats.trunk_passes == passes
        err = capsys.readouterr().err
        assert err.startswith(f"error: {colour}: image has 3 channel(s)")
        assert not out.exists()

    def test_spec_mismatch(self, corpus, checkpoint):
        root, _ = corpus
        rc = cli.main(["eval", "--checkpoint", str(checkpoint),
                       "--test-manifest", str(root / "cls" / "test.txt"),
                       "--channels", "4,8"])
        assert rc == cli.EXIT_SPEC_MISMATCH

    def test_missing_required_flag(self):
        rc = cli.main(["extract", "--scale", "32"])
        assert rc == cli.EXIT_ERROR

    @pytest.mark.parametrize("channels,label,message", [
        (3, 0, "training sample 1 is shaped (3, 26, 26)"),
        (1, 7, "training sample 1 has label 7, outside [0, 5)")])
    def test_bad_training_sample(self, tmp_path, capsys, monkeypatch,
                                 channels, label, message):
        def no_work(*args):
            raise AssertionError("inputs built before the samples were checked")

        monkeypatch.setattr(training, "_square_inputs", no_work)
        rng = np.random.default_rng(3)
        lines = []
        for i, (c, y) in enumerate([(1, 0), (channels, label)]):
            px = rng.integers(0, 256, size=(c, 26, 26)).astype(np.float32)
            dataio.save_image(tmp_path / f"{i}.pnm", dataio.Image(px))
            lines.append(f"{i}.pnm,{y}\n")
        manifest = tmp_path / "train.txt"
        manifest.write_text("".join(lines))
        out = tmp_path / "m.ckpt"
        rc = cli.main(["train", "--train-manifest", str(manifest),
                       "--out", str(out)])
        assert rc == cli.EXIT_ERROR
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestFlagValues:
    @pytest.mark.parametrize("flags", [
        ["--epochs", "0"], ["--epochs", "-1"], ["--batch-size", "0"],
        ["--sizes", "32,0"]])
    def test_train_rejects_nonpositive(self, corpus, tmp_path, capsys, flags):
        root, _ = corpus
        out = tmp_path / "m.ckpt"
        rc = cli.main(["train", "--train-manifest",
                       str(root / "cls" / "train.txt"), "--out", str(out),
                       *flags])
        assert rc == cli.EXIT_ERROR
        assert f"{flags[0]} must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--lr", "nan"], ["--lr", "inf"], ["--lr", "0"], ["--lr", "-0.1"],
        ["--momentum", "nan"], ["--momentum", "-1.0"], ["--momentum", "1.0"],
        ["--momentum", "1.5"]])
    def test_train_rejects_bad_optimiser_value_before_reading(
            self, tmp_path, capsys, monkeypatch, flags):
        monkeypatch.setattr(cli.dataio, "read_records",
                            lambda *a, **k: pytest.fail("read a manifest"))
        manifest = tmp_path / "train.txt"
        manifest.write_text("")
        out = tmp_path / "m.ckpt"
        rc = cli.main(["train", "--train-manifest", str(manifest),
                       "--out", str(out), *flags])
        assert rc == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert f"error: {flags[0]} " in err and " must " in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--scale", "0"], ["--view", "0"]])
    def test_eval_rejects_nonpositive(self, corpus, checkpoint, capsys,
                                      flags):
        root, _ = corpus
        rc = cli.main(["eval", "--checkpoint", str(checkpoint),
                       "--test-manifest", str(root / "cls" / "test.txt"),
                       "--mode", "10view", *flags])
        assert rc == cli.EXIT_ERROR
        assert f"{flags[0]} must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--mode", "bogus"], "--mode must be one of single, 10view, "
                              "10view-pixels, 96view, got 'bogus'"),
        (["--mode", "10view", "--view", "48", "--scale", "32"],
         "--view 48 is larger than --scale 32"),
        (["--mode", "10view-pixels", "--view", "33"],
         "--view 33 is larger than --scale 32"),
        (["--mode", "96view", "--view", "33", "--scales", "48,32,40"],
         "--view 33 is larger than the smallest of --scales, 32"),
    ], ids=["mode", "10view", "10view-pixels", "96view"])
    def test_eval_mode_and_view_checked_before_work(self, corpus, tmp_path,
                                                    capsys, monkeypatch,
                                                    flags, message):
        # before: checked only once the checkpoint and the first image were
        # loaded, so a missing checkpoint exited 2
        root, _ = corpus
        monkeypatch.setattr(cli, "build_network",
                            lambda args: pytest.fail("built"))
        rc = cli.main(["eval", "--checkpoint", str(tmp_path / "none.ckpt"),
                       "--test-manifest", str(root / "cls" / "test.txt"),
                       *flags])
        assert rc == cli.EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("flags", [
        ["--mode", "10view", "--view", "32", "--scale", "32"],
        ["--mode", "10view-pixels", "--view", "32", "--scale", "32"],
        ["--mode", "96view", "--view", "28", "--scales", "36,28"],
        ["--mode", "single", "--view", "64", "--scale", "32"]])
    def test_eval_view_up_to_the_scale_accepted(self, flags):
        args = cli.build_parser().parse_args(
            ["eval", "--checkpoint", "model.ckpt", "--test-manifest",
             "test.txt", *flags])
        cli.check_args(args)

    def test_config_value_checked_like_a_flag(self, corpus, checkpoint,
                                              tmp_path, capsys):
        root, _ = corpus
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"scale=0\ncheckpoint={checkpoint}\n"
                       f"test_manifest={root / 'cls' / 'test.txt'}\n")
        rc = cli.main(["eval", "--config", str(cfg)])
        assert rc == cli.EXIT_ERROR
        assert "--scale must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--channels", "4,8"], ["--in-channels", "1"], ["--fc-width", "7"]])
    def test_toy_only_flags_rejected_for_zf5(self, corpus, checkpoint, capsys,
                                             flags):
        root, _ = corpus
        rc = cli.main(["eval", "--net", "zf5", "--checkpoint", str(checkpoint),
                       "--test-manifest", str(root / "cls" / "test.txt"),
                       *flags])
        assert rc == cli.EXIT_ERROR
        assert f"{flags[0]} applies to --net toy only" in \
            capsys.readouterr().err

    def _detect_without_work(self, corpus, checkpoint, tmp_path, monkeypatch,
                             flags=()):
        """Exit code of `detect` with `flags`; fails if it fits anything or
        writes its output."""
        _, det_paths = corpus
        monkeypatch.setattr(cli.detection, "fit_detector",
                            lambda *a, **k: pytest.fail("fitted"))
        out = tmp_path / "dets.txt"
        rc = cli.main([
            "detect", "--checkpoint", str(checkpoint),
            "--train-images", det_paths["manifest"],
            "--train-proposals", det_paths["proposals"],
            "--train-gt", det_paths["gt"],
            "--images", det_paths["manifest"],
            "--proposals", det_paths["proposals"],
            "--scales", "48", "--view-size", "32", "--out", str(out),
            *flags])
        assert not out.exists()
        return rc

    @pytest.mark.parametrize("flags", [
        ["--nms-threshold", "nan"], ["--nms-threshold", "-0.1"],
        ["--nms-threshold", "1.5"], ["--svm-c", "-1"], ["--svm-c", "0"],
        ["--svm-c", "inf"], ["--svm-c", "nan"]])
    def test_detect_rejects_bad_value_before_work(self, corpus, checkpoint,
                                                  tmp_path, capsys,
                                                  monkeypatch, flags):
        rc = self._detect_without_work(corpus, checkpoint, tmp_path,
                                       monkeypatch, flags)
        assert rc == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert f"error: {flags[0]} " in err and " must " in err

    def test_negative_threads_rejected_before_work(self, corpus, checkpoint,
                                                   tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.setenv("PYRAPOOL_THREADS", "-4")
        rc = self._detect_without_work(corpus, checkpoint, tmp_path,
                                       monkeypatch)
        assert rc == cli.EXIT_ERROR
        assert "PYRAPOOL_THREADS must be >= 0, got '-4'" in \
            capsys.readouterr().err

    def test_missing_output_fails_before_training(self, corpus, capsys,
                                                  monkeypatch):
        root, _ = corpus
        monkeypatch.setattr(training, "train",
                            lambda *a, **k: pytest.fail("trained"))
        rc = cli.main(["train", "--train-manifest",
                       str(root / "cls" / "train.txt")])
        assert rc == cli.EXIT_ERROR
        assert "missing required option: --out" in capsys.readouterr().err


class TestCheckpointSlots:
    def _rewrite(self, checkpoint, tmp_path, edit):
        values = net.load_checkpoint(checkpoint)
        edit(values)
        store = net.ParameterStore()
        store.load_values(values)
        path = tmp_path / "edited.ckpt"
        net.save_checkpoint(store, path)
        return path

    def _eval(self, corpus, path):
        root, _ = corpus
        return cli.main(["eval", "--checkpoint", str(path),
                         "--test-manifest", str(root / "cls" / "test.txt")])

    def test_missing_slot(self, corpus, checkpoint, tmp_path, capsys):
        path = self._rewrite(checkpoint, tmp_path,
                             lambda v: v.pop("fc2.weight"))
        assert self._eval(corpus, path) == cli.EXIT_SPEC_MISMATCH
        err = capsys.readouterr().err
        assert "lacks" in err and "fc2.weight" in err

    @pytest.mark.parametrize("mode", ["single", "10view"])
    def test_non_finite_slot_named(self, corpus, checkpoint, tmp_path,
                                   capsys, mode):
        # fc2.weight comes before fc2.bias in the file: the first is named
        def poison(values):
            values["fc2.weight"][...] = np.nan
            values["fc2.bias"][0] = np.inf
        path = self._rewrite(checkpoint, tmp_path, poison)
        out = tmp_path / "report.txt"
        rc = cli.main(["eval", "--checkpoint", str(path), "--mode", mode,
                       "--test-manifest", str(corpus[0] / "cls" / "test.txt"),
                       "--out", str(out)])
        assert rc == cli.EXIT_BAD_CHECKPOINT
        err = capsys.readouterr().err
        assert str(path) in err and "'fc2.weight'" in err
        assert "fc2.bias" not in err
        assert not out.exists()

    def test_unknown_slot(self, corpus, checkpoint, tmp_path, capsys):
        def add(values):
            values["fc9.weight"] = np.zeros((2, 2), np.float32)
        path = self._rewrite(checkpoint, tmp_path, add)
        assert self._eval(corpus, path) == cli.EXIT_SPEC_MISMATCH
        err = capsys.readouterr().err
        assert "unknown" in err and "fc9.weight" in err
