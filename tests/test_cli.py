"""Command-line behavior: config merging, reproducible outputs, exit codes."""

import os
from pathlib import Path

import numpy as np
import pytest

from pyrapool import cli, dataio, net, training


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

    def test_spec_mismatch(self, corpus, checkpoint):
        root, _ = corpus
        rc = cli.main(["eval", "--checkpoint", str(checkpoint),
                       "--test-manifest", str(root / "cls" / "test.txt"),
                       "--channels", "4,8"])
        assert rc == cli.EXIT_SPEC_MISMATCH

    def test_missing_required_flag(self):
        rc = cli.main(["extract", "--scale", "32"])
        assert rc == cli.EXIT_ERROR


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

    @pytest.mark.parametrize("flags", [["--scale", "0"], ["--view", "0"]])
    def test_eval_rejects_nonpositive(self, corpus, checkpoint, capsys,
                                      flags):
        root, _ = corpus
        rc = cli.main(["eval", "--checkpoint", str(checkpoint),
                       "--test-manifest", str(root / "cls" / "test.txt"),
                       "--mode", "10view", *flags])
        assert rc == cli.EXIT_ERROR
        assert f"{flags[0]} must be positive" in capsys.readouterr().err

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

    def test_unknown_slot(self, corpus, checkpoint, tmp_path, capsys):
        def add(values):
            values["fc9.weight"] = np.zeros((2, 2), np.float32)
        path = self._rewrite(checkpoint, tmp_path, add)
        assert self._eval(corpus, path) == cli.EXIT_SPEC_MISMATCH
        err = capsys.readouterr().err
        assert "unknown" in err and "fc9.weight" in err
