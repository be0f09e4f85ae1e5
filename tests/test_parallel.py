"""The threads PYRAPOOL_THREADS grants: the count, `map_threads`, `beside`,
and detection output that does not depend on the count."""

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from pyrapool import dataio, net, parallel
from pyrapool import detection as det
from pyrapool.errors import ShapeError

THREAD_SETTINGS = (None, "1", "2", "3")


def _set_threads(monkeypatch, value):
    if value is None:
        monkeypatch.delenv("PYRAPOOL_THREADS", raising=False)
    else:
        monkeypatch.setenv("PYRAPOOL_THREADS", value)


class TestThreadCount:
    @pytest.mark.parametrize("value, expect", [(None, 1), ("1", 1),
                                               ("3", 3), ("12", 12)])
    def test_granted_count(self, value, expect, monkeypatch):
        _set_threads(monkeypatch, value)
        assert parallel.thread_count() == expect

    def test_zero_counts_the_cpus_this_process_may_run_on(self, monkeypatch):
        monkeypatch.setenv("PYRAPOOL_THREADS", "0")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert parallel.thread_count() == 3

    def test_zero_without_affinity_counts_every_cpu(self, monkeypatch):
        monkeypatch.setenv("PYRAPOOL_THREADS", "0")
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert parallel.thread_count() == 5

    @pytest.mark.parametrize("value, message", [
        ("two", "must be an integer, got 'two'"),
        ("1.5", "must be an integer, got '1.5'"),
        ("-1", "must be >= 0, got '-1'")])
    def test_bad_value_named(self, value, message, monkeypatch):
        monkeypatch.setenv("PYRAPOOL_THREADS", value)
        with pytest.raises(ShapeError, match=f"PYRAPOOL_THREADS {message}"):
            parallel.thread_count()


class _Busy:
    """Counts the calls in flight, and the most at once."""

    def __init__(self):
        self.lock = threading.Lock()
        self.now = self.most = 0

    def __enter__(self):
        with self.lock:
            self.now += 1
            self.most = max(self.most, self.now)

    def __exit__(self, *exc):
        with self.lock:
            self.now -= 1


def _within(seconds, fn, *args):
    """fn(*args) on a thread joined with a timeout: a call that waits on
    work queued behind it fails here instead of hanging the suite."""
    out = []
    thread = threading.Thread(target=lambda: out.append(_outcome(fn, args)),
                              daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    ok, value = out[0]
    if not ok:
        raise value
    return value


def _outcome(fn, args):
    try:
        return True, fn(*args)
    except BaseException as e:
        return False, e


class TestMapThreads:
    @pytest.mark.parametrize("value", THREAD_SETTINGS)
    def test_results_in_item_order(self, value, monkeypatch):
        _set_threads(monkeypatch, value)
        assert parallel.map_threads(lambda i: i * i, range(11)) == \
            [i * i for i in range(11)]
        assert parallel.map_threads(lambda i: i, []) == []

    def test_serial_runs_in_order_on_the_calling_thread(self, monkeypatch):
        _set_threads(monkeypatch, "1")
        seen = []
        parallel.map_threads(
            lambda i: seen.append((i, threading.get_ident())), range(5))
        assert seen == [(i, threading.get_ident()) for i in range(5)]

    def test_busy_threads_bounded_and_nested_calls_serial(self, monkeypatch):
        _set_threads(monkeypatch, "3")
        busy, lock, where = _Busy(), threading.Lock(), {}

        def leaf(key):
            with busy:
                time.sleep(0.002)  # releases the lock, as BLAS calls do
                with lock:
                    where[key] = threading.get_ident()

        def item(i):
            leaf(i)
            parallel.map_threads(leaf, [(i, j) for j in range(3)])

        _within(60, parallel.map_threads, item, range(8))
        assert busy.most <= 3
        assert len(set(where.values())) <= 3
        for i in range(8):
            assert {where[(i, j)] for j in range(3)} == {where[i]}

    def test_workers_start_on_the_last_items(self, monkeypatch):
        _set_threads(monkeypatch, "2")
        first, gate = {}, threading.Event()

        def record(i):
            first.setdefault(threading.get_ident(), i)
            gate.wait(5)  # both threads hold an item before either ends
            gate.set()
            return i

        assert parallel.map_threads(record, range(4)) == list(range(4))
        assert first[threading.get_ident()] == 0
        assert sorted(first.values()) == [0, 3]

    def test_error_raised_after_started_calls_return(self, monkeypatch):
        _set_threads(monkeypatch, "2")
        busy, started = _Busy(), []

        def fail_on_three(i):
            with busy:
                started.append(i)
                time.sleep(0.002)
                if i == 3:
                    raise ValueError("item 3")

        with pytest.raises(ValueError, match="item 3"):
            parallel.map_threads(fail_on_three, range(40))
        assert busy.now == 0
        assert len(started) < 40

    def test_each_item_once_under_contention(self, monkeypatch):
        # more threads than cores and a tiny switch interval: an item taken
        # twice or not at all would show in its count
        _set_threads(monkeypatch, "8")
        calls = np.zeros(500, dtype=np.int64)

        def touch(i):
            calls[i] += 1
            return i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                calls[:] = 0
                assert parallel.map_threads(touch, range(500)) == \
                    list(range(500))
                assert (calls == 1).all()
        finally:
            sys.setswitchinterval(interval)


class TestBeside:
    def test_serial_runs_when_called(self, monkeypatch):
        _set_threads(monkeypatch, "1")
        seen = []
        with parallel.beside() as start:
            result = start(lambda a, b: seen.append(threading.get_ident())
                           or a + b, 2, 3)
            assert seen == []
            assert result() == 5
        assert seen == [threading.get_ident()]

    def test_worker_runs_at_once(self, monkeypatch):
        _set_threads(monkeypatch, "2")
        ran, where = threading.Event(), []

        def task():
            where.append(threading.get_ident())
            ran.set()
            return "done"

        with parallel.beside() as start:
            result = start(task)
            assert ran.wait(10)
            assert result() == "done"
        assert where != [threading.get_ident()]

    def test_task_error_raised_when_called(self, monkeypatch):
        _set_threads(monkeypatch, "2")

        def fail():
            raise KeyError("ridge")

        with parallel.beside() as start:
            result = start(fail)
            with pytest.raises(KeyError, match="ridge"):
                result()

    def test_leaving_on_error_waits_for_started_tasks(self, monkeypatch):
        _set_threads(monkeypatch, "2")
        busy = _Busy()

        def slow():
            with busy:
                time.sleep(0.05)

        with pytest.raises(RuntimeError, match="caller"):
            with parallel.beside() as start:
                start(slow)
                start(slow)
                raise RuntimeError("caller")
        assert busy.now == 0


class TestParameterStoreUnderThreads:
    def test_concurrent_first_use_draws_in_layer_order(self):
        # threads instantiating one fresh store at once create each slot
        # once, with the draws of a serial instantiation
        spec = net.toy_shape_net()
        serial = net.ParameterStore(seed=3)
        net.instantiate(spec, (32, 32), serial)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                store = net.ParameterStore(seed=3)
                threads = [threading.Thread(
                    target=net.instantiate, args=(spec, (s, s), store))
                    for s in (24, 28, 32, 36, 40, 44, 48, 52)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                assert store.names() == serial.names()
                for name, slot in serial.items():
                    assert store[name].value.tobytes() == \
                        slot.value.tobytes()
        finally:
            sys.setswitchinterval(interval)


@pytest.fixture(scope="module")
def det_splits(tmp_path_factory):
    root = tmp_path_factory.mktemp("det")
    splits = []
    for name, seed, n_images in (("train", 31, 4), ("test", 32, 3)):
        paths = dataio.generate_toy_detection_dataset(
            root / name, seed=seed, n_images=n_images)
        images = {i: dataio.load_image(p).pixels for i, p in
                  dataio.load_detection_manifest(paths["manifest"]).items()}
        splits.append((images, det.read_proposals(paths["proposals"]),
                       det.read_ground_truth(paths["gt"])))
    return splits


class TestDetectionThreadInvariance:
    SCALES = (48, 64, 96)

    def _detect(self, splits):
        """Fit and run from a fresh parameter store, so the slots are drawn
        while the scales' trunk passes run."""
        (images, proposals, gt), (test_images, test_proposals, _) = splits
        params = net.ParameterStore(seed=7, sigma=0.05)
        classes = sorted({c for boxes in gt.values() for c, _ in boxes})
        before = net.stats.trunk_passes
        fit_ex = det.RegionFeatureExtractor(net.toy_shape_net(), params,
                                            scales=self.SCALES, view=32)
        model = det.fit_detector(fit_ex, images, proposals, gt, classes)
        run_ex = det.RegionFeatureExtractor(net.toy_shape_net(), params,
                                            scales=self.SCALES, view=32)
        text = det.format_detections(det.run_detector(
            run_ex, model, test_images, test_proposals, apply_bbox=True))
        return {
            "svms": [(cls, m.weight.tobytes(), np.float64(m.bias).tobytes())
                     for cls, m in sorted(model.svms.items())],
            "regressors": [(cls, r.weights.tobytes())
                           for cls, r in sorted(model.regressors.items())],
            "text": text,
            "conv_passes": (fit_ex.conv_passes, run_ex.conv_passes),
            "trunk_passes": net.stats.trunk_passes - before,
        }

    def test_same_bytes_and_counts_for_every_count(self, det_splits,
                                                   monkeypatch):
        results = []
        for value in THREAD_SETTINGS:
            _set_threads(monkeypatch, value)
            results.append(self._detect(det_splits))
        first = results[0]
        n_train, n_test = len(det_splits[0][0]), len(det_splits[1][0])
        assert first["text"] and all(r for _, r in first["regressors"])
        assert first["conv_passes"] == (n_train * len(self.SCALES),
                                        n_test * len(self.SCALES))
        assert first["trunk_passes"] == (n_train + n_test) * len(self.SCALES)
        for value, result in zip(THREAD_SETTINGS[1:], results[1:]):
            assert result == first, f"PYRAPOOL_THREADS={value}"


def test_forked_child_gets_its_own_workers(tmp_path):
    # a child forked after the workers started has none of them; its first
    # threaded call must start new ones rather than wait on the parent's
    if not hasattr(os, "fork"):
        pytest.skip("no fork on this platform")
    script = tmp_path / "fork.py"
    script.write_text(
        "import os, sys, time\n"
        "os.environ['PYRAPOOL_THREADS'] = '2'\n"
        "from pyrapool import parallel\n"
        "assert parallel.map_threads(abs, [-1, -2, -3]) == [1, 2, 3]\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    ok = parallel.map_threads(abs, [-4, -5]) == [4, 5]\n"
        "    os._exit(0 if ok else 3)\n"
        "deadline = time.monotonic() + 30\n"
        "while True:\n"
        "    done, status = os.waitpid(pid, os.WNOHANG)\n"
        "    if done:\n"
        "        sys.exit(os.waitstatus_to_exitcode(status))\n"
        "    if time.monotonic() > deadline:\n"
        "        os.kill(pid, 9)\n"
        "        os.waitpid(pid, 0)\n"
        "        sys.exit('the forked child hung')\n"
        "    time.sleep(0.01)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    done = subprocess.run([sys.executable, "-W", "ignore", str(script)],
                          env=dict(os.environ, PYTHONPATH=src), timeout=60,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
