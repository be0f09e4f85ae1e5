"""The names the benchmark harness under `bench/` binds in the package.

`bench/spans.py` wraps every `TARGETS` entry in place and `bench/workloads.py`
reads counters off package objects at run time, so a rename or deletion in
`src/` breaks traced or untraced benchmark runs without failing any other
test. These tests load both harness modules and check those names.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from pyrapool import dataio, detection, inference, net, training

BENCH = Path(__file__).resolve().parent.parent / "bench"
PACKAGE = {"dataio": dataio, "detection": detection, "inference": inference,
           "net": net, "training": training}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def _bindings():
    """Every package module's namespace, and the dict of every class that
    a span target names: (owner, key) -> bound object."""
    owners = [mod for name, mod in sys.modules.items()
              if name == "pyrapool" or name.startswith("pyrapool.")]
    owners += [net.NetworkInstance, detection.RegionFeatureExtractor,
               detection.BBoxRegressor]
    return {(owner, key): value for owner in owners
            for key, value in list(vars(owner).items())}


class TestSpanTargets:
    def test_every_target_resolves(self, spans, workloads):
        for mod_name, attr, cls_name in spans.TARGETS:
            home = sys.modules[f"pyrapool.{mod_name}"]
            owner = home if cls_name is None else getattr(home, cls_name)
            assert callable(vars(owner).get(attr)), (mod_name, cls_name, attr)

    def test_install_wraps_every_target_and_uninstall_restores(
            self, spans, workloads):
        before = _bindings()
        tracer = spans.Tracer()
        tracer.install()
        try:
            during = _bindings()
            for mod_name, attr, cls_name in spans.TARGETS:
                home = sys.modules[f"pyrapool.{mod_name}"]
                owner = home if cls_name is None else getattr(home, cls_name)
                wrapper = vars(owner)[attr]
                assert wrapper.__wrapped__ is before[(owner, attr)]
            changed = [key for key in before if during[key] is not before[key]]
            assert len(changed) == len(tracer._undo)
        finally:
            tracer.uninstall()
        after = _bindings()
        assert after.keys() == before.keys()
        assert all(after[key] is before[key] for key in before)


class TestRunTimeReads:
    def test_workload_names_resolve(self, workloads):
        # every `<module>.<name>` the harness spells out in its source
        for source in ("workloads.py", "run.py"):
            tree = ast.parse((BENCH / source).read_text())
            for node in ast.walk(tree):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id in PACKAGE):
                    assert hasattr(PACKAGE[node.value.id], node.attr), (
                        f"bench/{source}:{node.lineno} reads "
                        f"{node.value.id}.{node.attr}")

    def test_counters_bench_reads(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        model = detection.train_svm(x, np.array([1.0, 1.0, -1.0, -1.0]),
                                    epochs=5)
        assert model.hard_negatives_added == 0

        spec = net.toy_shape_net()
        params = net.ParameterStore(seed=0)
        extractor = detection.RegionFeatureExtractor(
            spec, params, scales=(32, 40), view=32)
        assert extractor.conv_passes == 0
        pixels = np.full((spec.in_channels, 36, 44), 100.0, np.float32)
        passes = net.stats.trunk_passes
        entry = extractor.prepare("img", pixels)
        assert net.stats.trunk_passes - passes == 2
        assert extractor.conv_passes == 2
        for s in extractor.scales:
            featmap, (rw, rh) = entry["maps"][s]
            assert featmap.ndim == 3 and min(rw, rh) == s
        assert callable(extractor.extract)
        assert isinstance(net.stats.trunk_passes, int)


class TestThreadRule:
    """At the bench's sizes, `inference.image_maps` keeps each classify
    image's scales on the calling thread and gives each detect image's
    scales to `parallel.map_threads`: the choice follows the largest pass,
    whichever caller asks."""

    def _threaded(self, monkeypatch, pixels, keys) -> bool:
        calls = []
        map_threads = inference.map_threads

        def counted(fn, items):
            calls.append(items)
            return map_threads(fn, items)

        monkeypatch.setenv("PYRAPOOL_THREADS", "2")
        monkeypatch.setattr(inference, "map_threads", counted)
        spec = net.toy_shape_net()
        inference.image_maps(spec, net.ParameterStore(seed=0), pixels, keys)
        return bool(calls)

    @pytest.mark.parametrize("end", [0, 1], ids=["smallest", "largest"])
    def test_classify_images_stay_serial(self, workloads, monkeypatch, end):
        p = workloads.PARAMS
        side = p["shapes"]["size_range"][end]  # the shape images are square
        views = inference.multi_view_windows(
            (side, side), scales=p["classify"]["scales"],
            view=p["classify"]["view"])
        keys = list(dict.fromkeys((v.scale, v.flip) for v in views))
        pixels = np.full((1, side, side), 100.0, np.float32)
        assert not self._threaded(monkeypatch, pixels, keys)

    @pytest.mark.parametrize("ends", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_detect_images_run_threaded(self, workloads, monkeypatch, ends):
        p = workloads.PARAMS["detect"]
        h, w = (p["canvas_range"][end] for end in ends)
        pixels = np.full((1, h, w), 100.0, np.float32)
        keys = [(s, False) for s in p["scales"]]
        assert self._threaded(monkeypatch, pixels, keys)
