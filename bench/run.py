"""Benchmark entry point: one workload, one seed, one closed loop.

    python3 bench/run.py --workload {train,classify,detect} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the program is imported from `src/`. One
thread issues each op only after the previous one finished. Set-up runs
SETUP_REPS times and reports its median. Then whole passes over the
workload's inputs run until `--seconds` have passed, at least one: the first
pass records the outputs that the digests and the quality checks read.

Every time metric is normalised to the host's current speed: the
calibration kernel of `calibrate.py` runs every 0.25 s of the run, and each
stretch of wall time is scaled by `calibrate.REF_S` over the kernel times
around it (`HostSpeed`). The record keeps the raw wall times.

With `--trace 0` the last stdout line carries the end-to-end metrics. With
`--trace 1` the first pass runs untraced, then whole passes run with spans
around pyrapool's public functions, and the last line carries the per-layer
metrics per pass, with the tracing overhead. The line before it is a record
of the machine, the inputs, the digests and any failed check; it is also
written, with the spans of a traced run, under `.bench_out/`.

The exit status is 0 only when every op ran and every check passed.
"""

from __future__ import annotations

import argparse
import bisect
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "img_per_s_norm": "1/s",
    "op_ms_p50_norm": "ms",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_gflop"):
        return "GFLOP"
    if name.endswith("_ratio") or name.endswith("_per_map"):
        return "ratio"
    return "count"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads():
    """One BLAS thread, set before numpy loads: measured, two threads made
    `train` slower and noisier on a 2-core machine with identical outputs.
    PYRAPOOL_THREADS allows the program every core it may use."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PYRAPOOL_THREADS"] = str(nproc())


# ---------------------------------------------------------------------------
# machine and environment record
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas():
    import numpy as np
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        name = "unknown"
    threads = None
    import ctypes
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return name, threads


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _tree_sha256(top) -> str:
    """Digest of the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(top, "**", "*.py"),
                                 recursive=True)):
        h.update(os.path.relpath(path, top).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def machine_record(seed: int) -> dict:
    import numpy as np
    blas_name, blas_threads = _blas()
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "pyrapool_threads": os.environ.get("PYRAPOOL_THREADS"),
        "git_commit": _git_commit(),
        "src_sha256": _tree_sha256(os.path.join(ROOT, "src")),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class HostSpeed:
    """Runs the calibration kernel every PERIOD_S from a timer signal, inside
    long ops too, and turns wall intervals into time at the reference speed.

    The kernel runs in the main thread between bytecodes, so it never runs
    beside the program; its own time is left out of every interval. Each gap
    between two kernel runs is scaled by `calibrate.REF_S` over the median
    of the four kernel times around it.
    """

    PERIOD_S = 0.25

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.seconds: list[float] = []
        self._busy = False

    def _sample(self, *_):
        import calibrate
        if self._busy:      # a tick that arrives during a tick
            return
        self._busy = True
        t0 = time.perf_counter()
        cal = calibrate.measure()
        self.ends.append(time.perf_counter())
        self.starts.append(t0)
        self.seconds.append(cal)
        self._busy = False

    def start(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def times(self, t0: float, t1: float) -> tuple[float, float]:
        """Wall and normalised seconds of [t0, t1] without kernel runs;
        the kernel must have run before t0 and after t1."""
        import calibrate
        wall = norm = 0.0
        k = max(bisect.bisect_right(self.ends, t0) - 1, 0)
        while k + 1 < len(self.starts) and self.ends[k] < t1:
            part = min(self.starts[k + 1], t1) - max(self.ends[k], t0)
            if part > 0:
                wall += part
                norm += part / median(self.seconds[max(k - 1, 0):k + 3])
            k += 1
        return wall, norm * calibrate.REF_S


@dataclass
class Sample:
    kind: str
    start: float
    end: float
    images: int
    wall: float = 0.0    # seconds without kernel runs, set by `finish`
    norm: float = 0.0    # seconds at the reference host speed, ditto


class Loop:
    """Runs ops one after another, timing `run` and checking outside it."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.samples: list[Sample] = []
        self.errors: list[str] = []
        self.speed = HostSpeed()

    def _fail(self, what: str):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def do(self, op, traced: bool = False):
        from pyrapool import net
        self.attempted += 1
        tracer = self.tracer if traced else None
        passes = net.stats.trunk_passes
        if tracer is not None:
            tracer.op = self.attempted
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception:
            self._fail(traceback.format_exc(limit=4))
            return
        finally:
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.active = False
                tracer.add("net.trunk_passes", net.stats.trunk_passes - passes)
        self.samples.append(Sample(op.kind, t0, t1, op.images))
        try:
            op.check(result)
        except Exception as e:
            self._fail(f"{op.kind}: {type(e).__name__}: {e}")

    def run_pass(self, ops, traced: bool = False) -> list[Sample]:
        """One pass over `ops`; returns the samples of the ops that ran."""
        first = len(self.samples)
        for op in ops:
            self.do(op, traced)
        return self.samples[first:]

    def finish(self, setups):
        """Time every op and set-up, once the kernel has stopped."""
        for s in self.samples + setups:
            s.wall, s.norm = self.speed.times(s.start, s.end)

    def summarize(self, workload):
        self.attempted += 1
        try:
            workload.summarize()
        except Exception as e:
            self._fail(f"summary: {type(e).__name__}: {e}")


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 params=None):
    """Set up, loop, and measure one workload; returns (result, record)."""
    import workloads
    params = params or workloads.PARAMS
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=tmp_root)
    try:
        return _run(workloads.WORKLOADS[name](params, seed, workdir), name,
                    seed, seconds, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass


def _run(workload, name, seed, seconds, traced):
    import spans
    tracer = spans.Tracer() if traced else None
    loop = Loop(tracer)
    setups, passes = [], []
    loop.speed.start()
    try:
        for rep in range(SETUP_REPS):
            root = os.path.join(workload.workdir, f"setup{rep}")
            t0 = time.perf_counter()
            workload.setup(root)
            setups.append(Sample("setup", t0, time.perf_counter(), 0))
            shutil.rmtree(root, ignore_errors=True)

        start = time.perf_counter()
        first_pass = loop.run_pass(workload.ops(record=True))
        loop.summarize(workload)
        if not traced:
            while time.perf_counter() - start < seconds:
                loop.run_pass(workload.ops(record=False))
        else:
            tracer.install()
            try:
                while not passes or time.perf_counter() - start < seconds:
                    passes.append(loop.run_pass(workload.ops(record=False),
                                                traced=True))
            finally:
                tracer.uninstall()
    finally:
        loop.speed.stop()
    if not loop.samples:
        raise RuntimeError(f"every op failed: {loop.errors[:2]}")
    loop.finish(setups)
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "traced": traced, "machine": machine_record(seed),
              "setup_reps": SETUP_REPS}

    if not traced:
        metrics = end_to_end(workload, loop, setups)
        timed = [s for s in loop.samples if s.kind == workload.timed_kind]
        # a p90 needs ten samples beyond it
        for key in ("norm", "wall"):
            values = [getattr(s, key) for s in timed]
            record[f"op_ms_p90_{key}"] = (
                quantiles(values, n=10)[-1] * 1000
                if len(values) >= 100 else None)
        record["op_samples"] = len(timed)
        record["op_ms_p50_wall"] = 1000.0 * median(s.wall for s in timed)
        record["img_per_s_wall"] = (sum(s.images for s in loop.samples)
                                    / sum(s.wall for s in loop.samples))
        record["fit_s_norm"] = [s.norm for s in loop.samples
                                if s.kind in ("train", "fit")]
    else:
        metrics = spans.per_layer_metrics(tracer.spans, tracer.counters,
                                          len(passes))
        # pass times are normalised, so the host's speed drops out
        pass_times = [sum(s.norm for s in p) for p in passes]
        metrics["trace.overhead_ratio"] = (
            median(pass_times) / sum(s.norm for s in first_pass) - 1)
        record["passes_traced"] = len(passes)
        record["module_self_s"] = spans.module_self_times(tracer.spans,
                                                          len(passes))
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{name}-seed{seed}.jsonl"))

    units = END_TO_END_UNITS if not traced else {
        k: per_layer_unit(k) for k in metrics}
    record.update(quality=workload.quality, digests=workload.digests,
                  setup_s_wall=[s.wall for s in setups],
                  setup_s_norm=[s.norm for s in setups],
                  calibration_ms=[1000.0 * f(loop.speed.seconds)
                                  for f in (min, median, max)],
                  model_train_s=workload.model_train_s, errors=loop.errors,
                  error_rate=loop.failed / loop.attempted)
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()},
    }
    return result, record


def end_to_end(workload, loop, setups) -> dict:
    """Throughput counts every op of the whole passes, so `detect`'s
    includes its `fit_detector` calls; latency is over the per-item ops.
    Times are normalised to the reference host speed."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": median(s.norm for s in setups),
        "peak_rss_mb": peak_kb / 1024.0,
        "img_per_s_norm": (sum(s.images for s in loop.samples)
                           / sum(s.norm for s in loop.samples)),
        "op_ms_p50_norm": 1000.0 * median(
            s.norm for s in loop.samples if s.kind == workload.timed_kind),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "classify", "detect"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_threads()
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "pyrapool")):
        print(f"error: no pyrapool sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    result, record = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as f:
        json.dump({"record": record, "result": result}, f, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
