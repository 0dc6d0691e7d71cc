"""Sweep-throughput benchmark for fdhbf.

Usage:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

With ``--trace 0`` the workload's sweep runs through ``fdhbf.sweep.run_sweep``
for about ``--seconds`` seconds with tracing off, and the end-to-end metrics
are reported: ``cells_per_s`` (median over the timed sweeps), ``setup_s``
(median over fresh processes that import fdhbf, build the config and run one
warm-up cell) and ``peak_rss_mb``.  Both times are scaled to a nominal
machine speed measured around each sweep and set-up (see ``calibrate.py``).
With ``--trace 1`` half of the time runs traced at one worker and the
per-layer metrics are reported per cell, next to untraced sweeps at one and
two workers for ``trace.overhead_ratio`` and ``sweep.parallel_efficiency``.

Every cell of a timed sweep is checked for invariants, and every run also
compares one sweep at the reference seed with the stored reference.  The
last line of standard output is the result as one JSON object; the line
before it holds the environment.  Details and the traced spans go to
``.perfbench_out/`` in the checkout.
"""

import os

# Pin BLAS to one thread per process before numpy loads, so that a pool of
# N workers never runs more than N threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import reference  # noqa: E402
from calibrate import Calibration, speed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import HERE, REFERENCE_SEED, ROOT, WORKLOADS, load_fdhbf  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SEED_STRIDE = 10_000     # sweep r of a run with seed n uses config seed n * SEED_STRIDE + r
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
TRACED_SHARE = 0.5       # of --seconds; the rest is split between 1 and 2 untraced workers
PARALLEL_WORKERS = 2


@dataclass
class Sweeps:
    """Timed sweeps of one workload."""

    rates: list = field(default_factory=list)   # raw cells/s of each completed sweep
    speeds: list = field(default_factory=list)  # machine speed during each, share of nominal
    attempted: int = 0
    failed: int = 0
    regularizations: int = 0

    @property
    def cells_per_s(self) -> float:
        """Median over sweeps of cells/s at nominal machine speed."""
        if not self.rates:
            return 0.0
        return statistics.median(r / v for r, v in zip(self.rates, self.speeds))


def timed_sweeps(fdhbf, wl, seed: int, seconds: float, calib: Calibration, workers=None,
                 trials=None, powers=None) -> Sweeps:
    """Run whole sweeps, each on a fresh seed, until `seconds` have passed
    (at least one), timing each ``run_sweep`` call between two calibration
    runs and checking its cells."""
    out = Sweeps()
    deadline = time.perf_counter() + seconds
    rep = 0
    before = calib.rate()
    while rep == 0 or time.perf_counter() < deadline:
        values = wl.config_values(seed * SEED_STRIDE + rep, trials, workers, powers)
        cfg = fdhbf.config.config_from_values(values)
        rep += 1
        cells = len(cfg.powers_dbm) * cfg.trials
        out.attempted += cells
        start = time.perf_counter()
        try:
            _, summaries = fdhbf.sweep.run_sweep(cfg)
        except Exception:  # a failed sweep counts all its cells as failed
            traceback.print_exc()
            out.failed += cells
            continue
        elapsed = time.perf_counter() - start
        after = calib.rate()
        out.rates.append(len(summaries) / elapsed)
        out.speeds.append(speed(before, after))
        before = after
        out.failed += min(cells, reference.bad_cells(summaries, len(cfg.powers_dbm), cfg.trials))
        out.regularizations += sum(s.regularizations for s in summaries)
    return out


def reference_check(fdhbf, wl, ref=None) -> tuple[int, int]:
    """(attempted, failed) cells of one sweep at the reference seed, run with
    the workload's own worker count, against the stored reference."""
    ref = ref if ref is not None else reference.load_reference(wl.name)
    values = wl.config_values(REFERENCE_SEED, trials=ref["trials"],
                              powers=ref["powers_dbm"])
    cfg = fdhbf.config.config_from_values(values)
    try:
        _, summaries = fdhbf.sweep.run_sweep(cfg)
    except Exception:  # the whole reference sweep failed
        traceback.print_exc()
        return len(ref["records"]), len(ref["records"])
    return len(ref["records"]), len(reference.mismatched_cells(summaries, ref))


def setup_times(wl, seed: int, calib: Calibration, probes: int = SETUP_PROBES) -> list[float]:
    """Seconds at nominal machine speed from starting a fresh interpreter
    until it has imported fdhbf, built the config and run one warm-up cell."""
    times = []
    before = calib.rate()
    for _ in range(probes):
        start = time.monotonic()  # CLOCK_MONOTONIC is shared by all processes
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), wl.name, str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        word, ready = proc.stdout.split()
        if word != "ready":
            raise RuntimeError(f"set-up probe printed {proc.stdout!r}")
        after = calib.rate()
        times.append((float(ready) - start) * speed(before, after))
        before = after
    return times


def peak_rss_mib(workers: int) -> float:
    """Peak RSS of this process plus `workers` times the largest peak of a
    finished child; call it before starting any child but pool workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0  # ru_maxrss is in KiB on Linux


def _blas_threads():
    """Threads the bundled OpenBLAS will use, or None if it cannot be asked."""
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(workers: int, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _blas_threads(),
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "seed": seed,
    }


def traced_metrics(fdhbf, wl, seed: int, seconds: float, calib: Calibration):
    """Per-layer metrics of a traced run at one worker, next to untraced
    sweeps of the same grid at one and at two workers."""
    tracer = Tracer()
    with tracer.installed(fdhbf):
        traced = timed_sweeps(fdhbf, wl, seed, TRACED_SHARE * seconds, calib, workers=1)
    rest = (1.0 - TRACED_SHARE) * seconds / 2
    plain = timed_sweeps(fdhbf, wl, seed, rest, calib, workers=1)
    pooled = timed_sweeps(fdhbf, wl, seed, rest, calib, workers=PARALLEL_WORKERS)
    metrics = tracer.per_cell(traced.regularizations)
    metrics["sweep.parallel_efficiency"] = (
        pooled.cells_per_s / (PARALLEL_WORKERS * plain.cells_per_s), "ratio")
    metrics["trace.overhead_ratio"] = (traced.cells_per_s / plain.cells_per_s, "ratio")
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"trace-{wl.name}.jsonl"))
    runs = {"traced": traced, "untraced_1": plain, f"untraced_{PARALLEL_WORKERS}": pooled}
    return metrics, runs, {}


def end_to_end_metrics(fdhbf, wl, seed: int, seconds: float, calib: Calibration,
                       workers: int):
    """End-to-end metrics of untraced sweeps at the workload's worker count."""
    timed = timed_sweeps(fdhbf, wl, seed, seconds, calib)
    rss = peak_rss_mib(workers)  # before any other child process starts
    setup = setup_times(wl, seed, calib)
    metrics = {
        "cells_per_s": (timed.cells_per_s, "cells/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss, "MiB"),
    }
    return metrics, {"timed": timed}, {"setup_s_samples": setup}


def measure(fdhbf, wl, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: the result to print and the details behind it."""
    warm = fdhbf.config.config_from_values(wl.config_values(seed))
    fdhbf.sweep.run_cell(warm, 0, 0)  # untimed warm-up
    workers = 1 if trace else warm.workers
    with Calibration(copies=workers) as calib:
        calib.rate()  # warm-up
        if trace:
            metrics, runs, details = traced_metrics(fdhbf, wl, seed, seconds, calib)
        else:
            metrics, runs, details = end_to_end_metrics(fdhbf, wl, seed, seconds, calib, workers)
    ref_attempted, ref_failed = reference_check(fdhbf, wl)
    attempted = ref_attempted + sum(r.attempted for r in runs.values())
    failed = ref_failed + sum(r.failed for r in runs.values())
    details["sweeps"] = {k: {"raw_cells_per_s": r.rates, "machine_speed": r.speeds,
                             "attempted": r.attempted, "failed": r.failed}
                         for k, r in runs.items()}
    details["reference"] = {"attempted": ref_attempted, "failed": ref_failed}
    details["cell_fail_ratio"] = failed / attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return {"result": result, "details": details, "workers": workers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    fdhbf = load_fdhbf()
    wl = WORKLOADS[args.workload]
    run = measure(fdhbf, wl, args.seed, args.seconds, bool(args.trace))
    env = environment(run["workers"], args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "environment": env, **run}, fh, indent=1)
    print(json.dumps({"environment": env}))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
