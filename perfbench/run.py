"""Benchmark of the phaseprop pipeline: one workload per process.

    python3 perfbench/run.py --workload phase-affine --seed 1 --seconds 24 --trace 0

Run it from the repository root.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it stamps the machine, the library versions, grid sizes, hbar and
seed.  With ``--trace 0`` the metrics are the end-to-end ones listed in
BENCHMARK.json, with ``--trace 1`` the per-layer ones.  perfbench/README.md
describes the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

# Fix the BLAS pool before numpy loads: one thread, the one that also runs
# the host-speed probes (hostspeed.py), so the probes see what the
# operations see.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import hostspeed  # noqa: E402  (loads numpy, so after the pool is fixed)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
SETUP_SPEED_SAMPLES = 5   # host-speed probes on each side of a set-up probe


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="phaseprop benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="import and generate the inputs, then exit")
    return ap.parse_args(argv)


def digits(x):
    """Decimal digits of agreement: -log10 of an error, floored at the
    double-precision epsilon so an exact result reads as finite."""
    eps = 2.0 ** -52
    if not math.isfinite(x):
        return 0.0
    return -math.log10(max(x, eps))


def timed(fn, *args, scaled=True):
    """Run one operation; return (seconds, wall seconds, output, error
    text).  The seconds are scaled to the reference host speed
    (hostspeed.py); with ``scaled=False`` no probe runs and they are the
    wall seconds."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if scaled:
            secs, wall, out, exc = hostspeed.scaled_call(fn, *args)
        else:
            t0 = time.perf_counter()
            try:
                out, exc = fn(*args), None
            except Exception as e:
                out, exc = None, e
            secs = wall = time.perf_counter() - t0
    # an operation that raises counts as failed
    err = None if exc is None else "".join(traceback.format_exception(exc))
    return secs, wall, out, err


def measure(wl, seconds, tracer):
    """Run whole passes over the workload's input pool until the next
    pass would end past ``seconds``, so every run holds the same mix.

    With a tracer every input runs twice, untraced then traced, so the
    tracing overhead is a paired ratio; neither run is probed, since a
    probe would land inside the spans."""
    ops, passes = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for _ in range(wl.pool):
            k = len(ops)
            op = {"k": k, "runs": [timed(wl.run, k, scaled=tracer is None)]}
            if tracer is not None:
                with tracer.installed(wl), tracer.operation(k):
                    op["runs"].append(timed(wl.run, k, scaled=False))
            ops.append(op)
        now = time.perf_counter()
        passes.append(now - t0)
        if now - start + statistics.median(passes) > seconds:
            return ops


def setup_seconds(args):
    """Median time of fresh processes that import the program and generate
    this workload's inputs, each scaled to the reference host speed by
    probes made just before and just after it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    walls = []
    for _ in range(SETUP_PROBES):
        speed = hostspeed.HostSpeed()
        for _ in range(SETUP_SPEED_SAMPLES):
            speed.sample()
        t0 = time.perf_counter()
        # no timeout: waiting with one polls in 50 ms steps
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - t0
        for _ in range(SETUP_SPEED_SAMPLES):
            speed.sample()
        walls.append(wall * speed.scale())
    return statistics.median(walls)


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes
    import glob

    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def stamp(args, wl, ops):
    import numpy as np
    import scipy
    from workloads import HBAR
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cores": os.cpu_count(),
        "op_seconds": [[round(r[0], 4) for r in op["runs"]] for op in ops],
        "op_wall_seconds": [[round(r[1], 4) for r in op["runs"]] for op in ops],
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(), "hbar": HBAR, **wl.stamp(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "phaseprop" / "__init__.py").is_file():
        print(f"perfbench: no phaseprop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_probe:
            return 0
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
        ops = measure(wl, args.seconds, tracer)

        attempted = failed = 0
        errs, drifts = [], []
        for op in ops:
            for _secs, _wall, out, error in op["runs"]:
                attempted += 1
                if error is None:
                    v = wl.check(op["k"], out)
                    errs.append(v.err)
                    drifts.append(v.drift)
                    error = None if v.ok else v.why
                if error is not None:
                    failed += 1
                    print(f"perfbench: op {op['k']} failed: {error}", file=sys.stderr)

        if tracer is not None:
            from tracing import per_layer_metrics
            ratio = statistics.median(o["runs"][1][0] / o["runs"][0][0] for o in ops)
            metrics = per_layer_metrics(tracer, len(ops), ratio)
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
        else:
            metrics = {
                "op_s": (statistics.median(o["runs"][0][0] for o in ops), "s"),
                "setup_s": (setup_seconds(args), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "max_rel_err_digits": (digits(max(errs, default=math.inf)), "digits"),
                "norm_drift_digits": (digits(max(drifts, default=math.inf)), "digits"),
                "passed_share": ((attempted - failed) / attempted, "ratio"),
            }
            metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
        print(json.dumps({"stamp": stamp(args, wl, ops)}))
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
