"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads phase-affine,...]
                               [--trace 0] [--out sweep.json]
                               [--compare earlier-sweep.json]

For every end-to-end metric it prints the median over seeds and the
interquartile distance as a share of the median, next to the metric's bound
in BENCHMARK.json.  ``--compare`` also prints how far each median moved
against an earlier sweep, in the direction that counts as worse.  Runs are
sequential: one workload process at a time.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_from(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(spec, workload, seed, trace):
    cmd = [c if c != "python3" else sys.executable for c in spec["command"]]
    cmd += ["--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    *_, stamp, result = proc.stdout.strip().splitlines()
    return {**json.loads(result), **json.loads(stamp), "wall_s": wall}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="seed sweep of the benchmark")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--compare")
    args = ap.parse_args(argv)

    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    earlier = json.loads(Path(args.compare).read_text())["summary"] if args.compare else {}
    runs, summary = {}, {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in seeds_from(args.seeds):
            r = run_one(spec, workload, seed, args.trace)
            runs[workload].append(r)
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} "
                  f"wall={r['wall_s']:.1f}s", flush=True)
        summary[workload] = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs[workload]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            summary[workload][m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                            "spread": spread(values)}
            line = (f"  {m['name']:34s} median {med:.6g} {m['unit']}"
                    f"  spread {spread(values):.4f}")
            if "bound" in m:
                line += f"  bound {m['bound']}"
            if workload in earlier:
                old = earlier[workload][m["name"]]["median"]
                worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
                line += f"  worse-than-earlier {worse:+.4f}"
            print(line, flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps({"summary": summary, "runs": runs}, indent=1))


if __name__ == "__main__":
    main()
