#!/usr/bin/env python3
"""Record one trajectory point: every workload at several seeds, end to end,
plus one traced run per workload.

    python3 perfbench/record.py --label 9cfd569 --seeds 101-110

Each run measures BENCHMARK.json's run_seconds.  Writes
perfbench/trajectory/<label>.json with, per workload and end-to-end
metric, the median, the quartiles (statistics.quantiles, n=4), the spread
(q3 - q1) / median, the run count and every value; the same for the
host-speed kernel and the timings before scaling (run.py's "unscaled"
line); and the traced per-layer table.  Seeds run in the outer loop, so
slow phases of the host fall on all workloads alike.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    result["unscaled"] = json.loads(lines[-2])["unscaled"] if len(lines) > 1 else {}
    result["exit_code"] = proc.returncode
    print(f"{workload} seed={seed} trace={trace} exit={proc.returncode} "
          f"correct={result['correct']}", file=sys.stderr, flush=True)
    return result


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "runs": len(values), "values": values}


def summarize(results):
    return {name: {"unit": m["unit"],
                   **quartiles([r["metrics"][name]["value"] for r in results])}
            for name, m in results[0]["metrics"].items()}


def summarize_unscaled(results):
    return {name: quartiles([r["unscaled"][name] for r in results])
            for name in results[0]["unscaled"]}


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="commit the point measures")
    parser.add_argument("--seeds", default="101-110", help="first-last, inclusive")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            runs[w].append(run(w, seed, seconds, 0))
    traced = {w: run(w, seeds[0], seconds, 1) for w in workloads}

    import numpy

    point = {
        "label": args.label,
        "machine": {"cpu": cpu_model(), "nproc": os.cpu_count(),
                    "python": platform.python_version(), "numpy": numpy.__version__},
        "run_seconds": seconds,
        "seeds": seeds,
        "failed_runs": sum(not r["correct"] or r["exit_code"] for rs in runs.values() for r in rs)
        + sum(not r["correct"] or r["exit_code"] for r in traced.values()),
        "end_to_end": {w: summarize(rs) for w, rs in runs.items()},
        # host-speed kernel (ms) and the end-to-end timings before scaling
        "unscaled": {w: summarize_unscaled(rs) for w, rs in runs.items()},
        "per_layer": {w: {k: v["value"] for k, v in r["metrics"].items()}
                      for w, r in traced.items()},
        "per_layer_unscaled": {w: r["unscaled"] for w, r in traced.items()},
    }
    os.makedirs(os.path.join(BENCH_DIR, "trajectory"), exist_ok=True)
    path = os.path.join(BENCH_DIR, "trajectory", f"{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(point, fh, indent=1)
        fh.write("\n")
    for w, metrics in point["end_to_end"].items():
        for name, m in metrics.items():
            print(f"{w:<12} {name:<14} median {m['median']:<12.6g} spread {m['spread']:.4f}")
    print(f"wrote {path}")
    return 1 if point["failed_runs"] else 0


if __name__ == "__main__":
    sys.exit(main())
