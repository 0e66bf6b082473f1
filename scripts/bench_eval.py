#!/usr/bin/env python3
"""Time and peak memory of one evaluation against test-split size.

For each n in --sizes, build n unit rows in d = 16 over 16 equal classes,
then run `evaluate_embeddings(emb, labels, [1, 2, 4, 8], rng)` --repeats
times, timing each call (unscaled wall time), and once more under
`tracemalloc` for the peak of the allocations made during the call (the
inputs exist before tracing starts).  Beside the peak each row records the
scratch that the docstrings of `recall_at_k` and `kmeans` give, the larger
of the two stages, which run one after the other:
- recall: the label-sorted planes over their norm row and the norms,
  8*(d + 2)*n bytes, the unsorted plane copy made while they are filled,
  8*d*n, and per block of b = RECALL_BLOCK_ROWS queries the b x n Gram
  product, 8*b*n, and five b x n masks, 5*b*n;
- k-means: the points' planes over a row of ones and the centroids' planes,
  8*(d + 1)*(n + k), the plane copy made while they are filled, 8*d*n, the
  norms, 8*n, and per sweep the k x n product and two k x n masks, 10*k*n.
A measured peak above it exits 1, after the rows are written.  On this
split (unit rows) about one entry per query needs a kernel distance, so the
kernel's gathers stay small beside it.

Rows are merged into --out under --label (a size measured again replaces
its row), one entry per label with the host it ran on, so the rows of two
source trees can sit in one file:

    PYTHONPATH=/path/to/parent/src python scripts/bench_eval.py --label parent
    PYTHONPATH=src python scripts/bench_eval.py --label change

At n = 20000 one evaluation takes tens of seconds on a 2-core Xeon; pass
--sizes 2048 for a quick look.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc

import numpy as np

from densedml.core import STREAMS, SeededRng
from densedml.metrics import RECALL_BLOCK_ROWS, evaluate_embeddings

CLASSES, DIM, KS = 16, 16, (1, 2, 4, 8)


def split(n):
    """n unit rows in DIM dimensions, labels 0..CLASSES-1 in equal shares."""
    rng = SeededRng(n, STREAMS["data"])
    emb = rng.standard_normal((n, DIM))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    return emb, np.arange(n) % CLASSES


def evaluate(emb, labels):
    return evaluate_embeddings(emb, labels, KS, SeededRng(0, STREAMS["eval"]))


def scratch_bound(n, d=DIM, k=CLASSES):
    b = min(RECALL_BLOCK_ROWS, n)
    recall = 8 * (d + 2) * n + 8 * d * n + 13 * b * n
    kmeans = 8 * (d + 1) * (n + k) + 8 * d * n + 8 * n + 10 * k * n
    return max(recall, kmeans)


def host():
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": model, "cores": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__}


def measure(n, repeats):
    emb, labels = split(n)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        report = evaluate(emb, labels)
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    traced = evaluate(emb, labels)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert traced.to_json_dict() == report.to_json_dict()
    return {
        "n": n,
        "eval_s_min": round(min(times), 4),
        "eval_s_median": round(statistics.median(times), 4),
        "eval_s_runs": [round(t, 4) for t in times],
        "tracemalloc_peak_mb": round(peak / 1e6, 3),
        "scratch_bound_mb": round(scratch_bound(n) / 1e6, 3),
        "recall@1": report.recall_at[1],
        "nmi": report.nmi,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="name of the source tree measured")
    parser.add_argument("--sizes", default="2048,8192,20000")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_eval.json")
    args = parser.parse_args()

    rows = []
    for n in (int(s) for s in args.sizes.split(",")):
        rows.append(measure(n, args.repeats))
        print(json.dumps(rows[-1]), flush=True)
    doc = {"about": __doc__.split("\n\n")[0].strip(), "runs": {}}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    kept = [r for r in doc["runs"].get(args.label, {}).get("rows", [])
            if r["n"] not in {row["n"] for row in rows}]
    doc["runs"][args.label] = {"host": host(),
                               "rows": sorted(kept + rows, key=lambda r: r["n"])}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    over = [row["n"] for row in rows if row["tracemalloc_peak_mb"] > row["scratch_bound_mb"]]
    if over:
        print(f"peak above the documented scratch at n = {over}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
