#!/usr/bin/env python3
"""Time and peak memory of one evaluation against test-split size.

For each n in --sizes, build n unit rows in d = 16 over 16 equal classes,
then run `evaluate_embeddings(emb, labels, [1, 2, 4, 8], rng)` --repeats
times, timing each call (unscaled wall time), and once more under
`tracemalloc` for the peak of the allocations made during the call (the
inputs exist before tracing starts).  Beside the peak each row records the
scratch bound that the squared plane kernel's docstring
(`core._squared_distances`) gives for the largest kernel call of the
evaluation, a k-means sweep's 16 x n call: the plane copies of the points
and the centers, 8*d*(n + k) bytes, one block, max(DISTANCE_BLOCK_BYTES,
8*d*n) bytes, and the 8*n*k output.  Recall@k stays below it: its planes
and norms take 8*(d + 2)*n bytes, plus an unsorted 8*d*n plane copy while
they are filled, and its Gram block at most max(DISTANCE_BLOCK_BYTES, 8*n).

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

from densedml.core import DISTANCE_BLOCK_BYTES, STREAMS, SeededRng
from densedml.metrics import evaluate_embeddings

CLASSES, DIM, KS = 16, 16, (1, 2, 4, 8)


def split(n):
    """n unit rows in DIM dimensions, labels 0..CLASSES-1 in equal shares."""
    rng = SeededRng(n, STREAMS["data"])
    emb = rng.standard_normal((n, DIM))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    return emb, np.arange(n) % CLASSES


def evaluate(emb, labels):
    return evaluate_embeddings(emb, labels, KS, SeededRng(0, STREAMS["eval"]))


def kernel_bound(n, d=DIM, k=CLASSES):
    return 8 * d * (n + k) + max(DISTANCE_BLOCK_BYTES, 8 * d * n) + 8 * n * k


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
        "kernel_bound_mb": round(kernel_bound(n) / 1e6, 3),
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
