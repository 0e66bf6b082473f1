#!/usr/bin/env python3
"""Hash the parsed config, run log and final parameters of every cell of a
fixed grid.

The training grid crosses 3 seeds x the four ablation variants x four losses
x four samplers x three batch/anchor settings (default, produced rows never
anchor, M=3) on the acceptance config, each run for STEPS steps.  The
multi-similarity loss mines its own pairs, so it runs once per setting
instead of once per sampler: 468 cells in all.

Ten evaluation cells hash the EvalReport of a 2048-point test split (the
acceptance config with 256 points per class and DAS off, trained for
EVAL_STEPS steps, once per seed in EVAL_SEEDS) and of one synthetic split on
a small integer grid, where duplicate points and tied distances abound.

The config hash pins how the grid's string overrides parse.  A refactor
that must not change config parsing, the seeded draw sequence or the
evaluation runs this on the parent and on the change and compares the two
files:

    PYTHONPATH=src python scripts/golden_logs.py --out before.json
    PYTHONPATH=src python scripts/golden_logs.py --out after.json
    cmp before.json after.json

`tests/golden.json` holds the committed hashes as {"numpy": the version that
wrote them, "cells": an --out file}; tier-1 recomputes a covering subset of
its cells (tests/test_golden.py).  `--check FILE` runs the whole grid against
FILE (that file or a plain --out file) and names every differing cell:

    PYTHONPATH=src python scripts/golden_logs.py --check tests/golden.json

The stream depends on numpy's generator internals, so a numpy upgrade may
change it.  A change that must alter the stream says so in CHANGES.md and
regenerates the committed file: the new --out file's map goes under "cells",
beside "numpy": numpy.__version__.

A change that adds or removes a config field changes every `config` hash
by design, since the hash covers the whole config document.  The gate then
reads per field: every `log` and `params` hash, and every evaluation hash,
must still match.  Parsing is checked apart from the new document: in a
scratch copy of the parent, hash each cell's `config_to_dict` with the
removed key popped (or the added key set to its default) and compare those
hashes with the change's `config` hashes.
"""

import argparse
import copy
import hashlib
import json
import sys

import numpy as np

from densedml.config import RunConfig, apply_override, config_to_dict
from densedml.core import SeededRng
from densedml.metrics import evaluate_embeddings
from densedml.training import ablation_variants, train

STEPS = 150
SEEDS = (0, 1, 2)
LOSSES = ("triplet", "contrastive", "margin", "ms")
SAMPLERS = ("random", "semihard", "softhard", "distance")
SETTINGS = (
    ("default", {}),
    ("real_anchors", {"sampler.produced_as_anchors": "false"}),
    ("M=3", {"batch.samples_per_class": "3"}),
)
EVAL_STEPS = 300
EVAL_SEEDS = tuple(range(9, 18))
EVAL_OVERRIDES = {"data.per_class": "256", "das.enabled": "false"}
# tie-heavy split: points on a 3x3x3 integer grid, ten random labels
TIE_POINTS, TIE_CLASSES, TIE_KS = 600, 10, (1, 2, 4, 8, 64, 599)


def grid():
    """(cell name, overrides) for every cell, in a fixed order."""
    for variant, variant_overrides in ablation_variants():
        for loss in LOSSES:
            for sampler in SAMPLERS[-1:] if loss == "ms" else SAMPLERS:
                for setting, setting_overrides in SETTINGS:
                    for seed in SEEDS:
                        name = f"{variant}/{loss}/{sampler}/{setting}/seed{seed}"
                        overrides = {**variant_overrides, **setting_overrides,
                                     "loss.kind": loss, "sampler.kind": sampler,
                                     "seed": str(seed)}
                        yield name, overrides


def sha256_hex(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cell_hashes(cfg):
    config = sha256_hex(json.dumps(config_to_dict(cfg), sort_keys=True))
    result = train(cfg)
    log = sha256_hex("\n".join(result.log_lines))
    params = hashlib.sha256()
    for w, b in zip(result.params.weights, result.params.biases):
        params.update(w.tobytes())
        params.update(b.tobytes())
    return {"config": config, "log": log, "params": params.hexdigest()}


def report_hash(report):
    return sha256_hex(json.dumps(report.to_json_dict(), sort_keys=True))


def eval_hashes(base):
    """{cell name: EvalReport hash} for the evaluation cells."""
    hashes = {}
    for seed in EVAL_SEEDS:
        cfg = cell_config(base, EVAL_OVERRIDES)
        cfg.steps = EVAL_STEPS
        cfg.seed = seed
        hashes[f"eval/n2048/seed{seed}"] = report_hash(train(cfg).final_report)
    hashes["eval/integer_grid"] = integer_grid_hash()
    return hashes


def integer_grid_hash():
    rng = SeededRng(0)
    emb = rng.integers(3, size=(TIE_POINTS, 3)).astype(float)
    labels = rng.integers(TIE_CLASSES, size=TIE_POINTS)
    return report_hash(evaluate_embeddings(emb, labels, TIE_KS, rng))


def base_config():
    base = RunConfig()  # the acceptance config on one pinned dataset
    apply_override(base, "data.seed", 1)
    base.steps = STEPS
    return base


def cell_config(base, overrides):
    cfg = copy.deepcopy(base)
    for key, value in overrides.items():
        apply_override(cfg, key, value)
    return cfg


def check(path, hashes):
    """Print every cell whose hashes differ from the file's; returns the exit code."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    recorded = doc.get("cells", doc)
    names = recorded.keys() | hashes.keys()
    differing = sorted(n for n in names if recorded.get(n) != hashes.get(n))
    for name in differing:
        print(f"differs: {name}")
    print(f"{len(differing)} of {len(hashes)} cells differ from {path} (written under numpy "
          f"{doc.get('numpy', 'unrecorded')}, running numpy {np.__version__})")
    return 1 if differing else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="JSON file of per-cell hashes")
    mode.add_argument("--check", metavar="FILE",
                      help="compare with FILE's hashes and name every differing cell")
    args = parser.parse_args()

    base = base_config()
    hashes = {name: cell_hashes(cell_config(base, overrides)) for name, overrides in grid()}
    hashes.update(eval_hashes(base))
    if args.check:
        return check(args.check, hashes)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(hashes, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(hashes)} cells written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
