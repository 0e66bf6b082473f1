#!/usr/bin/env python3
"""Hash the run log and final parameters of every cell of a fixed grid.

The grid crosses 3 seeds x the four ablation variants x four losses x four
samplers x three batch/anchor settings (default, produced rows never anchor,
M=3) on the acceptance config, each run for STEPS steps.  The
multi-similarity loss mines its own pairs, so it runs once per setting
instead of once per sampler: 468 cells in all.

A refactor that must not change the seeded draw sequence runs this on the
parent and on the change and compares the two files:

    PYTHONPATH=src python scripts/golden_logs.py --out before.json
    PYTHONPATH=src python scripts/golden_logs.py --out after.json
    cmp before.json after.json
"""

import argparse
import copy
import hashlib
import json

from densedml.config import apply_override
from densedml.training import ablation_variants, train

from run_ablation import benchmark_config

STEPS = 150
SEEDS = (0, 1, 2)
LOSSES = ("triplet", "contrastive", "margin", "ms")
SAMPLERS = ("random", "semihard", "softhard", "distance")
SETTINGS = (
    ("default", {}),
    ("real_anchors", {"sampler.produced_as_anchors": "false"}),
    ("M=3", {"batch.samples_per_class": "3"}),
)


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


def cell_hashes(cfg):
    result = train(cfg)
    log = hashlib.sha256("\n".join(result.log_lines).encode("utf-8")).hexdigest()
    params = hashlib.sha256()
    for w, b in zip(result.params.weights, result.params.biases):
        params.update(w.tobytes())
        params.update(b.tobytes())
    return {"log": log, "params": params.hexdigest()}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, help="JSON file of per-cell hashes")
    args = parser.parse_args()

    base = benchmark_config()
    base.steps = STEPS
    base.eval_every = 0
    hashes = {}
    for name, overrides in grid():
        cfg = copy.deepcopy(base)
        for key, value in overrides.items():
            apply_override(cfg, key, value)
        hashes[name] = cell_hashes(cfg)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(hashes, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(hashes)} cells written to {args.out}")


if __name__ == "__main__":
    main()
