#!/usr/bin/env python3
"""Four-cell ablation on the synthetic benchmark: no production / scaling only /
shifting only / both, five training seeds on one pinned dataset.

Writes per-cell run artifacts and report.csv under --out-dir and prints the
aggregate table.  This is the same experiment the acceptance suite runs.
"""

import argparse

from densedml.config import ConfigError, RunConfig, parse_int_list
from densedml.training import ablation_variants, run_comparison


def benchmark_config() -> RunConfig:
    cfg = RunConfig()
    cfg.steps = 2000
    cfg.data.classes = 16
    cfg.data.per_class = 64
    cfg.data.input_dim = 32
    cfg.data.noise_sigma = 0.6
    cfg.data.seed = 1
    cfg.encoder.hidden = [64]
    cfg.encoder.embed_dim = 16
    cfg.loss.kind = "triplet"
    cfg.sampler.kind = "distance"
    cfg.eval_ks = [1, 2, 4, 8]
    cfg.eval_every = 500
    return cfg


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="runs/ablation")
    parser.add_argument("--seeds", default="0,1,2,3,4")
    parser.add_argument("--steps", type=int, default=2000)
    args = parser.parse_args()

    cfg = benchmark_config()
    cfg.steps = args.steps
    try:
        seeds = parse_int_list(args.seeds, "--seeds")
    except ConfigError as exc:
        parser.error(str(exc))
    table = run_comparison(
        cfg, ablation_variants(), seeds, out_dir=args.out_dir,
        progress=lambda c: print(f"  [{c.variant} seed={c.seed}] {c.status}"),
    )
    print()
    print(table.format_table())
    print(f"\nreport.csv written under {args.out_dir}")


if __name__ == "__main__":
    main()
