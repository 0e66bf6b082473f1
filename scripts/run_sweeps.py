#!/usr/bin/env python3
"""Hyper-parameter sweeps over the top-K channel count (K = 1,2,4,8,16,32) and
the transformation-bank capacity (Z = 1..5), one table per sweep."""

import argparse

from densedml.config import ConfigError, RunConfig, parse_int_list
from densedml.training import run_comparison, sweep_variants


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="runs/sweeps")
    parser.add_argument("--seeds", default="0,1,2")
    parser.add_argument("--steps", type=int, default=800)
    args = parser.parse_args()
    try:
        seeds = parse_int_list(args.seeds, "--seeds")
    except ConfigError as exc:
        parser.error(str(exc))

    cfg = RunConfig()
    cfg.steps = args.steps
    cfg.data.seed = 1
    cfg.encoder.embed_dim = 32  # room for the K=32 cell
    cfg.encoder.hidden = [64]
    cfg.loss.kind = "margin"
    cfg.sampler.kind = "distance"
    cfg.eval_ks = [1]
    cfg.eval_every = 0

    for param, values in (("das.K", [1, 2, 4, 8, 16, 32]), ("das.Z", [1, 2, 3, 4, 5])):
        out = f"{args.out_dir}/{param.replace('.', '_')}"
        table = run_comparison(cfg, sweep_variants(param, values), seeds, out_dir=out)
        print(f"\n=== sweep over {param} ===")
        print(table.format_table())
        print(f"report.csv written under {out}")


if __name__ == "__main__":
    main()
