#!/usr/bin/env python3
"""Python-level calls per training step, and their top call sites.

    PYTHONPATH=src python scripts/step_calls.py [--steps 2000] [--seed 9] [--top 15]

Runs `train()` under cProfile on the perfbench `train_das` and `train_plain`
configs (perfbench/workloads.py) and prints, for each, every call cProfile
counts (Python functions and the C functions and methods they call, such as
numpy's `ufunc.reduce`; a bare ufunc call is not counted) divided by the
steps, then the call sites with the most calls per step.  The set-up and the
one evaluation at the end of the run are in the count, about 4615 calls on
train_das: 2.3 per step over 2000 steps, 9.2 over 500.  Counts are
deterministic for a numpy version.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py)
from densedml.training import train  # noqa: E402

WORKLOADS = ("train_das", "train_plain")


def profile(workload: str, seed: int, steps: int) -> pstats.Stats:
    """cProfile statistics of one `train()` run of `workload`'s config."""
    cfg = workloads.make_config(workload, seed)
    cfg.steps = steps
    prof = cProfile.Profile()
    prof.runcall(train, cfg)
    return pstats.Stats(prof)


def calls_per_step(workload: str, seed: int = 9, steps: int = 2000) -> float:
    return profile(workload, seed, steps).total_calls / steps


def call_sites(stats: pstats.Stats, steps: int, top: int) -> list:
    """(calls per step, 'file:line(function)') of the `top` busiest sites."""
    rows = [(nc / steps, pstats.func_std_string(func))
            for func, (_, nc, _, _, _) in stats.stats.items()]
    return sorted(rows, key=lambda row: -row[0])[:top]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--steps", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--top", type=int, default=15)
    args = parser.parse_args(argv)
    for workload in WORKLOADS:
        stats = profile(workload, args.seed, args.steps)
        print(f"{workload}: {stats.total_calls / args.steps:.1f} calls per step "
              f"({stats.total_calls} calls, {args.steps} steps, seed {args.seed})")
        for per_step, site in call_sites(stats, args.steps, args.top):
            print(f"  {per_step:8.2f}  {site}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
