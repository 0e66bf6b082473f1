"""Workload definitions for the densedml benchmark.

Every workload is the same user session, repeated in a closed loop by one
client: `train(cfg)` for a fixed number of steps, then
`evaluate_checkpoint` on the trained checkpoint, EVALS[workload] times.
Sessions cycle through SUB_SEEDS training seeds derived from the benchmark
seed, on the dataset the acceptance config pins (data.seed=1), so quality is
a mean over seeds.  The
workloads differ in where a session spends its time:

* train_das   - the acceptance/ablation config (16 classes, MLP 32-64-16,
                triplet loss, distance-weighted sampler, P=8, M=2) with
                densely-anchored sampling on, T=3: each step mines 16 real
                plus 48 produced rows, so `sampling` and `das` dominate.
* train_plain - the same config with das.enabled=false: 16 rows per step and
                `das` idle, so the fixed per-step cost (encoder, loss,
                training glue) is the larger share.
* eval_large  - 256 points per class, so the test split holds 2048 points and
                evaluation (n x n x d distances, one argsort per query,
                k-means) dominates time and peak memory; training is a short
                DAS-off run that produces the checkpoint.
"""

from __future__ import annotations

from densedml.config import RunConfig
from densedml.core import STREAMS, SeededRng
from densedml.encoder import init_params
from densedml.training import build_dataset

WORKLOADS = ("train_das", "train_plain", "eval_large")

SUB_SEEDS = 9
DATA_SEED = 1

# Steps per train() call.  train_* get enough steps that the step loop,
# not the evaluations, holds the session; eval_large gets few.
STEPS = {"train_das": 500, "train_plain": 500, "eval_large": 300}
# Evaluations per session.  One evaluate_checkpoint call varies by 15-30%
# from the next on a host whose speed drifts, so the train_* sessions score
# their checkpoint three times and eval_s is the median over every call of
# a run.  eval_large makes one call: its calls take about a second and a run
# must still reach every training seed; and on 2048 points the first call
# of a session runs about 20% slower than the next, so with two calls the
# median would fall between the two groups.
EVALS = {"train_das": 3, "train_plain": 3, "eval_large": 1}
PER_CLASS = {"train_das": 64, "train_plain": 64, "eval_large": 256}

# phase names train() reports through its `trace` hook, per step
DAS_PHASES = ("batch", "encode", "frm", "scale", "transform", "enqueue", "shift",
              "produce", "sample", "loss", "update")
PLAIN_PHASES = ("batch", "encode", "sample", "loss", "update")


def training_seeds(seed: int) -> list:
    """The training seeds one benchmark seed stands for."""
    return [seed * SUB_SEEDS + i for i in range(SUB_SEEDS)]


def make_config(workload: str, seed: int) -> RunConfig:
    """The run config of one workload session with training seed `seed`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    cfg = RunConfig()
    cfg.seed = seed
    cfg.steps = STEPS[workload]
    cfg.data.classes = 16
    cfg.data.per_class = PER_CLASS[workload]
    cfg.data.input_dim = 32
    cfg.data.noise_sigma = 0.6
    cfg.data.seed = DATA_SEED
    cfg.encoder.hidden = [64]
    cfg.encoder.embed_dim = 16
    cfg.loss.kind = "triplet"
    cfg.sampler.kind = "distance"
    cfg.batch.classes_per_batch = 8
    cfg.batch.samples_per_class = 2
    cfg.das.enabled = workload == "train_das"
    cfg.das.T = 3
    cfg.eval_ks = [1, 2, 4, 8]
    cfg.eval_every = 0
    return cfg.validate()


def expected_phases(cfg: RunConfig) -> tuple:
    return DAS_PHASES if cfg.das.enabled else PLAIN_PHASES


def prepare(workload: str, seed: int):
    """What a session needs before its first step: the dataset and the
    initial encoder parameters.  Timed from a fresh interpreter as setup_s."""
    cfg = make_config(workload, training_seeds(seed)[0])
    root = SeededRng(cfg.seed)
    dataset = build_dataset(cfg, SeededRng(cfg.seed, STREAMS["data"]))
    params = init_params(cfg.encoder.layer_sizes(dataset.input_dim),
                         cfg.encoder.activation, root.derive("init"))
    return dataset, params
