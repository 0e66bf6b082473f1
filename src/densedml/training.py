"""Training loop, evaluation entry points, and the comparison/sweep harness.

One step: sample a batch, encode it, update the channel-frequency counters,
draw scaling factors, bank the new intra-class transformations, draw shifting
factors, produce embeddings, sample triplets over the concatenated batch,
take the loss, and update the encoder.  All randomness comes from named
sub-streams of the run seed, so disabling one component never shifts the
draws of another.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig, apply_override, save_config
from .core import STREAMS, SeededRng, pairwise_distances
from .das import DasConfig, FrequencyRecorder, TransformationBank, produce, produced_backward
from .data import Dataset, generate_gaussian_clusters, load_csv
from .encoder import (
    EncoderParams,
    OptimizerState,
    backward,
    encode,
    init_params,
    load_checkpoint,
    optimizer_step,
    save_checkpoint,
)
from .errors import ConfigError, EngineError, ShapeMismatchError, TrainingAbortError
from .losses import contrastive_loss, margin_loss, multi_similarity_loss, triplet_loss
from .metrics import EvalReport, evaluate_embeddings
from .sampling import sample_batch, sample_triplets


@dataclass
class TrainResult:
    params: EncoderParams
    opt_state: OptimizerState
    log_lines: list
    final_report: EvalReport
    dataset: Dataset
    margin_beta: float


def build_dataset(cfg: RunConfig, rng: SeededRng) -> Dataset:
    d = cfg.data
    if d.path:
        return load_csv(d.path, d.label_col, header=d.header)
    if d.seed >= 0:
        # pinned generator seed: the same dataset across training seeds
        rng = SeededRng(d.seed, STREAMS["data"])
    return generate_gaussian_clusters(
        d.classes, d.per_class, d.input_dim, d.center_scale, d.noise_sigma, rng
    )


def check_eval_ks(ks, dataset: Dataset) -> None:
    """Reject a recall k the dataset's test split is too small to score."""
    n_test = dataset.subset(dataset.test_classes)[1].size
    if max(ks) >= n_test:
        raise ConfigError(
            f"eval_ks max {max(ks)} needs at least {max(ks) + 1} "
            f"test points, the test split has {n_test}"
        )


def _loss_for(cfg: RunConfig, embeddings, labels, triplets, beta):
    kind = cfg.loss.kind
    if kind == "triplet":
        return triplet_loss(embeddings, triplets, cfg.loss.triplet_margin)
    if kind == "contrastive":
        return contrastive_loss(embeddings, triplets.to_pairs(), cfg.loss.contrastive_margin)
    if kind == "margin":
        return margin_loss(embeddings, triplets.to_pairs(), cfg.loss.margin_alpha, beta)
    return multi_similarity_loss(embeddings, labels, cfg.loss)


def _evaluate_split(params, dataset, ks, seed) -> EvalReport:
    feats, labels = dataset.subset(dataset.test_classes)
    emb, _ = encode(params, feats)
    return evaluate_embeddings(emb, labels, ks, SeededRng(seed, STREAMS["eval"]))


def train(cfg: RunConfig, trace=None) -> TrainResult:
    """Run the full loop; returns final parameters plus the run log lines.

    `trace`, when given, is any object with an `append` method; it receives
    one phase name per executed pipeline stage, in order (tests pin the step
    ordering with a list; a benchmark can time the phases).
    """
    cfg.validate()
    root = SeededRng(cfg.seed)
    rng_init = root.derive("init")
    rng_data = root.derive("data")
    rng_das = root.derive("das")
    rng_sampler = root.derive("sampler")

    dataset = build_dataset(cfg, rng_data)
    n_train_classes = len(dataset.train_classes)
    if cfg.batch.classes_per_batch > n_train_classes:
        raise ConfigError(
            f"batch.classes_per_batch={cfg.batch.classes_per_batch} exceeds the "
            f"{n_train_classes} training classes"
        )
    check_eval_ks(cfg.eval_ks, dataset)
    d_embed = cfg.encoder.embed_dim
    params = init_params(
        cfg.encoder.layer_sizes(dataset.input_dim), cfg.encoder.activation, rng_init
    )
    opt = OptimizerState(rule=cfg.optim.kind, lr=cfg.optim.lr, momentum=cfg.optim.momentum)
    beta = cfg.loss.margin_beta
    beta_lr = cfg.loss.beta_lr if cfg.loss.beta_lr is not None else cfg.optim.lr

    das_cfg: DasConfig = cfg.das
    recorder = FrequencyRecorder(n_train_classes, d_embed)
    bank = TransformationBank(n_train_classes, das_cfg.Z, d_embed)

    def emit(event):
        if trace is not None:
            trace.append(event)

    log_lines = []
    final_report = None
    for step in range(1, cfg.steps + 1):
        try:
            x, y = sample_batch(dataset, cfg.batch, rng_data)
            emit("batch")
            emb, tape = encode(params, x)
            emit("encode")
            n_real = emb.shape[0]

            produced = None
            if das_cfg.enabled:
                produced = produce(emb, y, recorder, bank, das_cfg, rng_das, emit)
                cat_emb = np.vstack([emb, produced.embeddings])
                cat_labels = np.concatenate([y, produced.labels])
            else:
                cat_emb, cat_labels = emb, y

            anchor_indices = (
                None if cfg.sampler.produced_as_anchors else np.arange(n_real)
            )
            triplets = None
            if cfg.loss.kind != "ms":
                dist = pairwise_distances(cat_emb)
                triplets = sample_triplets(
                    cfg.sampler.kind,
                    dist,
                    cat_labels,
                    rng_sampler,
                    embed_dim=d_embed,
                    semihard_margin=cfg.sampler.semihard_margin,
                    clip=cfg.sampler.clip,
                    anchor_indices=anchor_indices,
                )
                emit("sample")

            out = _loss_for(cfg, cat_emb, cat_labels, triplets, beta)
            emit("loss")
            if not math.isfinite(out.value):
                raise TrainingAbortError(f"non-finite loss {out.value} at step {step}")

            grad_real = out.grad[:n_real].copy()
            if produced is not None:
                grad_real += produced_backward(
                    produced, out.grad[n_real:], n_real, d_embed
                )

            w_grads, b_grads = backward(params, tape, grad_real)
            optimizer_step(params, w_grads, b_grads, opt)
            if cfg.loss.kind == "margin" and out.beta_grad is not None:
                beta = max(beta - beta_lr * out.beta_grad, 1e-6)
            emit("update")

            record = {
                "type": "step",
                "step": step,
                "loss": out.value,
                "active": out.active_count,
                "produced": 0 if produced is None else len(produced.labels),
                "dropped": 0 if produced is None else produced.dropped,
            }
            log_lines.append(json.dumps(record))

            is_eval_step = cfg.eval_every > 0 and step % cfg.eval_every == 0
            if is_eval_step or step == cfg.steps:
                report = _evaluate_split(params, dataset, cfg.eval_ks, cfg.seed)
                log_lines.append(json.dumps({"type": "eval", **report.to_json_dict(step)}))
                final_report = report
        except TrainingAbortError:
            raise
        except EngineError as exc:
            raise TrainingAbortError(f"step {step}: {exc}") from exc

    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        with open(os.path.join(cfg.out_dir, "run.log.jsonl"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(log_lines) + "\n")
        save_config(cfg, os.path.join(cfg.out_dir, "config.json"))
        save_checkpoint(
            os.path.join(cfg.out_dir, "checkpoint.json"), params, opt, cfg.seed
        )
    return TrainResult(params, opt, log_lines, final_report, dataset, beta)


def evaluate_checkpoint(checkpoint_path, dataset: Dataset, ks) -> EvalReport:
    """Load a checkpoint and score the dataset's test split at recall `ks`."""
    params, _, seed = load_checkpoint(checkpoint_path)
    if dataset.input_dim != params.input_dim:
        raise ShapeMismatchError(
            f"dataset dim {dataset.input_dim} != encoder d_in {params.input_dim}"
        )
    return _evaluate_split(params, dataset, list(ks), seed)


# ---------------------------------------------------------------------------
# comparison / sweep harness


@dataclass
class CellResult:
    variant: str
    seed: int
    status: str  # ok | failed
    error: str = ""
    recall1: float = float("nan")
    nmi: float = float("nan")
    f1: float = float("nan")


@dataclass
class VariantSummary:
    variant: str
    n_ok: int
    n_failed: int
    recall1_mean: float
    recall1_std: float
    nmi_mean: float
    nmi_std: float
    f1_mean: float
    f1_std: float


@dataclass
class ComparisonTable:
    cells: list = field(default_factory=list)
    summaries: list = field(default_factory=list)

    def summary_for(self, variant: str) -> VariantSummary:
        for s in self.summaries:
            if s.variant == variant:
                return s
        raise KeyError(variant)

    def format_table(self) -> str:
        header = f"{'variant':<16} {'seeds':>5} {'R@1':>16} {'NMI':>16} {'F1':>16} {'failed':>6}"
        lines = [header, "-" * len(header)]
        for s in self.summaries:
            lines.append(
                f"{s.variant:<16} {s.n_ok:>5} "
                f"{s.recall1_mean:>8.4f} ±{s.recall1_std:<6.4f} "
                f"{s.nmi_mean:>8.4f} ±{s.nmi_std:<6.4f} "
                f"{s.f1_mean:>8.4f} ±{s.f1_std:<6.4f} {s.n_failed:>6}"
            )
        return "\n".join(lines)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["variant", "n_ok", "n_failed", "recall1_mean", "recall1_std",
                 "nmi_mean", "nmi_std", "f1_mean", "f1_std"]
            )
            for s in self.summaries:
                writer.writerow(
                    [s.variant, s.n_ok, s.n_failed,
                     f"{s.recall1_mean:.6f}", f"{s.recall1_std:.6f}",
                     f"{s.nmi_mean:.6f}", f"{s.nmi_std:.6f}",
                     f"{s.f1_mean:.6f}", f"{s.f1_std:.6f}"]
                )


def _mean_std(values):
    if not values:
        return float("nan"), float("nan")
    arr = np.asarray(values, dtype=np.float64)
    std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    return float(arr.mean()), std


def ablation_variants() -> list:
    """Four-cell grid: no production / scaling only / shifting only / both."""
    return [
        ("baseline", {"das.enabled": "false"}),
        ("dfs_only", {"das.enabled": "true", "das.rb": "0"}),
        ("mts_only", {"das.enabled": "true", "das.rs": "0"}),
        ("both", {"das.enabled": "true"}),
    ]


def sweep_variants(param: str, values) -> list:
    return [(f"{param}={v}", {param: str(v)}) for v in values]


def run_comparison(
    base: RunConfig, variants, seeds, out_dir: str = "", progress=None
) -> ComparisonTable:
    """Train every (variant, seed) cell and aggregate final test metrics.

    Every cell's overrides are applied before the first cell trains, so a
    value that does not parse, an override of the seed or out_dir each cell
    gets from the comparison, an empty variant or seed list, or a variant
    name or seed listed twice raises ConfigError with nothing trained.
    Failed cells are recorded and skipped in the aggregates; the run
    continues.
    """
    if not variants or not seeds:
        raise ConfigError("a comparison needs at least one variant and one seed")
    for what, items in (("variant", [name for name, _ in variants]), ("seed", list(seeds))):
        repeats = [item for i, item in enumerate(items) if item in items[:i]]
        if repeats:
            raise ConfigError(f"{what} {repeats[0]!r} is listed twice; each cell needs its own")
    grid = []
    for name, overrides in variants:
        for key in ("seed", "out_dir"):
            if key in overrides:
                raise ConfigError(
                    f"variant {name!r} sets {key}, which the comparison sets for each cell"
                )
        configs = []
        for seed in seeds:
            cfg = copy.deepcopy(base)
            for key, value in overrides.items():
                apply_override(cfg, key, value)
            cfg.seed = int(seed)
            cfg.out_dir = os.path.join(out_dir, name, f"seed{seed}") if out_dir else ""
            configs.append(cfg)
        grid.append((name, configs))
    table = ComparisonTable()
    for name, configs in grid:
        ok_cells = []
        for cfg in configs:
            try:
                result = train(cfg)
                report = result.final_report
                cell = CellResult(
                    name, cfg.seed, "ok",
                    recall1=report.recall_at.get(1, float("nan")),
                    nmi=report.nmi, f1=report.f1,
                )
                ok_cells.append(cell)
            except EngineError as exc:
                cell = CellResult(name, cfg.seed, "failed", error=str(exc))
            table.cells.append(cell)
            if progress:
                progress(cell)
        r1_m, r1_s = _mean_std([c.recall1 for c in ok_cells])
        nmi_m, nmi_s = _mean_std([c.nmi for c in ok_cells])
        f1_m, f1_s = _mean_std([c.f1 for c in ok_cells])
        n_failed = len(configs) - len(ok_cells)
        table.summaries.append(
            VariantSummary(name, len(ok_cells), n_failed, r1_m, r1_s, nmi_m, nmi_s, f1_m, f1_s)
        )
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        table.write_csv(os.path.join(out_dir, "report.csv"))
    return table
