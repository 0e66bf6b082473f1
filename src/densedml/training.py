"""Training loop, evaluation entry points, and the comparison/sweep harness.

`train` sets a run up and loops `step` over its state (a `TrainResult`).
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
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .config import RunConfig, apply_override, check_sizes, save_config
from .core import STREAMS, SeededRng, pairwise_distances
from .das import FrequencyRecorder, TransformationBank, produce, produced_backward
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
from .errors import ConfigError, CorruptCheckpointError, EngineError, TrainingAbortError
from .losses import contrastive_loss, margin_loss, multi_similarity_loss, triplet_loss
from .metrics import EvalReport, evaluate_embeddings
from .sampling import BatchLayout, anchor_layout, batch_layout, sample_batch, sample_triplets


@dataclass
class TrainResult:
    """A run's whole state: `step` advances it in place, `train` returns it."""

    params: EncoderParams
    opt_state: OptimizerState
    log_lines: list
    final_report: EvalReport
    dataset: Dataset
    margin_beta: float
    recorder: FrequencyRecorder
    bank: TransformationBank
    data: SeededRng  # the batch, DAS and sampler streams
    das: SeededRng
    sampler: SeededRng
    layout: BatchLayout  # the batches' label structure, built in set-up


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
    """The one eval_ks rule: a nonempty list, every k in [1, n_test) for the
    dataset's n_test test points."""
    if not ks or min(ks) < 1:
        raise ConfigError("eval_ks must be a nonempty list of positive integers")
    n_test = dataset.subset(dataset.test_classes)[1].size
    if max(ks) >= n_test:
        raise ConfigError(
            f"eval_ks max {max(ks)} needs at least {max(ks) + 1} "
            f"test points, the test split has {n_test}"
        )


def preflight(cfg: RunConfig, dataset: Dataset) -> None:
    """The rules that read the dataset, run before anything is built for it:
    the size rule on the largest layer and the DAS bank, at the data's width
    and training classes; batch.classes_per_batch; `check_eval_ks`."""
    n_train, e = len(dataset.train_classes), cfg.encoder
    w = e.layer_sizes(dataset.input_dim)  # a layer's weights: two neighbours
    check_sizes(("the data's width, encoder.hidden/embed_dim",
                 max(m * n for m, n in zip(w, w[1:]))),
                (f"the {n_train} training classes, das.Z, encoder.embed_dim",
                 n_train * cfg.das.Z * e.embed_dim))
    if cfg.batch.classes_per_batch > n_train:
        raise ConfigError(f"batch.classes_per_batch={cfg.batch.classes_per_batch} exceeds the "
                          f"{n_train} training classes")
    check_eval_ks(cfg.eval_ks, dataset)


def _loss_for(cfg: RunConfig, embeddings, labels, triplets, beta, dist):
    """The configured loss; `dist` is the batch's distance matrix (None for
    multi-similarity, which mines on cosine similarity)."""
    kind = cfg.loss.kind
    if kind == "triplet":
        return triplet_loss(embeddings, triplets, cfg.loss.triplet_margin, dist)
    if kind == "contrastive":
        return contrastive_loss(embeddings, triplets.to_pairs(), cfg.loss.contrastive_margin,
                                dist)
    if kind == "margin":
        return margin_loss(embeddings, triplets.to_pairs(), cfg.loss.margin_alpha, beta, dist)
    return multi_similarity_loss(embeddings, labels, cfg.loss)


def _evaluate_split(params, dataset, ks, seed) -> EvalReport:
    feats, labels = dataset.subset(dataset.test_classes)
    emb, _ = encode(params, feats)
    return evaluate_embeddings(emb, labels, ks, SeededRng(seed, STREAMS["eval"]))


def step(state: TrainResult, cfg: RunConfig, emit) -> dict:
    """Run one training step on `state` in place; returns the step's log record.

    `emit` receives each phase name as its stage completes.
    """
    x, y = sample_batch(state.dataset, cfg.batch, state.data)
    emit("batch")
    emb, tape = encode(state.params, x)
    emit("encode")
    n_real, d_embed = emb.shape

    produced, layout = None, state.layout
    if cfg.das.enabled and cfg.das.T > 0:
        produced = produce(emb, y, state.recorder, state.bank, cfg.das, state.das, emit)
        cat_emb = np.concatenate([emb, produced.embeddings])
        cat_labels = np.concatenate([y, produced.labels])
        if produced.dropped:  # the rows no longer follow the run's layout
            layout = anchor_layout(cat_labels, None if cfg.sampler.produced_as_anchors
                                   else np.arange(n_real))
    else:
        cat_emb, cat_labels = emb, y

    triplets = dist = None
    if cfg.loss.kind != "ms":
        dist = pairwise_distances(cat_emb)  # the sampler and the loss share it
        triplets = sample_triplets(cfg.sampler.kind, dist, layout, state.sampler,
                                   embed_dim=d_embed, semihard_margin=cfg.sampler.semihard_margin,
                                   clip=cfg.sampler.clip)
        emit("sample")

    out = _loss_for(cfg, cat_emb, cat_labels, triplets, state.margin_beta, dist)
    emit("loss")
    if not math.isfinite(out.value):
        raise TrainingAbortError(f"non-finite loss {out.value}")

    grad_real = out.grad[:n_real]  # the loss's own array, updated in place
    if produced is not None:
        grad_real += produced_backward(produced, out.grad[n_real:], n_real, d_embed)
    optimizer_step(state.params, backward(state.params, tape, grad_real), state.opt_state)
    if cfg.loss.kind == "margin":
        beta_lr = cfg.loss.beta_lr if cfg.loss.beta_lr is not None else cfg.optim.lr
        state.margin_beta = max(state.margin_beta - beta_lr * out.beta_grad, 1e-6)
    emit("update")

    return {
        "type": "step",
        "step": state.opt_state.step_count,  # optimizer_step counts the steps
        "loss": out.value,
        "active": out.active_count,
        "produced": 0 if produced is None else len(produced.labels),
        "dropped": 0 if produced is None else produced.dropped,
    }


def train(cfg: RunConfig, trace=None) -> TrainResult:
    """Set up a run, `step` it cfg.steps times, evaluating when due, and write
    the artifacts to cfg.out_dir; returns the run's final state.

    `trace`, when given, is any object with an `append` method; it receives
    one phase name per executed pipeline stage, in order (tests pin the step
    ordering with a list; a benchmark can time the phases).
    """
    cfg.validate()
    root = SeededRng(cfg.seed)
    rng_data = root.derive("data")
    dataset = build_dataset(cfg, rng_data)
    preflight(cfg, dataset)
    n_train_classes, d_embed = len(dataset.train_classes), cfg.encoder.embed_dim
    state = TrainResult(
        params=init_params(cfg.encoder.layer_sizes(dataset.input_dim), cfg.encoder.activation,
                           root.derive("init")),
        opt_state=OptimizerState(cfg.optim.kind, cfg.optim.lr, cfg.optim.momentum),
        log_lines=[], final_report=None, dataset=dataset, margin_beta=cfg.loss.margin_beta,
        recorder=FrequencyRecorder(n_train_classes, d_embed),
        bank=TransformationBank(n_train_classes, cfg.das.Z, d_embed),
        data=rng_data, das=root.derive("das"), sampler=root.derive("sampler"),
        layout=batch_layout(cfg.batch, cfg.das.T if cfg.das.enabled else 0,
                            cfg.sampler.produced_as_anchors),
    )
    emit = trace.append if trace is not None else (lambda phase: None)

    for n in range(1, cfg.steps + 1):
        try:
            state.log_lines.append(json.dumps(step(state, cfg, emit)))
            if n == cfg.steps or (cfg.eval_every > 0 and n % cfg.eval_every == 0):
                state.final_report = _evaluate_split(state.params, dataset, cfg.eval_ks, cfg.seed)
                state.log_lines.append(
                    json.dumps({"type": "eval", **state.final_report.to_json_dict(n)})
                )
        except EngineError as exc:
            raise TrainingAbortError(f"step {n}: {exc}") from exc

    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        with open(os.path.join(cfg.out_dir, "run.log.jsonl"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(state.log_lines) + "\n")
        save_config(cfg, os.path.join(cfg.out_dir, "config.json"))
        save_checkpoint(
            os.path.join(cfg.out_dir, "checkpoint.json"), state.params, state.opt_state, cfg.seed
        )
    return state


def evaluate_checkpoint(checkpoint_path, dataset: Dataset, ks) -> EvalReport:
    """Load a checkpoint and score the dataset's test split at recall `ks`.

    Data of another width than the encoder's input is `encode`'s
    ShapeMismatchError.  Finite parameters can still overflow the encoder:
    outputs on the split that are not finite are a CorruptCheckpointError
    naming the file."""
    params, _, seed = load_checkpoint(checkpoint_path)
    feats, labels = dataset.subset(dataset.test_classes)
    with np.errstate(over="ignore", invalid="ignore"):
        emb, _ = encode(params, feats)
    if not np.isfinite(emb).all():
        raise CorruptCheckpointError(f"{checkpoint_path}: the parameters overflow the "
                                     f"encoder: non-finite outputs on the test split")
    return evaluate_embeddings(emb, labels, list(ks), SeededRng(seed, STREAMS["eval"]))


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
            writer.writerow([f.name for f in fields(VariantSummary)])
            for s in self.summaries:
                writer.writerow(
                    [f"{v:.6f}" if isinstance(v, float) else v for v in astuple(s)]
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
    gets from the comparison, an empty variant or seed list, a negative
    seed, or a variant name or seed listed twice raises ConfigError with
    nothing trained.
    Failed cells are recorded and skipped in the aggregates; the run
    continues.
    """
    if not variants or not seeds:
        raise ConfigError("a comparison needs at least one variant and one seed")
    for what, items in (("variant", [name for name, _ in variants]), ("seed", list(seeds))):
        repeats = [item for i, item in enumerate(items) if item in items[:i]]
        if repeats:
            raise ConfigError(f"{what} {repeats[0]!r} is listed twice; each cell needs its own")
    negative = [seed for seed in seeds if int(seed) < 0]
    if negative:
        raise ConfigError(f"seed must be >= 0, got {negative[0]}")
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
