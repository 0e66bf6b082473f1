"""Anchor-densified embedding production.

Two mechanisms create synthetic embeddings near real ones ("anchors"):

* feature scaling: per class, a frequency matrix counts how often each
  channel lands in an embedding's top-K activations; the K most frequent
  channels get an independent random scale in [1-rs, 1+rs] while the rest
  stay at 1.
* transformation shifting: differences between same-class embeddings are
  kept in a per-class FIFO bank; a produced embedding adds rb times a
  uniformly drawn stored difference.

A produced embedding is normalize(s * v + b) and inherits the anchor label.
Gradients flow to the anchor only; s and b are treated as constants.

Each public function checks its labels; handed the training run's
`sampling.BatchLayout` as `layout`, it takes them as checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SeededRng, ZERO_NORM_EPS, label_masks
from .errors import (
    ConfigError,
    KOutOfRangeError,
    LabelOutOfRangeError,
    ShapeMismatchError,
)


@dataclass
class DasConfig:
    """Production knobs: T copies per anchor, top-K channels, bank capacity Z,
    scaling radius rs, shift magnitude rb.  A zero radius turns its mechanism
    off: rb = 0 is scaling only (DFS), rs = 0 is shifting only (MTS)."""

    enabled: bool = True
    T: int = 3
    K: int = 4
    Z: int = 10
    rs: float = 0.01
    rb: float = 0.01

    def validate(self, embed_dim: int | None = None):
        if self.T < 0:
            raise ConfigError(f"das.T must be >= 0, got {self.T}")
        if self.K < 1:
            raise ConfigError(f"das.K must be >= 1, got {self.K}")
        if embed_dim is not None and self.K > embed_dim:
            raise ConfigError(f"das.K={self.K} exceeds embedding dim {embed_dim}")
        if self.Z < 1:
            raise ConfigError(f"das.Z must be >= 1, got {self.Z}")
        if not 0.0 <= self.rs < 1.0:
            raise ConfigError(f"das.rs must be in [0, 1), got {self.rs}")
        if self.rb < 0:
            raise ConfigError(f"das.rb must be >= 0, got {self.rb}")


def check_labels(labels, n_classes: int) -> None:
    """Raise LabelOutOfRangeError naming the first label that is not an
    integer in [0, n_classes); a float or bool label fails before anything
    casts it.  A plain loop, as numpy's per-call overhead would dominate a
    few labels."""
    for label in np.asarray(labels).ravel().tolist():
        if type(label) is not int:
            raise LabelOutOfRangeError(f"label {label!r} is not an integer class id")
        if not 0 <= label < n_classes:
            raise LabelOutOfRangeError(f"label {label} outside [0, {n_classes})")


class FrequencyRecorder:
    """C x d counters of how often each channel is among a class embedding's
    top-K activations.  Counters only grow; no decay."""

    def __init__(self, n_classes: int, dim: int):
        self.counts = np.zeros((n_classes, dim), dtype=np.int64)

    @property
    def n_classes(self):
        return self.counts.shape[0]

    @property
    def dim(self):
        return self.counts.shape[1]

    def update(self, embeddings, labels, k: int, layout=None) -> None:
        """Bump the top-K channel counters of each embedding's class row."""
        emb = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
        labels = np.atleast_1d(np.asarray(labels))
        if layout is None:
            check_labels(labels, self.n_classes)
        if emb.shape[0] != labels.shape[0]:
            raise ShapeMismatchError("labels length != embedding count")
        if emb.shape[1] != self.dim:
            raise ShapeMismatchError(f"embedding dim {emb.shape[1]} != recorder dim {self.dim}")
        if k < 1 or k > self.dim:
            raise KOutOfRangeError(f"K={k} outside [1, {self.dim}]")
        # each row's K largest entries; the stable sort keeps the lower
        # index first among ties
        top = np.argsort(-emb, axis=1, kind="stable")[:, :k]
        np.add.at(self.counts, (labels[:, None], top), 1)

    def mask(self, k: int) -> np.ndarray:
        """C x d binary mask marking each class's K most frequent channels."""
        if k < 1 or k > self.dim:
            raise KOutOfRangeError(f"K={k} outside [1, {self.dim}]")
        top = np.argsort(-self.counts, axis=1, kind="stable")[:, :k]
        out = np.zeros_like(self.counts, dtype=np.float64)
        out[np.arange(self.n_classes)[:, None], top] = 1.0
        return out


class TransformationBank:
    """Per-class ring buffer of the last Z intra-class embedding differences."""

    def __init__(self, n_classes: int, capacity: int, dim: int):
        self.slots = np.zeros((n_classes, capacity, dim))
        self.cursor = np.zeros(n_classes, dtype=np.int64)
        self.filled = np.zeros(n_classes, dtype=np.int64)

    @property
    def n_classes(self):
        return self.slots.shape[0]

    @property
    def capacity(self):
        return self.slots.shape[1]

    def enqueue(self, labels, transforms, layout=None) -> None:
        """Write one difference (a label and a row) or a stack of them into
        the class rings, in order: a class given q rows keeps the last
        min(q, Z) of them, and its cursor moves q places.  With `layout`
        they are the differences of its pairs, ranked by its pair ranks."""
        if layout is None:
            check_labels(labels, self.n_classes)
        c = np.atleast_1d(np.asarray(labels, dtype=np.int64))
        rows = np.atleast_2d(np.asarray(transforms, dtype=np.float64))
        if rows.shape != (c.size, self.slots.shape[2]):
            raise ShapeMismatchError(
                f"transforms {rows.shape} must be {c.size} rows of width {self.slots.shape[2]}, "
                "one per label"
            )
        z, q = self.capacity, np.bincount(c, minlength=self.n_classes)
        if layout is not None:
            rank = layout.pair_ranks
        else:  # each row's rank among the rows of its class
            order = np.argsort(c, kind="stable")
            rank = np.empty_like(c)
            rank[order] = np.arange(c.size) - np.repeat(np.cumsum(q) - q, q)
        # write only each class's last min(q, Z) rows: earlier ones would share
        # a slot with a later row, and numpy leaves repeated-index writes unordered
        last = rank >= q[c] - z
        c, rank = c[last], rank[last]
        self.slots[c, (self.cursor[c] + rank) % z] = rows[last]
        self.cursor[:] = (self.cursor + q) % z
        np.minimum(self.filled + q, z, out=self.filled)

    def update(self, embeddings, labels, layout=None) -> None:
        """Enqueue v_i - v_j for every ordered pair i != j within each class
        group, in (i, j) order; groups with fewer than two members add
        nothing, but their labels are checked too."""
        emb = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
        labels = np.atleast_1d(np.asarray(labels))
        if layout is None:
            check_labels(labels, self.n_classes)
        if emb.shape[0] != labels.shape[0]:
            raise ShapeMismatchError("labels length != embedding count")
        i, j = np.nonzero(label_masks(labels)[0]) if layout is None else layout.pairs
        self.enqueue(labels[i], emb[i] - emb[j], layout)


@dataclass
class ProducedBatch:
    """Produced embeddings plus what the backward pass needs.

    anchor_rows[i] is the batch row the i-th produced embedding came from;
    scales and inv_norms reconstruct the Jacobian of normalize(s*v + b).
    """

    embeddings: np.ndarray  # (m, d)
    labels: np.ndarray  # (m,)
    anchor_rows: np.ndarray  # (m,)
    scales: np.ndarray  # (m, d)
    inv_norms: np.ndarray  # (m,)
    dropped: int = 0


def draw_scales(mask, labels, rs: float, rng: SeededRng, layout=None) -> np.ndarray:
    """(len(labels), d) scaling factors, one independent draw per row; every
    label must index a row of the C x d `mask`."""
    mask = np.asarray(mask, dtype=np.float64)
    if layout is None:
        check_labels(labels, mask.shape[0])
    rows = mask[np.atleast_1d(np.asarray(labels))]
    gamma = rng.uniform(1.0 - rs, 1.0 + rs, size=rows.shape)
    return gamma * rows + (1.0 - rows)


def draw_shifts(bank: TransformationBank, labels, rb: float, rng: SeededRng,
                layout=None) -> np.ndarray:
    """(len(labels), d) shifting factors; zero rows for empty class banks.

    Every row whose class bank holds a difference draws its slot in row
    order, as one scalar draw per row would.  numpy's integers
    consumes the stream for an array of bounds exactly as for the same
    bounds drawn one call at a time, so a single call over the live rows
    keeps the seeded draw sequence.
    """
    if layout is None:
        check_labels(labels, bank.n_classes)
    rows = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    shifts = np.zeros((rows.size, bank.slots.shape[2]))
    live = bank.filled[rows] > 0
    if live.any():
        c = rows[live]
        shifts[live] = rb * bank.slots[c, rng.integers(bank.filled[c])]
    return shifts


def combine_factors(embeddings, labels, anchors, scales, shifts) -> ProducedBatch:
    """normalize(s*v + b), one row per entry of `anchors` (batch rows);
    collapsed rows are dropped."""
    emb = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    labels = np.atleast_1d(np.asarray(labels))
    anchors = np.asarray(anchors, dtype=np.int64)
    rows = (len(anchors), emb.shape[1])
    if scales.shape != rows or shifts.shape != rows:
        raise ShapeMismatchError(
            f"factors {scales.shape} and {shifts.shape} must both be {rows}, one row per anchor"
        )
    raw = scales * emb[anchors] + shifts
    norms = np.linalg.norm(raw, axis=1)
    keep = norms > ZERO_NORM_EPS
    dropped = int(np.count_nonzero(~keep))
    inv = np.zeros_like(norms)
    inv[keep] = 1.0 / norms[keep]
    produced = raw[keep] * inv[keep][:, None]
    return ProducedBatch(
        embeddings=produced,
        labels=labels[anchors][keep],
        anchor_rows=anchors[keep],
        scales=scales[keep],
        inv_norms=inv[keep],
        dropped=dropped,
    )


def produce(
    embeddings, labels, recorder: FrequencyRecorder, bank: TransformationBank,
    config: DasConfig, rng: SeededRng, emit=lambda phase: None, layout=None,
) -> ProducedBatch:
    """One step of production: T copies per anchor, anchor-major.

    Feature scaling first bumps the recorder with this batch and draws
    scales from its top-K mask; transformation shifting then banks the
    batch's intra-class differences and draws shifts from the bank.  A
    mechanism whose radius is zero leaves its state and the stream alone and
    contributes ones (scaling) or zeros (shifting).  T = 0 lays out no rows
    and produces nothing.  `emit` receives each phase name as it completes;
    a `layout` must have been built with config.T.
    """
    emb = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    labels = np.atleast_1d(np.asarray(labels))
    anchors = np.repeat(np.arange(emb.shape[0]), config.T) if layout is None else layout.anchors
    copies, rows = labels[anchors], (anchors.size, emb.shape[1])
    if config.rs > 0:
        recorder.update(emb, labels, config.K, layout)
        emit("frm")
        scales = draw_scales(recorder.mask(config.K), copies, config.rs, rng, layout)
        emit("scale")
    else:
        scales = np.ones(rows)
    if config.rb > 0:
        emit("transform")
        bank.update(emb, labels, layout)
        emit("enqueue")
        shifts = draw_shifts(bank, copies, config.rb, rng, layout)
        emit("shift")
    else:
        shifts = np.zeros(rows)
    produced = combine_factors(emb, labels, anchors, scales, shifts)
    emit("produce")
    return produced


def produced_backward(batch: ProducedBatch, grad_produced, n_anchors: int, dim: int) -> np.ndarray:
    """Accumulate produced-embedding gradients onto their anchors.

    For v' = u/||u||, u = s*v + b (s, b constant):
        dL/dv = s * ((g - (g.v') v') / ||u||)
    """
    g = np.asarray(grad_produced, dtype=np.float64)
    out = np.zeros((n_anchors, dim))
    if g.size == 0:
        return out
    vp = batch.embeddings
    through_norm = (g - np.sum(g * vp, axis=1, keepdims=True) * vp) * batch.inv_norms[:, None]
    np.add.at(out, batch.anchor_rows, batch.scales * through_norm)
    return out
