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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SeededRng, ZERO_NORM_EPS
from .errors import (
    ConfigError,
    KOutOfRangeError,
    LabelOutOfRangeError,
    ShapeMismatchError,
    ZeroNormError,
)


@dataclass
class DasConfig:
    """Production knobs: T copies per anchor, top-K channels, bank capacity Z,
    scaling radius rs, shift magnitude rb."""

    enabled: bool = True
    T: int = 3
    K: int = 4
    Z: int = 10
    rs: float = 0.01
    rb: float = 0.01
    dfs_only: bool = False  # scaling without shifting
    mts_only: bool = False  # shifting without scaling

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
        if self.dfs_only and self.mts_only:
            raise ConfigError("das.dfs_only and das.mts_only are mutually exclusive")

    @property
    def use_scaling(self) -> bool:
        return not self.mts_only

    @property
    def use_shifting(self) -> bool:
        return not self.dfs_only


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

    def update(self, embeddings, labels, k: int) -> None:
        """Bump the top-K channel counters of each embedding's class row."""
        emb = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
        labels = np.atleast_1d(np.asarray(labels))
        if emb.shape[0] != labels.shape[0]:
            raise ShapeMismatchError("labels length != embedding count")
        if emb.shape[1] != self.dim:
            raise ShapeMismatchError(f"embedding dim {emb.shape[1]} != recorder dim {self.dim}")
        if k < 1 or k > self.dim:
            raise KOutOfRangeError(f"K={k} outside [1, {self.dim}]")
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
            raise LabelOutOfRangeError(f"labels outside [0, {self.n_classes})")
        # row-wise equivalent of top_k_indices: stable sort keeps the
        # lower index first among ties
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


def scaling_factor(mask_row, rs: float, rng: SeededRng) -> np.ndarray:
    """Random scale on masked channels, exactly 1 elsewhere."""
    mask_row = np.asarray(mask_row, dtype=np.float64)
    gamma = rng.uniform(1.0 - rs, 1.0 + rs, size=mask_row.shape[0])
    return gamma * mask_row + (1.0 - mask_row)


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

    def _check_label(self, label):
        label = int(label)
        if not 0 <= label < self.n_classes:
            raise LabelOutOfRangeError(f"label {label} outside [0, {self.n_classes})")
        return label

    def enqueue(self, label, transform) -> None:
        c = self._check_label(label)
        self.slots[c, self.cursor[c]] = transform
        self.cursor[c] = (self.cursor[c] + 1) % self.capacity
        self.filled[c] = min(self.filled[c] + 1, self.capacity)

    def update(self, embeddings, labels) -> None:
        """Enqueue v_i - v_j for every ordered pair i != j within each class
        group; groups with fewer than two members are skipped."""
        emb = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
        labels = np.atleast_1d(np.asarray(labels))
        for c in np.unique(labels):
            idx = np.flatnonzero(labels == c)
            if idx.size < 2:
                continue
            for i in idx:
                for j in idx:
                    if i != j:
                        self.enqueue(c, emb[i] - emb[j])

    def draw(self, label, rng: SeededRng) -> np.ndarray | None:
        """A uniformly chosen filled slot of the class, or None when empty."""
        c = self._check_label(label)
        if self.filled[c] == 0:
            return None
        return self.slots[c, int(rng.integers(self.filled[c]))]


def shifting_factor(bank: TransformationBank, label, rb: float, rng: SeededRng) -> np.ndarray:
    """rb times a stored intra-class difference; zero while the class bank is empty."""
    t = bank.draw(label, rng)
    if t is None:
        return np.zeros(bank.slots.shape[2])
    return rb * t


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


def apply_factors(v, s, b) -> np.ndarray:
    """normalize(s * v + b); raises ZeroNormError if the result degenerates."""
    u = s * np.asarray(v, dtype=np.float64) + b
    norm = float(np.linalg.norm(u))
    if norm <= ZERO_NORM_EPS:
        raise ZeroNormError(f"produced embedding collapsed (norm {norm:.3e})")
    return u / norm


def das_produce(v, label, mask_row, bank: TransformationBank, config: DasConfig,
                rng: SeededRng) -> list:
    """T (embedding, label) pairs produced around one anchor.

    Scaling and shifting factors are redrawn independently for every copy;
    copies whose pre-normalization output collapses are dropped.
    """
    out = []
    for _ in range(config.T):
        s = (scaling_factor(mask_row, config.rs, rng)
             if config.use_scaling else np.ones_like(np.asarray(v, dtype=np.float64)))
        b = (shifting_factor(bank, label, config.rb, rng)
             if config.use_shifting else np.zeros(len(v)))
        try:
            out.append((apply_factors(v, s, b), label))
        except ZeroNormError:
            continue
    return out


def draw_scales(mask, labels, t: int, rs: float, rng: SeededRng) -> np.ndarray:
    """(n*t, d) scaling factors, anchor-major, one independent draw per copy."""
    labels = np.atleast_1d(np.asarray(labels))
    rows = np.asarray(mask, dtype=np.float64)[labels]
    n, d = rows.shape
    gamma = rng.uniform(1.0 - rs, 1.0 + rs, size=(n * t, d))
    mask_rep = np.repeat(rows, t, axis=0)
    return gamma * mask_rep + (1.0 - mask_rep)


def draw_shifts(bank: TransformationBank, labels, t: int, rb: float,
                rng: SeededRng) -> np.ndarray:
    """(n*t, d) shifting factors, anchor-major; zero rows for empty class banks.

    Every row whose class bank holds a difference draws its slot in row
    order, as one `shifting_factor` call per row would.  numpy's integers
    consumes the stream for an array of bounds exactly as for the same
    bounds drawn one call at a time, so a single call over the live rows
    keeps the seeded draw sequence.
    """
    rows = np.repeat(np.atleast_1d(np.asarray(labels, dtype=np.int64)), t)
    bad = (rows < 0) | (rows >= bank.n_classes)
    if bad.any():
        bank._check_label(rows[np.argmax(bad)])
    shifts = np.zeros((rows.size, bank.slots.shape[2]))
    live = bank.filled[rows] > 0
    if live.any():
        c = rows[live]
        shifts[live] = rb * bank.slots[c, rng.integers(bank.filled[c])]
    return shifts


def combine_factors(embeddings, labels, scales, shifts) -> ProducedBatch:
    """normalize(s*v + b) for anchor-major factor rows; collapsed rows are dropped."""
    emb = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    labels = np.atleast_1d(np.asarray(labels))
    n, d = emb.shape
    m = scales.shape[0]
    if m == 0:
        empty = np.zeros((0, d))
        return ProducedBatch(empty, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                             empty.copy(), np.zeros(0))
    if m % n != 0 or shifts.shape != scales.shape:
        raise ShapeMismatchError("factor rows must be an anchor-major multiple of the batch")
    t = m // n
    anchors = np.repeat(np.arange(n), t)
    raw = scales * emb[anchors] + shifts
    norms = np.linalg.norm(raw, axis=1)
    keep = norms > ZERO_NORM_EPS
    dropped = int(np.count_nonzero(~keep))
    inv = np.zeros_like(norms)
    inv[keep] = 1.0 / norms[keep]
    produced = raw[keep] * inv[keep][:, None]
    return ProducedBatch(
        embeddings=produced,
        labels=np.repeat(labels, t)[keep],
        anchor_rows=anchors[keep],
        scales=scales[keep],
        inv_norms=inv[keep],
        dropped=dropped,
    )


def produce_batch(
    embeddings, labels, mask, bank: TransformationBank, config: DasConfig,
    rng: SeededRng,
) -> ProducedBatch:
    """Phased batch production matching the training-loop order: draw all
    scaling factors, then all shifting factors, then combine.

    Output rows are anchor-major: anchor 0's T copies, then anchor 1's, etc.
    """
    emb = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    labels = np.atleast_1d(np.asarray(labels))
    n, d = emb.shape
    t = config.T
    if t == 0 or n == 0:
        empty = np.zeros((0, d))
        return ProducedBatch(empty, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                             empty.copy(), np.zeros(0))
    scales = (draw_scales(mask, labels, t, config.rs, rng)
              if config.use_scaling else np.ones((n * t, d)))
    shifts = (draw_shifts(bank, labels, t, config.rb, rng)
              if config.use_shifting else np.zeros((n * t, d)))
    return combine_factors(emb, labels, scales, shifts)


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
