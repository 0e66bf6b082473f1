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

Each public function that reads per-class state checks its labels against
the class count on every call, with `core.as_labels`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SeededRng, ZERO_NORM_EPS, as_labels, as_ndim, is_int, label_masks, scatter_rows
from .errors import ConfigError, KOutOfRangeError, ShapeMismatchError


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


def _check_k(k, dim):
    """KOutOfRangeError unless K is an integer (`core.is_int`) in [1, dim]."""
    if not (type(k) is int or is_int(k)) or not 1 <= k <= dim:  # an int costs no call
        raise KOutOfRangeError(f"K={k!r} outside [1, {dim}]: it must be an integer in range")


class FrequencyRecorder:
    """C x d counters of how often each channel is among a class embedding's
    top-K activations.  Counters only grow; no decay."""

    def __init__(self, n_classes: int, dim: int):
        self.counts = np.zeros((n_classes, dim), dtype=np.int64)

    def update(self, embeddings, labels, k: int) -> None:
        """Bump the top-K channel counters of each embedding's class row."""
        emb = as_ndim(embeddings, 2, np.float64)
        n_classes, dim = self.counts.shape
        labels = as_labels(labels, emb.shape[0], n_classes)
        if emb.shape[1] != dim:
            raise ShapeMismatchError(f"embedding dim {emb.shape[1]} != recorder dim {dim}")
        _check_k(k, dim)
        # each row's K largest entries; the stable sort keeps the lower
        # index first among ties
        top = (-emb).argsort(axis=1, kind="stable")[:, :k]
        np.add.at(self.counts, (labels[:, None], top), 1)

    def mask(self, k: int) -> np.ndarray:
        """C x d binary mask marking each class's K most frequent channels."""
        n_classes, dim = self.counts.shape
        _check_k(k, dim)
        top = (-self.counts).argsort(axis=1, kind="stable")[:, :k]
        out = np.zeros((n_classes, dim))
        out[np.arange(n_classes)[:, None], top] = 1.0
        return out


class TransformationBank:
    """Per-class ring buffer of the last Z intra-class embedding differences."""

    def __init__(self, n_classes: int, capacity: int, dim: int):
        self.slots = np.zeros((n_classes, capacity, dim))
        self.cursor = np.zeros(n_classes, dtype=np.int64)
        self.filled = np.zeros(n_classes, dtype=np.int64)

    @property
    def capacity(self):
        return self.slots.shape[1]

    def enqueue(self, labels, transforms) -> None:
        """Write one difference (a label and a row) or a stack of them into
        the class rings, in order: a class given q rows keeps the last
        min(q, Z) of them, and its cursor moves q places."""
        n_classes, z, dim = self.slots.shape
        c = as_labels(labels, n_classes=n_classes)
        rows = as_ndim(transforms, 2, np.float64)
        if rows.shape != (c.size, dim):
            raise ShapeMismatchError(
                f"transforms {rows.shape} must be {c.size} rows of width {dim}, one per label"
            )
        q = np.bincount(c, minlength=n_classes)
        rank = np.empty(c.shape, dtype=np.int64)  # each row's rank among its class's rows
        rank[c.argsort(kind="stable")] = np.arange(c.size) - (np.add.accumulate(q) - q).repeat(q)
        if np.maximum.reduce(q, initial=0) > z:
            # write only each class's last Z rows: earlier ones would share a
            # slot with a later row, and numpy leaves repeated-index writes unordered
            last = rank >= q[c] - z
            c, rank, rows = c[last], rank[last], rows[last]
        self.slots[c, (self.cursor[c] + rank) % z] = rows
        self.cursor[:] = (self.cursor + q) % z
        np.minimum(self.filled + q, z, out=self.filled)

    def update(self, embeddings, labels) -> None:
        """Enqueue v_i - v_j for every ordered pair i != j within each class
        group, in (i, j) order; groups with fewer than two members add
        nothing, but their labels are checked too."""
        emb = as_ndim(embeddings, 2, np.float64)
        labels = as_labels(labels, emb.shape[0], self.slots.shape[0])
        i, j = label_masks(labels)[0].nonzero()
        self.enqueue(labels[i], emb[i] - emb[j])


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


def draw_scales(mask, labels, rs: float, rng: SeededRng) -> np.ndarray:
    """(len(labels), d) scaling factors, one independent draw per row; every
    label must index a row of the C x d `mask`."""
    mask = as_ndim(mask, 2, np.float64)
    rows = mask[as_labels(labels, n_classes=mask.shape[0])]
    gamma = rng.uniform(1.0 - rs, 1.0 + rs, size=rows.shape)
    return gamma * rows + (1.0 - rows)


def draw_shifts(bank: TransformationBank, labels, rb: float, rng: SeededRng) -> np.ndarray:
    """(len(labels), d) shifting factors; zero rows for empty class banks.

    Every row whose class bank holds a difference draws its slot in row
    order, as one scalar draw per row would.  numpy's integers
    consumes the stream for an array of bounds exactly as for the same
    bounds drawn one call at a time, so a single call over the live rows
    keeps the seeded draw sequence.
    """
    rows = as_labels(labels, n_classes=bank.slots.shape[0])
    filled = bank.filled[rows]
    live = filled > 0
    if live.all():  # no empty bank: no row to leave at zero
        return rb * bank.slots[rows, rng.integers(filled)]
    shifts = np.zeros((rows.size, bank.slots.shape[2]))
    if live.any():
        c = rows[live]
        shifts[live] = rb * bank.slots[c, rng.integers(filled[live])]
    return shifts


def combine_factors(embeddings, labels, anchors, scales, shifts) -> ProducedBatch:
    """normalize(s*v + b), one row per entry of `anchors`, integer batch
    rows in [0, n) of the n embeddings and their n labels; collapsed rows
    are dropped.  With none dropped, the batch holds `anchors` and `scales`
    themselves, not copies."""
    emb = as_ndim(embeddings, 2, np.float64)
    n = emb.shape[0]
    labels, anchors = as_labels(labels, n), as_ndim(anchors, 1)
    if anchors.size and (anchors.dtype.kind not in "iu" or np.minimum.reduce(anchors) < 0
                         or np.maximum.reduce(anchors) >= n):
        raise ShapeMismatchError(f"anchors must be integer batch rows in [0, {n})")
    anchors = anchors.astype(np.int64, copy=False)
    scales, shifts = as_ndim(scales, 2, np.float64), as_ndim(shifts, 2, np.float64)
    rows = (len(anchors), emb.shape[1])
    if scales.shape != rows or shifts.shape != rows:
        raise ShapeMismatchError(
            f"factors {scales.shape} and {shifts.shape} must both be {rows}, one row per anchor"
        )
    raw = scales * emb[anchors] + shifts
    norms = np.sqrt(np.add.reduce(raw * raw, axis=1))  # np.linalg.norm's own form
    keep = norms > ZERO_NORM_EPS
    if not keep.all():
        raw, norms, anchors, scales = raw[keep], norms[keep], anchors[keep], scales[keep]
    inv = 1.0 / norms
    return ProducedBatch(embeddings=raw * inv[:, None], labels=labels[anchors],
                         anchor_rows=anchors, scales=scales, inv_norms=inv,
                         dropped=len(keep) - len(anchors))


def produce(
    embeddings, labels, recorder: FrequencyRecorder, bank: TransformationBank,
    config: DasConfig, rng: SeededRng, emit=lambda phase: None,
) -> ProducedBatch:
    """One step of production: T copies per anchor, anchor-major.

    Feature scaling first bumps the recorder with this batch and draws
    scales from its top-K mask; transformation shifting then banks the
    batch's intra-class differences and draws shifts from the bank.  A
    mechanism whose radius is zero leaves its state and the stream alone and
    contributes ones (scaling) or zeros (shifting); with both radii zero the
    labels are still checked against the recorder's classes.  T = 0 lays
    out no rows and produces nothing.  `emit` receives each phase name as it
    completes.
    """
    emb = as_ndim(embeddings, 2, np.float64)
    # with both radii zero no mechanism runs to check the labels' classes
    labels = as_labels(labels, emb.shape[0],
                       None if config.rs > 0 or config.rb > 0 else recorder.counts.shape[0])
    anchors = np.arange(emb.shape[0]).repeat(config.T)
    copies, rows = labels[anchors], (anchors.size, emb.shape[1])
    if config.rs > 0:
        recorder.update(emb, labels, config.K)
        emit("frm")
        scales = draw_scales(recorder.mask(config.K), copies, config.rs, rng)
        emit("scale")
    else:
        scales = np.ones(rows)
    if config.rb > 0:
        emit("transform")
        bank.update(emb, labels)
        emit("enqueue")
        shifts = draw_shifts(bank, copies, config.rb, rng)
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
    g = as_ndim(grad_produced, 2, np.float64)
    if g.size == 0:
        return np.zeros((n_anchors, dim))
    vp, rows = batch.embeddings, batch.anchor_rows
    if g.shape != vp.shape or vp.shape[1] != dim:
        raise ShapeMismatchError(f"gradient {g.shape} must match the {vp.shape} produced "
                                 f"rows, of width {dim}")
    if np.minimum.reduce(rows) < 0 or np.maximum.reduce(rows) >= n_anchors:
        raise ShapeMismatchError(f"an anchor row is outside [0, {n_anchors})")
    inv = batch.inv_norms[:, None]
    through_norm = (g - np.add.reduce(g * vp, axis=1, keepdims=True) * vp) * inv
    return scatter_rows(rows, batch.scales * through_norm, n_anchors)
