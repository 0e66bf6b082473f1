"""Batch construction and embedding-pair/triplet sampling strategies.

Samplers see only a distance matrix and the batch's `BatchLayout`, which marks
no embedding as real or produced, so both kinds are sampled on equal footing.
Its anchor rows may leave out produced ones (`anchor_layout`'s
`anchor_indices`), but positives and negatives always span the whole batch.
A layout with no anchor is a NoValidTripletError.  Each sampler resolves each
seeded pick to the k-th True entry of a mask row, with whole-array
`Generator` calls in the order its docstring gives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import SeededRng, as_labels, distance_matrix, index_rows, label_masks
from .data import Dataset
from .errors import ConfigError, NotEnoughClassesError, NoValidTripletError
from .losses import TripletSet

SAMPLER_KINDS = ("random", "semihard", "softhard", "distance")
_WEIGHT_CAP = 1e8  # distance_weights' ceiling, so weights stay finite as d -> 2


@dataclass
class BatchSpec:
    """P classes per batch, M samples per class."""

    classes_per_batch: int = 8
    samples_per_class: int = 2

    def validate(self):
        if self.classes_per_batch < 2 or self.samples_per_class < 2:
            raise ConfigError(
                "batch needs >= 2 classes and >= 2 samples per class, got "
                f"P={self.classes_per_batch}, M={self.samples_per_class}"
            )


def sample_batch(dataset: Dataset, spec: BatchSpec, rng: SeededRng):
    """Class-contiguous batch of P distinct train classes with M points each.

    Points are drawn without replacement unless a class has fewer than M
    members, in which case draws are with replacement.  Each run of picked
    classes with equal member counts draws in one call, which consumes the
    stream as one `permutation(n)` (or `integers(n, size=M)`) per class would.
    """
    train = dataset.train_classes
    p, m = spec.classes_per_batch, spec.samples_per_class
    if len(train) < p:
        raise NotEnoughClassesError(f"need {p} train classes, have {len(train)}")
    class_pick = [train[i] for i in rng.permutation(len(train))[:p]]
    members = [dataset.class_index[c] for c in class_pick]
    picks = []  # each class's M offsets into its members
    for n, run in itertools.groupby(map(len, members)):
        k = len(list(run))
        if n >= m:
            tile = np.arange(n)[None].repeat(k, axis=0)
            picks.append(rng.permuted(tile, axis=1, out=tile)[:, :m])
        else:
            picks.append(rng.integers(n, size=(k, m)))
    # a row lookup per class: one offset gather over the concatenated members
    # is faster in a hot loop but was slower inside a training step
    rows = np.concatenate([idx[pick] for idx, pick in zip(members, np.concatenate(picks))])
    return dataset.features[rows], np.asarray(class_pick, dtype=np.int64).repeat(m)


@dataclass
class BatchLayout:
    """The label structure a sampler mines from."""

    rows: np.ndarray  # anchors with a positive and a negative, in pool order
    same: np.ndarray  # their rows of the same-label mask (self excluded)
    other: np.ndarray  # and of the other-label mask
    n_pos: np.ndarray  # each such row's True count
    n_neg: np.ndarray
    pos_cols: np.ndarray  # each such row's True columns (`_true_columns`)
    neg_cols: np.ndarray


def anchor_layout(labels, anchor_indices=None) -> BatchLayout:
    """The mining part of the layout of the integer `labels`
    (`core.as_labels`), anchors drawn from `anchor_indices` (every row when
    None), integers in [0, n)."""
    labels = as_labels(labels)
    n = len(labels)
    same, other = label_masks(labels)
    pool = np.arange(n) if anchor_indices is None else index_rows(n, anchor_indices)[0]
    rows = pool[(same.any(axis=1) & other.any(axis=1))[pool]]
    same, other = same[rows], other[rows]
    return BatchLayout(rows, same, other, np.count_nonzero(same, axis=1),
                       np.count_nonzero(other, axis=1), _true_columns(same), _true_columns(other))


def batch_layout(spec: BatchSpec, T: int, produced_as_anchors: bool) -> BatchLayout:
    """The layout of every training batch, which depends on nothing else:
    `spec`'s P distinct classes of M rows each, then T copies of each row."""
    p, m = spec.classes_per_batch, spec.samples_per_class
    blocks = np.repeat(np.arange(p), m)  # the batch labels up to their names
    return anchor_layout(np.concatenate([blocks, np.repeat(blocks, T)]),
                         None if produced_as_anchors else np.arange(p * m))


def _true_columns(mask):
    """Each mask row's True columns in order, then its False ones: entry
    [i, k] is row i's k-th True column while k is below the row's count."""
    return np.argsort(~mask, axis=-1, kind="stable")


def _kth(table, k):
    """Entry k[i] of each row i of `table` (a `_true_columns` table, say)."""
    return table[np.arange(len(k)), k]


def _require_anchors(layout):
    """The layout's anchor count, which a sampler needs to be nonzero."""
    if not layout.rows.size:
        raise NoValidTripletError("no anchor has both a positive and a negative")
    return layout.rows.size


def _anchor_distances(dist, layout):
    """The anchors' rows of `dist`, which must be n x n for the layout's n labels."""
    matrix = distance_matrix(dist, layout.same.shape[1], "labels")
    _require_anchors(layout)
    return matrix[layout.rows]


def sample_random_triplets(layout: BatchLayout, rng: SeededRng) -> TripletSet:
    """Uniform anchors, uniform same-label positives, uniform other-label negatives.

    As many triplets as there are eligible anchors; each triplet's anchor is
    drawn uniformly, with replacement, from those anchors, then its positive
    and its negative.  Draws: `integers(n, size=n)` for the n anchors, then
    one `integers` call over the picked anchors' (positive count, negative
    count) pairs, row-major.
    """
    n = _require_anchors(layout)
    pick = rng.integers(n, size=n)
    k_pos, k_neg = rng.integers(np.stack([layout.n_pos[pick], layout.n_neg[pick]], axis=1)).T
    return TripletSet(layout.rows[pick], layout.pos_cols[pick, k_pos],
                      layout.neg_cols[pick, k_neg])


def sample_semihard_triplets(dist, layout: BatchLayout, margin: float,
                             rng: SeededRng) -> TripletSet:
    """One triplet per eligible anchor with the semi-hard window rule.

    Negative selection: uniform inside the open window
    (D_ap, D_ap + margin); if the window is empty, the hardest negative
    strictly farther than the positive; if none is farther, the least
    violating negative (largest D_an).  Ties resolve to the lower index.
    Draws: one `integers` call over the anchors' positive counts, then one
    over the sizes of the non-empty windows, in anchor order.
    """
    d = _anchor_distances(dist, layout)
    positives = _kth(layout.pos_cols, rng.integers(layout.n_pos))
    d_ap = _kth(d, positives)[:, None]
    farther = layout.other & (d > d_ap)
    window = farther & (d < d_ap + margin)
    negatives = np.where(farther.any(axis=1), np.argmin(np.where(farther, d, np.inf), axis=1),
                         np.argmax(np.where(layout.other, d, -np.inf), axis=1))
    size = np.count_nonzero(window, axis=1)
    drawn = size > 0
    negatives[drawn] = _kth(_true_columns(window[drawn]), rng.integers(size[drawn]))
    return TripletSet(layout.rows, positives, negatives)


def distance_weights(d, embed_dim: int, clip: float):
    """Inverse of the hypersphere pairwise-distance density, clipped and capped.

    q(d) = d^(n-2) (1 - d^2/4)^((n-3)/2) for n = embed_dim; weights are
    1/q evaluated at max(d, clip) and capped so they stay finite as d -> 2.
    At n = 3 the second factor is 1 and is left out, so d = 2 gives a finite
    weight instead of 0 * log 0.
    """
    d = np.maximum(np.asarray(d, dtype=np.float64), clip)
    log_q = (embed_dim - 2) * np.log(d)
    if embed_dim != 3:
        with np.errstate(divide="ignore"):
            log_q = log_q + ((embed_dim - 3) / 2.0) * np.log(
                np.maximum(1.0 - 0.25 * d * d, 0.0)
            )
    return np.exp(np.minimum(-log_q, np.log(_WEIGHT_CAP)))


def sample_distance_weighted(
    dist, layout: BatchLayout, rng: SeededRng, embed_dim: int, clip: float) -> TripletSet:
    """Uniform positives; negatives drawn inversely to the distance density.

    Draws: one `integers` call over the anchors' positive counts, then
    `totals * random(n)`, each anchor's total negative weight times a
    uniform in [0, 1), which is numpy's `uniform(0, total)` bit for bit (the
    weights are capped, so the totals are finite).  The negative is the
    first column of the anchor's weight cdf that exceeds its uniform (its
    last negative if the uniform rounds up to the total).
    """
    d = _anchor_distances(dist, layout)
    # zeroing the non-negatives adds exact +0.0 terms, so each row's cdf at
    # its negative columns is the cumsum over the negatives alone, bit for bit
    weights = np.where(layout.other, distance_weights(d, embed_dim, clip), 0.0)
    cdf = np.add.accumulate(weights, axis=1)  # np.cumsum's own form
    positives = _kth(layout.pos_cols, rng.integers(layout.n_pos))
    u = cdf[:, -1:] * rng.random((len(d), 1))
    # the negative's rank among the anchor's negatives: searchsorted(side="right")
    rank = np.add.reduce((cdf <= u) & layout.other, axis=1)
    rank = np.minimum(rank, layout.n_neg - 1)
    return TripletSet(layout.rows, positives, _kth(layout.neg_cols, rank))


def sample_softhard_triplets(dist, layout: BatchLayout, rng: SeededRng) -> TripletSet:
    """Hard positives (farther than the nearest negative) paired with hard
    negatives (closer than the farthest positive); uniform fallback each side.

    Draws: one `integers` call over the anchors' (positive pool size,
    negative pool size) pairs, row-major.
    """
    d = _anchor_distances(dist, layout)
    same, other = layout.same, layout.other
    hard_pos = same & (d > np.min(d, axis=1, where=other, initial=np.inf)[:, None])
    hard_neg = other & (d < np.max(d, axis=1, where=same, initial=-np.inf)[:, None])
    p_pool = np.where(hard_pos.any(axis=1)[:, None], hard_pos, same)
    n_pool = np.where(hard_neg.any(axis=1)[:, None], hard_neg, other)
    pick = rng.integers(np.stack(
        [np.count_nonzero(p_pool, axis=1), np.count_nonzero(n_pool, axis=1)], axis=1))
    return TripletSet(layout.rows, _kth(_true_columns(p_pool), pick[:, 0]),
                      _kth(_true_columns(n_pool), pick[:, 1]))


def sample_triplets(kind: str, dist, layout: BatchLayout, rng: SeededRng, *,
                    embed_dim: int, semihard_margin: float, clip: float) -> TripletSet:
    """Strategy dispatch used by the training loop."""
    if kind == "random":
        return sample_random_triplets(layout, rng)
    if kind == "semihard":
        return sample_semihard_triplets(dist, layout, semihard_margin, rng)
    if kind == "softhard":
        return sample_softhard_triplets(dist, layout, rng)
    if kind == "distance":
        return sample_distance_weighted(dist, layout, rng, embed_dim, clip)
    raise ConfigError(f"sampler.kind must be one of {SAMPLER_KINDS}, got {kind!r}")
