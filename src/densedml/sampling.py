"""Batch construction and embedding-pair/triplet sampling strategies.

Samplers see only a distance matrix and labels; nothing marks an embedding as
real or produced, so both kinds are sampled on equal footing.  The optional
`anchor_indices` restricts which rows may serve as anchors (used to keep
produced embeddings out of the anchor role when configured), but candidates
for positives/negatives always span the whole batch.  Every sampler starts
from one anchor set-up, the eligible anchors' rows of the distance matrix
and of the same-label/other-label masks of `core.label_masks`, and resolves
each seeded pick to the k-th True entry of a mask row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SeededRng, label_masks, replay_draws
from .data import Dataset
from .errors import ConfigError, NotEnoughClassesError, NoValidTripletError, ShapeMismatchError
from .losses import TripletSet

SAMPLER_KINDS = ("random", "semihard", "softhard", "distance")


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

    @property
    def size(self) -> int:
        return self.classes_per_batch * self.samples_per_class


def sample_batch(dataset: Dataset, spec: BatchSpec, rng: SeededRng):
    """Class-contiguous batch of P distinct train classes with M points each.

    Points are drawn without replacement unless a class has fewer than M
    members, in which case draws are with replacement.
    """
    train = list(dataset.train_classes)
    p, m = spec.classes_per_batch, spec.samples_per_class
    if len(train) < p:
        raise NotEnoughClassesError(f"need {p} train classes, have {len(train)}")
    class_pick = [train[i] for i in rng.permutation(len(train))[:p]]
    feats, labels = [], []
    for c in class_pick:
        members = dataset.class_index[c]
        if len(members) >= m:
            chosen = members[rng.permutation(len(members))[:m]]
        else:
            chosen = members[rng.integers(len(members), size=m)]
        feats.append(dataset.features[chosen])
        labels.extend([c] * m)
    return np.concatenate(feats, axis=0), np.asarray(labels, dtype=np.int64)


def _anchor_rows(dist, labels, anchor_indices):
    """Anchors with a positive and a negative (in pool order, duplicates
    kept) and their rows of `dist` (None when `dist` is None) and of the
    same-label/other-label masks."""
    n = len(labels)
    if dist is not None:
        dist = np.asarray(dist)
        if dist.shape != (n, n):
            raise ShapeMismatchError(f"distance matrix {dist.shape} vs {n} labels")
    same, other = label_masks(labels)
    pool = np.arange(n) if anchor_indices is None else np.asarray(anchor_indices, dtype=np.int64)
    rows = pool[(same.any(axis=1) & other.any(axis=1))[pool]]
    return rows, None if dist is None else dist[rows], same[rows], other[rows]


def sample_random_triplets(labels, count, rng: SeededRng, anchor_indices=None) -> TripletSet:
    """Uniform anchors, uniform same-label positives, uniform other-label negatives.

    `count=None` draws as many triplets as there are eligible anchors; each
    triplet's anchor is drawn uniformly, with replacement, from those anchors,
    then its positive and its negative, three scalar draws per triplet.
    """
    rows, _, same, other = _anchor_rows(None, labels, anchor_indices)
    if rows.size == 0:
        raise NoValidTripletError("no anchor has both a positive and a negative")
    if count is None:
        count = rows.size
    tables = np.count_nonzero(same, axis=1), np.count_nonzero(other, axis=1)
    pick, k_pos, k_neg = replay_draws(rng, np.full(count, rows.size), tables)[0].T
    return TripletSet(rows[pick], _kth_true(same[pick], k_pos), _kth_true(other[pick], k_neg))


def sample_semihard_triplets(
    dist, labels, margin: float, rng: SeededRng, anchor_indices=None
) -> TripletSet:
    """One triplet per eligible anchor with the semi-hard window rule.

    Negative selection: uniform inside the open window
    (D_ap, D_ap + margin); if the window is empty, the hardest negative
    strictly farther than the positive; if none is farther, the least
    violating negative (largest D_an).  Ties resolve to the lower index.
    """
    rows, d, same, other = _anchor_rows(dist, labels, anchor_indices)
    positives, negatives = np.empty_like(rows), np.empty_like(rows)
    for i, row in enumerate(d):
        p = positives[i] = _kth_true(same[i], rng.integers(np.count_nonzero(same[i])))
        farther = other[i] & (row > row[p])
        window = farther & (row < row[p] + margin)
        if window.any():
            negatives[i] = _kth_true(window, rng.integers(np.count_nonzero(window)))
        elif farther.any():
            negatives[i] = np.argmin(np.where(farther, row, np.inf))
        else:
            negatives[i] = np.argmax(np.where(other[i], row, -np.inf))
    return TripletSet(rows, positives, negatives)


def distance_weights(d, embed_dim: int, clip: float = 0.5, cap: float = 1e8):
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
    return np.exp(np.minimum(-log_q, np.log(cap)))


def sample_distance_weighted(
    dist, labels, rng: SeededRng, embed_dim: int, clip: float = 0.5, anchor_indices=None
) -> TripletSet:
    """Uniform positives; negatives drawn inversely to the distance density.

    Each eligible anchor draws, in anchor order, an integer that picks its
    positive and then a uniform in [0, total negative weight), the two
    interleaved on one stream as scalar calls would take them
    (`core.replay_draws`).  The negative is the first column of the
    anchor's weight cdf that exceeds the uniform (its last negative if the
    uniform rounds up to the total).
    """
    rows, d, same, other = _anchor_rows(dist, labels, anchor_indices)
    # zeroing the non-negatives adds exact +0.0 terms, so each row's cdf at
    # its negative columns is the cumsum over the negatives alone, bit for bit
    weights = np.where(other, distance_weights(d, embed_dim, clip), 0.0)
    cdf = np.cumsum(weights, axis=1)
    # each row's total weight, sliced so that an empty batch gives no rows
    pick, u = replay_draws(rng, np.count_nonzero(same, axis=1), highs=cdf[:, -1:].ravel())
    # the negative's rank among the anchor's negatives: searchsorted(side="right")
    rank = np.count_nonzero((cdf <= u[:, None]) & other, axis=1)
    rank = np.minimum(rank, np.count_nonzero(other, axis=1) - 1)
    return TripletSet(rows, _kth_true(same, pick[:, 0]), _kth_true(other, rank))


def _kth_true(mask, k):
    """Column of the k[i]-th (0-based) True entry of each mask row (or of
    the k-th of a single row)."""
    return np.count_nonzero(np.cumsum(mask, axis=-1) <= np.asarray(k)[..., None], axis=-1)


def sample_softhard_triplets(
    dist, labels, rng: SeededRng, anchor_indices=None
) -> TripletSet:
    """Hard positives (farther than the nearest negative) paired with hard
    negatives (closer than the farthest positive); uniform fallback each side."""
    rows, d, same, other = _anchor_rows(dist, labels, anchor_indices)
    hard_pos = same & (d > np.min(d, axis=1, where=other, initial=np.inf)[:, None])
    hard_neg = other & (d < np.max(d, axis=1, where=same, initial=-np.inf)[:, None])
    p_pool = np.where(hard_pos.any(axis=1)[:, None], hard_pos, same)
    n_pool = np.where(hard_neg.any(axis=1)[:, None], hard_neg, other)
    # one call over interleaved (positive, negative) bounds draws, per anchor,
    # the same two stream values as two scalar calls
    pick = rng.integers(np.stack(
        [np.count_nonzero(p_pool, axis=1), np.count_nonzero(n_pool, axis=1)], axis=1))
    return TripletSet(rows, _kth_true(p_pool, pick[:, 0]), _kth_true(n_pool, pick[:, 1]))


def sample_triplets(
    kind: str, dist, labels, rng: SeededRng, *,
    embed_dim: int, semihard_margin: float = 0.2, clip: float = 0.5,
    anchor_indices=None,
) -> TripletSet:
    """Strategy dispatch used by the training loop."""
    if kind == "random":
        return sample_random_triplets(labels, None, rng, anchor_indices)
    if kind == "semihard":
        return sample_semihard_triplets(dist, labels, semihard_margin, rng, anchor_indices)
    if kind == "softhard":
        return sample_softhard_triplets(dist, labels, rng, anchor_indices)
    if kind == "distance":
        return sample_distance_weighted(dist, labels, rng, embed_dim, clip, anchor_indices)
    raise ConfigError(f"sampler.kind must be one of {SAMPLER_KINDS}, got {kind!r}")
