"""Batch construction and embedding-pair/triplet sampling strategies.

Samplers see only a distance matrix and labels; nothing marks an embedding as
real or produced, so both kinds are sampled on equal footing.  The optional
`anchor_indices` restricts which rows may serve as anchors (used to keep
produced embeddings out of the anchor role when configured), but candidates
for positives/negatives always span the whole batch.  Every sampler mines
from the same-label/other-label masks of `core.label_masks` and resolves
each seeded pick to the k-th True entry of a mask row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SeededRng, label_masks
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


def _check_square(dist, labels):
    dist = np.asarray(dist)
    n = len(labels)
    if dist.shape != (n, n):
        raise ShapeMismatchError(f"distance matrix {dist.shape} vs {n} labels")
    return dist


def sample_random_triplets(labels, count, rng: SeededRng, anchor_indices=None) -> TripletSet:
    """Uniform anchors, uniform same-label positives, uniform other-label negatives.

    `count=None` draws one triplet per eligible anchor.
    """
    same, other = label_masks(labels)
    valid = _eligible_anchors(same, other, anchor_indices)
    if valid.size == 0:
        raise NoValidTripletError("no anchor has both a positive and a negative")
    n_pos, n_neg = np.count_nonzero(same, axis=1), np.count_nonzero(other, axis=1)
    if count is None:
        count = valid.size
    anchors, k_pos, k_neg = np.empty((3, count), dtype=np.int64)
    for t in range(count):
        a = anchors[t] = valid[int(rng.integers(len(valid)))]
        k_pos[t] = rng.integers(int(n_pos[a]))
        k_neg[t] = rng.integers(int(n_neg[a]))
    return TripletSet(anchors, _kth_true(same[anchors], k_pos), _kth_true(other[anchors], k_neg))


def _eligible_anchors(same, other, anchor_indices):
    """Anchors with a positive and a negative, in pool order, duplicates kept."""
    if anchor_indices is None:
        pool = np.arange(same.shape[0])
    else:
        pool = np.asarray(anchor_indices, dtype=np.int64)
    return pool[(same.any(axis=1) & other.any(axis=1))[pool]]


def sample_semihard_triplets(
    dist, labels, margin: float, rng: SeededRng, anchor_indices=None
) -> TripletSet:
    """One triplet per eligible anchor with the semi-hard window rule.

    Negative selection: uniform inside the open window
    (D_ap, D_ap + margin); if the window is empty, the hardest negative
    strictly farther than the positive; if none is farther, the least
    violating negative (largest D_an).  Ties resolve to the lower index.
    """
    dist = _check_square(dist, labels)
    same, other = label_masks(labels)
    anchors = _eligible_anchors(same, other, anchor_indices)
    positives, negatives = np.empty_like(anchors), np.empty_like(anchors)
    for i, a in enumerate(anchors):
        row = dist[a]
        p = positives[i] = _kth_true(same[a], rng.integers(np.count_nonzero(same[a])))
        farther = other[a] & (row > row[p])
        window = farther & (row < row[p] + margin)
        if window.any():
            negatives[i] = _kth_true(window, rng.integers(np.count_nonzero(window)))
        elif farther.any():
            negatives[i] = np.argmin(np.where(farther, row, np.inf))
        else:
            negatives[i] = np.argmax(np.where(other[a], row, -np.inf))
    return TripletSet(anchors, positives, negatives)


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
    positive and then a uniform in [0, total negative weight).  The two
    draws interleave on one stream, and batching either kind would change
    which stream values each anchor gets, so the draws stay in a per-anchor
    loop.  The rest is vectorized: the negative is the first column of the
    anchor's weight cdf that exceeds the uniform (its last negative if the
    uniform rounds up to the total).
    """
    dist = _check_square(dist, labels)
    same, other = label_masks(labels)
    rows = _eligible_anchors(same, other, anchor_indices)
    same, other = same[rows], other[rows]
    # zeroing the non-negatives adds exact +0.0 terms, so each row's cdf at
    # its negative columns is the cumsum over the negatives alone, bit for bit
    weights = np.where(other, distance_weights(dist[rows], embed_dim, clip), 0.0)
    cdf = np.cumsum(weights, axis=1)
    n_pos = np.count_nonzero(same, axis=1)
    pick = np.empty(rows.size, dtype=np.int64)
    u = np.empty(rows.size)
    for i in range(rows.size):
        pick[i] = rng.integers(int(n_pos[i]))
        u[i] = rng.uniform(0.0, cdf[i, -1])
    # the negative's rank among the anchor's negatives: searchsorted(side="right")
    rank = np.count_nonzero((cdf <= u[:, None]) & other, axis=1)
    rank = np.minimum(rank, np.count_nonzero(other, axis=1) - 1)
    return TripletSet(rows, _kth_true(same, pick), _kth_true(other, rank))


def _kth_true(mask, k):
    """Column of the k[i]-th (0-based) True entry of each mask row (or of
    the k-th of a single row)."""
    return np.count_nonzero(np.cumsum(mask, axis=-1) <= np.asarray(k)[..., None], axis=-1)


def sample_softhard_triplets(
    dist, labels, rng: SeededRng, anchor_indices=None
) -> TripletSet:
    """Hard positives (farther than the nearest negative) paired with hard
    negatives (closer than the farthest positive); uniform fallback each side."""
    dist = _check_square(dist, labels)
    same, other = label_masks(labels)
    rows = _eligible_anchors(same, other, anchor_indices)
    d, same, other = dist[rows], same[rows], other[rows]
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
