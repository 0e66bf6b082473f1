"""Per-anchor and per-row reference implementations of vectorized package code.

Each oracle is the plain loop the package code replaced.  It consumes the
seeded stream one scalar draw at a time, so an equivalence test can compare
both the outputs and the RNG state left behind.
"""

import numpy as np

from densedml.das import TransformationBank, shifting_factor
from densedml.losses import TripletSet
from densedml.sampling import distance_weights


def class_views(labels):
    """Per-row index lists of same-label partners (self excluded) and other-label rows."""
    labels = np.asarray(labels)
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    diff = labels[:, None] != labels[None, :]
    return [np.flatnonzero(row) for row in same], [np.flatnonzero(row) for row in diff]


def sample_distance_weighted(dist, labels, rng, embed_dim, clip=0.5, anchor_indices=None):
    """One triplet per eligible anchor: uniform positive, then an inverse-cdf
    negative over that anchor's 1/q(d) weights."""
    dist = np.asarray(dist)
    pos_lists, neg_lists = class_views(labels)
    pool = range(len(labels)) if anchor_indices is None else anchor_indices
    all_weights = distance_weights(dist, embed_dim, clip)
    anchors, positives, negatives = [], [], []
    for a in pool:
        if not (len(pos_lists[a]) and len(neg_lists[a])):
            continue
        p = pos_lists[a][int(rng.integers(len(pos_lists[a])))]
        negs = neg_lists[a]
        cdf = np.cumsum(all_weights[a, negs])
        u = rng.uniform(0.0, cdf[-1])
        n = negs[min(int(np.searchsorted(cdf, u, side="right")), negs.size - 1)]
        anchors.append(int(a))
        positives.append(int(p))
        negatives.append(int(n))
    return TripletSet(
        np.asarray(anchors, dtype=np.int64),
        np.asarray(positives, dtype=np.int64),
        np.asarray(negatives, dtype=np.int64),
    )


def draw_shifts(bank: TransformationBank, labels, t, rb, rng):
    """(n*t, d) shifting factors, anchor-major, one `shifting_factor` call per row."""
    labels = np.atleast_1d(np.asarray(labels))
    shifts = np.zeros((len(labels) * t, bank.slots.shape[2]))
    for row, c in enumerate(np.repeat(labels, t)):
        shifts[row] = shifting_factor(bank, c, rb, rng)
    return shifts
