"""Retrieval and clustering evaluation: Recall@k, NMI, pairwise F1.

Clustering for NMI/F1 uses seeded k-means with k equal to the number of test
classes.  NMI normalizes mutual information by the geometric mean of the two
entropies; F1 is the pairwise variant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import SeededRng, pairwise_distances
from .errors import KOutOfRangeError, ShapeMismatchError


@dataclass
class EvalReport:
    recall_at: dict  # k -> fraction in [0, 1]
    nmi: float
    f1: float
    n_queries: int

    def to_json_dict(self, step=None) -> dict:
        out = {}
        if step is not None:
            out["step"] = step
        for k in sorted(self.recall_at):
            out[f"recall@{k}"] = self.recall_at[k]
        out["nmi"] = self.nmi
        out["f1"] = self.f1
        out["n_queries"] = self.n_queries
        return out


def recall_at_k(embeddings, labels, ks) -> dict:
    """Leave-one-out retrieval hit rate for each k.

    Every point queries all others ranked by l2 distance (ties to the lower
    index); a hit means some same-label point appears in the top k.

    No query is sorted.  Under the order (distance, index) a query's first
    same-label point p* sits at rank #{j: d_j < d_p*} + #{j: d_j == d_p*,
    j < p*}, and the query hits at k exactly when that rank is below k, which
    is the stable-argsort answer, ties included.  The query itself sits at
    distance inf, behind every finite distance, so with k < n it never
    counts.  Queries are scored in row blocks: each block's b x n distances
    come from the kernel of pairwise_distances (the embeddings are validated
    and transposed once per call) and fit core.DISTANCE_BLOCK_BYTES with its
    temporaries (at least one row per block), so no n x n array is built.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    n = emb.shape[0]
    if labels.shape[0] != n:
        raise ShapeMismatchError("labels length != embedding count")
    ks = sorted(int(k) for k in ks)
    if not ks:
        raise KOutOfRangeError("recall needs at least one k")
    if ks[0] < 1:
        raise KOutOfRangeError(f"recall k must be >= 1, got {ks[0]}")
    if n < 2 or ks[-1] >= n:
        raise KOutOfRangeError(f"max k {ks[-1]} needs at least {ks[-1] + 1} points, have {n}")
    planes = core._planes(core._as_rows(emb))
    ranks = np.empty(n, dtype=np.int64)
    cols = np.arange(n)
    block = max(1, core.DISTANCE_BLOCK_BYTES // (8 * n))
    for start in range(0, n, block):
        d = core._distances_planes(planes[:, start : start + block], planes)
        d[cols[: len(d)], cols[start : start + len(d)]] = np.inf  # self is never a neighbor
        same = labels[start : start + block, None] == labels[None, :]
        d_pos = np.min(d, axis=1, where=same, initial=np.inf)[:, None]
        tied = d == d_pos
        first = np.argmax(tied & same, axis=1)[:, None]
        closer = np.count_nonzero(d < d_pos, axis=1)
        tied_before = np.count_nonzero(tied & (cols < first), axis=1)
        ranks[start : start + block] = closer + tied_before
    return {k: int(np.count_nonzero(ranks < k)) / n for k in ks}


def kmeans(embeddings, k: int, rng: SeededRng, max_iter: int = 100):
    """Lloyd's algorithm from k-means++ style seeding: (assign, centroids).

    Deterministic given rng.  Squared distances come from pairwise_distances:
    seeding keeps each point's distance to its nearest chosen center as a
    running minimum, one n x 1 call per center; each sweep assigns from one
    n x k call and takes the members from a stable argsort, so a centroid is
    the mean of its members in index order.  Stops at an assignment fixpoint
    or after max_iter sweeps; an emptied cluster keeps its previous centroid.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    n = x.shape[0]
    if k < 1:
        raise KOutOfRangeError(f"k-means needs k >= 1, got {k}")
    if k > n:
        raise KOutOfRangeError(f"k={k} exceeds {n} points")
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[int(rng.integers(n))]
    d2 = pairwise_distances(x, centers[:1], squared=True)[:, 0]
    for j in range(1, k):
        total = d2.sum()
        probs = d2 / total if total > 0 else np.full(n, 1.0 / n)
        centers[j] = x[rng.choice(n, p=probs)]
        np.minimum(d2, pairwise_distances(x, centers[j : j + 1], squared=True)[:, 0], out=d2)

    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iter):
        # ties to the lower centroid index; no n x k matrix outlives its sweep
        new_assign = np.argmin(pairwise_distances(x, centers, squared=True), axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        order = np.argsort(assign, kind="stable")
        bounds = np.searchsorted(assign[order], np.arange(k + 1))
        for j in range(k):
            if bounds[j] < bounds[j + 1]:
                centers[j] = x[order[bounds[j] : bounds[j + 1]]].mean(axis=0)
    return assign, centers


def _contingency(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[0] != b.shape[0]:
        raise ShapeMismatchError("assignment and labels differ in length")
    ua, ia = np.unique(a, return_inverse=True)
    ub, ib = np.unique(b, return_inverse=True)
    table = np.zeros((len(ua), len(ub)), dtype=np.int64)
    np.add.at(table, (ia, ib), 1)
    return table


def _entropy(counts):
    p = counts / counts.sum()
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def nmi(assignment, labels) -> float:
    """Mutual information normalized by the geometric mean of the entropies
    (natural logs); 0.0 when either partition is degenerate."""
    table = _contingency(assignment, labels)
    n = table.sum()
    if n == 0:
        raise ShapeMismatchError("empty inputs")
    h_a = _entropy(table.sum(axis=1))
    h_b = _entropy(table.sum(axis=0))
    if h_a == 0.0 or h_b == 0.0:
        return 0.0
    pa = table.sum(axis=1) / n
    pb = table.sum(axis=0) / n
    pij = table / n
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = pij / (pa[:, None] * pb[None, :])
        terms = np.where(pij > 0, pij * np.log(np.where(pij > 0, ratio, 1.0)), 0.0)
    info = float(terms.sum())
    return float(min(max(info / np.sqrt(h_a * h_b), 0.0), 1.0))


def f1_score(assignment, labels) -> float:
    """Pairwise F1: precision/recall of same-cluster pairs against
    same-label pairs; 0.0 if either denominator vanishes."""
    table = _contingency(assignment, labels)

    def pairs(counts):
        return float((counts * (counts - 1) / 2).sum())

    same_both = pairs(table.ravel())
    same_cluster = pairs(table.sum(axis=1))
    same_label = pairs(table.sum(axis=0))
    if same_cluster == 0 or same_label == 0:
        return 0.0
    precision = same_both / same_cluster
    recall = same_both / same_label
    if precision + recall == 0:
        return 0.0
    return float(2 * precision * recall / (precision + recall))


def evaluate_embeddings(embeddings, labels, ks, rng: SeededRng) -> EvalReport:
    """Full protocol: retrieval recall plus k-means clustering scored by
    NMI and pairwise F1, with k = number of distinct labels."""
    labels = np.asarray(labels)
    n_classes = len(np.unique(labels))
    recall = recall_at_k(embeddings, labels, ks)
    assign, _ = kmeans(embeddings, n_classes, rng)
    return EvalReport(
        recall_at=recall,
        nmi=nmi(assign, labels),
        f1=f1_score(assign, labels),
        n_queries=len(labels),
    )
