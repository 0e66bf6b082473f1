"""Retrieval and clustering evaluation: Recall@k, NMI, pairwise F1.

Clustering for NMI/F1 uses seeded k-means with k equal to the number of test
classes.  NMI normalizes mutual information by the geometric mean of the two
entropies; F1 is the pairwise variant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import SeededRng
from .errors import KOutOfRangeError, ShapeMismatchError

# The factor in recall_at_k's bound E on |Gram form - kernel| of a squared
# distance, over three times the rounding error derived there.  Raising it
# only sends more entries to the kernel.
GRAM_ERROR_SCALE = 32.0
_U = 2.0**-53
_TINY = 2.0**-1074  # the least subnormal

# Queries per recall_at_k block; with fewer, per-block numpy calls set its
# time.  The Gram block takes 512 n bytes, 256 KiB on a training run's
# 512-point test split, where every evaluation temporary must stay below
# 512 KiB: glibc mmaps a block that size, and freeing one raises its mmap
# threshold for the rest of the process (see core.DISTANCE_BLOCK_BYTES).
RECALL_BLOCK_ROWS = 64


def _gram_error(d, big):
    """recall_at_k's bound E, for d-dimensional points of squared norm <= big."""
    return GRAM_ERROR_SCALE * (d + 8) * (_U * big + _TINY)


def _reach(a_min, err):
    """recall_at_k's reach about the least Gram form a_min."""
    return 2 * err + 16 * _U * (np.abs(a_min) + err)


@dataclass
class EvalReport:
    recall_at: dict  # k -> fraction in [0, 1]
    nmi: float
    f1: float
    n_queries: int

    def to_json_dict(self, step=None) -> dict:
        out = {} if step is None else {"step": step}
        out.update({f"recall@{k}": self.recall_at[k] for k in sorted(self.recall_at)})
        return {**out, "nmi": self.nmi, "f1": self.f1, "n_queries": self.n_queries}


def recall_at_k(embeddings, labels, ks) -> dict:
    """Leave-one-out retrieval hit rate for each k.

    Every point queries all others ranked by l2 distance (ties to the lower
    index); a hit means some same-label point appears in the top k.  Labels
    are integers (`core.as_labels`), one per point; each k is an integer in
    [1, n) (`core.check_count`).

    No query is sorted.  Under the order (distance, index) a query's first
    same-label point p* sits at rank #{j: d_j < d_p*} + #{j: d_j == d_p*,
    j < p*}, and the query hits at k exactly when that rank is below k, which
    is the stable-argsort answer, ties included.  A query with no same-label
    partner never hits.  Every distance that decides a rank is the kernel's
    (pairwise_distances' bits, through core._pair_distances); a BLAS Gram
    product only bounds which entries need one.

    The bound.  Per row block of queries, one BLAS product of the rows
    [x, 1] with the columns [y; -|y|^2 / 2] gives G = x.y - |y|^2 / 2, so
    A = |x|^2 - 2G is the Gram form |x|^2 + |y|^2 - 2 x.y of each squared
    distance (the query's own entry +inf).  Let M be the largest |x|^2,
    u = 2**-53, gamma_m = m*u / (1 - m*u), S the exact squared distance and
    K the kernel's.
    - K rounds each of its d terms twice and sums them with d - 1 additions,
      so |K - S| <= gamma_(d+2) * S <= 4 gamma_(d+2) M.
    - Each squared norm errs by at most gamma_d M, and G, a sum of d + 1
      products, by at most gamma_(d+1) (sum |x_k y_k| + |y|^2 / 2) <=
      1.5 gamma_(d+1) M (Higham, Accuracy and Stability of Numerical
      Algorithms, 2nd ed., 3.1), so |A - S| <= 2 gamma_d M + 3 gamma_(d+1) M.
    Together |A - K| is at most about (9d + 11) u M, and
        E = GRAM_ERROR_SCALE * (d + 8) * (u M + 2**-1074),  scale 32,
    is over three times that; the rest covers the roundings of the
    comparisons below, a few u M each.  The 2**-1074 term covers underflow,
    at most 2**-1075 for each of fewer than 4d products.  Rows below
    core.ROW_BOUND keep every one of these values finite.

    The window.  Let a_min be the least A over the query's partners, K_min
    the least K, which lies within E of a_min, and reach = 2E + 16u (|a_min|
    + E).  Two square roots that round alike differ by at most a factor
    (1 + u) / (1 - u), so the K of an entry at distance d_p* lies between
    K_min (1 - 4.01u) and K_min (1 + 4.01u).
    - An entry with A below a_min - reach has K below K_min (1 - 4.01u), so
      its distance is below d_p*: it is counted without one.
    - One with A above a_min + reach has K above K_min (1 + 4.01u): farther.
    - Every entry between gets a kernel distance.  Every partner at d_p*
      lies there, so p* is the lowest index among the window's partners at
      their least distance, and the window's entries are ranked against it
      by the (distance, index) rule.
    The comparisons are made on G, against (|x|^2 - bound) / 2, so A is
    never formed.  The points are sorted by label, so a query's partners
    are one run of columns, and a block's queries span a few whole runs.
    One np.maximum.reduceat over those runs' columns gives each query its
    greatest G in each run.  In its own run that is the greatest G over its
    partners (its own entry is -inf), so a_min is |x|^2 less twice it.
    Only a query alone in its run, with no partner, reads -inf there: every
    other G is finite for rows below core.ROW_BOUND.  A block
    reads G once more: one b x n mask holds the entries with
    A <= a_min + reach but the query's own (none for a query without a
    partner).  One np.flatnonzero lists these hot entries in row-major
    order; those with A below a_min - reach are counted, the rest are the
    window.

    Scratch: the planes of the points, sorted by label, over their
    -|y|^2 / 2 row, and the norms: 8 (d + 2) n bytes, and while they are
    filled, one unsorted plane copy of 8 d n bytes; the label order, each
    sorted point's run and the ranks, 8n bytes each.  Per block of
    b = RECALL_BLOCK_ROWS = 64 queries: the b x n product (8bn = 512 n
    bytes, 1 MiB at n = 2048), the mask (bn bytes, made once per call), the
    run maxima, 8b bytes per run spanned (at most b runs), under 40 bytes
    per hot entry while they are split, then under 64 bytes per window
    entry, the gathers of core._pair_distances included (they fit
    core.DISTANCE_BLOCK_BYTES).  On unit rows about one entry per query is
    hot.  With every entry hot (each query's partner its farthest point)
    that is under 8 times the product's bytes.
    """
    x = core._as_rows(embeddings)
    n = x.shape[0]
    labels = core.as_labels(labels, n)
    try:
        ks = list(ks)
    except TypeError:
        raise KOutOfRangeError(f"recall ks must be an iterable of integers, got {ks!r}") from None
    if not ks:
        raise KOutOfRangeError("recall needs at least one k")
    for k in ks:
        core.check_count(k, 1, n - 1, "k")
    ks = sorted(int(k) for k in ks)
    # sorted by label, a query's partners are one run of columns; column j
    # is in run run_of[j]
    order = np.argsort(labels, kind="stable")
    run_of = np.zeros(n, dtype=np.int64)
    np.cumsum(labels[order[1:]] != labels[order[:-1]], out=run_of[1:])
    d = x.shape[1]
    aug = np.empty((d + 1, n))  # the sorted points' planes over -|y|^2 / 2
    planes = aug[:d]
    np.take(core._planes(x), order, axis=1, out=planes)
    norms = np.einsum("ij,ij->j", planes, planes)
    np.multiply(norms, -0.5, aug[d])
    err = _gram_error(d, norms.max())
    ranks = np.empty(n, dtype=np.int64)
    block = RECALL_BLOCK_ROWS
    gram = np.empty((min(block, n), n))
    query = np.ones((min(block, n), d + 1))
    mask = np.empty((min(block, n), n), dtype=bool)
    for start in range(0, n, block):
        stop = min(start + block, n)
        b = stop - start
        own = np.arange(b)
        g, q, nq = gram[:b], query[:b], norms[start:stop]
        q[:, :d] = planes[:, start:stop].T
        np.matmul(q, aug, g)  # A = nq - 2g
        g[own, start + own] = -np.inf
        # the window: A within `reach` of a_min, the least A over partners
        runs = run_of[start:stop]
        edges = np.searchsorted(run_of, np.arange(runs[0], runs[-1] + 2))  # the runs' columns
        g_max = np.maximum.reduceat(g[:, edges[0] : edges[-1]], edges[:-1] - edges[0], axis=1)
        a_min = nq - 2 * g_max[own, runs - runs[0]]  # +inf for a query alone in its run
        has = a_min < np.inf
        a_min[~has] = 0.0
        reach = _reach(a_min, err)
        closer_bar = (nq - (a_min - reach)) / 2
        low_bar = np.where(has, (nq - (a_min + reach)) / 2, np.inf)  # no partner: nothing hot
        hot = mask[:b]  # the entries not certainly farther
        np.greater_equal(g, low_bar[:, None], out=hot)
        hot[own, start + own] = False
        wr, wc = np.divmod(np.flatnonzero(hot), n)
        near = g[wr, wc] > closer_bar[wr]  # certainly closer: counted, not ranked
        n_closer = np.bincount(wr[near], minlength=b)
        wr, wc = wr[~near], wc[~near]  # the window
        dist = np.sqrt(core._pair_distances(planes, start + wr, wc))
        # d_p*: the least distance among the window's partners; p*: the
        # least index among those at it
        mate = np.flatnonzero(run_of[wc] == run_of[start + wr])
        d_pos = np.full(b, np.inf)
        np.minimum.at(d_pos, wr[mate], dist[mate])
        at = mate[dist[mate] == d_pos[wr[mate]]]
        first = np.full(b, n)
        np.minimum.at(first, wr[at], order[wc[at]])
        ahead = (dist < d_pos[wr]) | ((dist == d_pos[wr]) & (order[wc] < first[wr]))
        rank = n_closer + np.bincount(wr[ahead], minlength=b)
        ranks[start:stop] = np.where(has, rank, n)
    return {k: int(np.count_nonzero(ranks < k)) / n for k in ks}


def kmeans(embeddings, k: int, rng: SeededRng, max_iter: int = 100):
    """Lloyd's algorithm from k-means++ style seeding: (assign, centroids).

    Deterministic given rng.  `k` in [1, n] and `max_iter` >= 1 go through
    `core.check_count` first.  Every squared distance that decides a
    draw or an assignment has the kernel's bits, over one plane copy of the
    points per call.  Seeding keeps each point's squared distance to its
    nearest chosen center as a running minimum: per center, the points'
    planes less the center's, squared and summed by core._sum_leading
    (fl(a - b) squared is fl(b - a) squared).  Each plane subtracts the
    center's coordinate as a scalar: numpy would give the broadcast center
    an iterator buffer, 64 KiB or more, and take longer.  Each sweep
    assigns each point to its nearest centroid, ties to the lower index.  A
    centroid is its members summed in index order from +0.0, divided by
    their count; for d >= 2 that is numpy's `x[members].mean(axis=0)` bit
    for bit.  Stops at an assignment fixpoint or after max_iter sweeps; an
    emptied cluster keeps its previous centroid.

    The update.  The centroids stay in plane layout, beside the points'
    planes.  One weighted np.bincount over a point-major copy of the points
    (each row's coordinates in plane order), with bin d assign[i] + p for
    point i's coordinate in plane p, gives every cluster's sums at once: it
    adds each bin's weights in index order, from +0.0.  Point-major, the
    weights that follow one another go to d different bins.  In plane
    order a class-ordered split sends long runs of weights to one bin, each
    add waiting on the one before (134 against 61 us a sweep for sorted
    assignments at n = 2048, d = k = 16, on a 2-core Xeon).  A sweep
    rebuilds the bins of only the points that moved, from a k x d table of
    each cluster's bins, in chunks whose gather fits
    core.DISTANCE_BLOCK_BYTES; no point moving is the fixpoint.

    The assignment.  One BLAS product of the rows [c, -|c|^2 / 2] with the
    columns [x; 1] gives the k x n block G = c.x - |c|^2 / 2, so
    A = |x|^2 - 2G is the Gram form of each squared distance.  recall_at_k's
    derivation bounds |A - K| by its E with the centroid in the query's
    place, M the largest squared norm over the points and the centroids.
    Let a_min be a point's least A and reach as in recall_at_k.  The kernel's
    nearest centroid j* (least K, then lowest index) has K_j* at most the K
    of the centroid at a_min, so A_j* <= a_min + 2E, as for every centroid
    tied with it.  The candidates are the centroids with A <= a_min + reach,
    compared on G against (|x|^2 - (a_min + reach)) / 2.  A point with one
    candidate takes it; one with several takes the least kernel distance
    among them, ties to the lower index, which is j*.

    Scratch: the points' planes over a row of ones and the centroids'
    planes over their -|c|^2 / 2 row, 8 (d + 1) (n + k) bytes; the
    point-major copy of the points and the bincount's bins, 16 d n bytes;
    the norms, 8n bytes; and the table of cluster bins, 8kd bytes.
    Seeding, before the bins exist, takes 8 d n bytes for the squared
    differences to one center and up to five n-vectors, numpy's choice
    among them.  Per sweep: the product, 8kn bytes, two k x n masks, kn
    bytes each, up to six n-vectors of 8n bytes, the k x d sums, a chunk of
    rebuilt bins (it fits core.DISTANCE_BLOCK_BYTES) with 16 bytes a point
    for the chunk's indices and clusters, and per point with several
    candidates 18k bytes, np.argmin's transposed copy of their distances
    among them, plus 48 per candidate, beside core._pair_distances' gathers
    (they fit core.DISTANCE_BLOCK_BYTES).  On unit rows almost every point
    has one candidate.
    """
    x = core._as_rows(embeddings)
    n = x.shape[0]
    core.check_count(k, 1, n, "k")
    core.check_count(max_iter, 1, None, "max_iter")
    d = x.shape[1]
    # the points' planes over a row of ones, then the centroids' planes over
    # -|c|^2 / 2, in one array so that core._pair_distances pairs centroids
    # with points and the product's rows [c, -|c|^2 / 2] are a view
    planes = np.empty((d + 1, n + k))
    aug, x_planes, c_planes = planes[:, :n], planes[:d, :n], planes[:d, n:]
    rows, c_half = planes[:, n:].T, planes[d, n:]
    x_rows = x.take(core._plane_order(d), 1)  # point-major, in plane order: the bincount's weights
    x_planes[...] = x_rows.T
    aug[d] = 1.0
    x_norms = np.einsum("ij,ij->j", x_planes, x_planes)
    x_big = x_norms.max()

    # seeding: d2 is each point's squared distance to its nearest center
    diff, near = np.empty((d, n)), np.empty(n)
    d2 = np.full(n, np.inf)
    chosen = int(rng.integers(n))
    for j in range(k):
        if j:
            total = d2.sum()
            chosen = rng.choice(n, p=d2 / total if total > 0 else np.full(n, 1.0 / n))
        c_planes[:, j] = x_planes[:, chosen]
        for p in range(d):  # a scalar operand: no iterator buffer
            np.subtract(x_planes[p], x_planes[p, chosen], diff[p])
        np.multiply(diff, diff, diff)
        core._sum_leading(diff, near)
        np.minimum(d2, near, out=d2)
    del diff, near, d2

    g = np.empty((k, n))  # G
    # point i's coordinate in plane p goes to bin d assign[i] + p: row j of
    # cluster_bins for a point of cluster j
    cluster_bins = d * np.arange(k)[:, None] + np.arange(d)
    bins = np.empty((n, d), dtype=np.int64)
    chunk = max(1, core.DISTANCE_BLOCK_BYTES // max(1, 8 * d))
    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iter):
        c_norms = np.einsum("ij,ij->j", c_planes, c_planes)
        np.multiply(c_norms, -0.5, c_half)
        err = _gram_error(d, max(x_big, c_norms.max()))
        np.matmul(rows, aug, g)  # A = x_norms - 2g
        a_min = x_norms - 2 * g.max(axis=0)
        far = g < (x_norms - (a_min + _reach(a_min, err))) / 2
        new_assign = np.argmin(far, axis=0)  # the first candidate
        several = np.flatnonzero(np.count_nonzero(far, axis=0) < k - 1)
        if several.size:
            cj, ci = np.nonzero(~far[:, several])
            dist = np.full((k, several.size), np.inf)
            dist[cj, ci] = core._pair_distances(planes[:d], n + cj, several[ci])
            new_assign[several] = np.argmin(dist, axis=0)
        moved = np.flatnonzero(new_assign != assign)
        if not moved.size:
            break
        assign = new_assign
        for lo in range(0, moved.size, chunk):
            part = moved[lo : lo + chunk]
            bins[part] = cluster_bins[assign[part]]
        sums = np.bincount(bins.ravel(), x_rows.ravel(), k * d).reshape(k, d)
        counts = np.bincount(assign, minlength=k)
        np.divide(sums.T, counts, out=c_planes, where=counts > 0)
    centers = np.empty((k, d))
    centers[:, core._plane_order(d)] = c_planes.T
    return assign, centers


def _contingency(a, b):
    a = core.as_labels(a)
    b = core.as_labels(b, a.shape[0])
    ua, ia = np.unique(a, return_inverse=True)
    ub, ib = np.unique(b, return_inverse=True)
    table = np.zeros((len(ua), len(ub)), dtype=np.int64)
    np.add.at(table, (ia, ib), 1)
    return table


def _entropy(counts):
    p = counts / counts.sum()
    return float(-(p * np.log(p)).sum())


def nmi(assignment, labels) -> float:
    """Mutual information normalized by the geometric mean of the entropies
    (natural logs); 0.0 when either partition is degenerate."""
    table = _contingency(assignment, labels)
    n = table.sum()
    if n == 0:
        raise ShapeMismatchError("empty inputs")
    rows, cols = table.sum(axis=1), table.sum(axis=0)
    h_a, h_b = _entropy(rows), _entropy(cols)
    if h_a == 0.0 or h_b == 0.0:
        return 0.0
    pa, pb = rows / n, cols / n
    pij = table / n
    ratio = pij / (pa[:, None] * pb[None, :])
    terms = pij * np.log(np.where(pij > 0, ratio, 1.0))
    info = float(terms.sum())
    return float(min(max(info / np.sqrt(h_a * h_b), 0.0), 1.0))


def f1_score(assignment, labels) -> float:
    """Pairwise F1: precision/recall of same-cluster pairs against
    same-label pairs; 0.0 if either denominator or the shared pairs vanish."""
    table = _contingency(assignment, labels)

    def pairs(counts):
        return float((counts * (counts - 1) / 2).sum())

    same_both = pairs(table.ravel())
    same_cluster = pairs(table.sum(axis=1))
    same_label = pairs(table.sum(axis=0))
    if same_cluster == 0 or same_label == 0 or same_both == 0:
        return 0.0
    precision = same_both / same_cluster
    recall = same_both / same_label
    return float(2 * precision * recall / (precision + recall))


def evaluate_embeddings(embeddings, labels, ks, rng: SeededRng) -> EvalReport:
    """Full protocol: retrieval recall plus k-means clustering scored by
    NMI and pairwise F1, with k = number of distinct labels."""
    labels = core.as_labels(labels)
    n_classes = len(np.unique(labels, return_inverse=True)[0])  # a bare unique imports numpy.ma
    recall = recall_at_k(embeddings, labels, ks)
    assign, _ = kmeans(embeddings, n_classes, rng)
    return EvalReport(
        recall_at=recall,
        nmi=nmi(assign, labels),
        f1=f1_score(assign, labels),
        n_queries=len(labels),
    )
