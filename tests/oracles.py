"""Per-anchor and per-row reference implementations of vectorized package code.

Each oracle is the plain loop the package code replaced.  It consumes the
seeded stream one scalar draw at a time (the sampler oracles in each
sampler's draw order), so an equivalence test can compare both the outputs
and the RNG state left behind.  The replicated baseline
stands in for DAS production in the training loop, and the small vector
helpers further down serve tests only; neither is part of the package.
The distance and loss oracles are the forms the package kernel replaced:
`np.sum` over a contiguous last axis, the full square without the mirrored
half, and `np.linalg.norm` over gathered pair differences with every
inactive term added as 0 * direction.  The anchor set-up and k-th True
oracles are the per-step code the batch layout replaced.  The label check
is the per-label loop `das.check_labels` replaced.  The
batch oracle draws one class at a time, the loop `sample_batch` replaced.  The
rank-count recall takes every distance from the kernel, the form the Gram
prefilter replaced.  The step forms further down are the numpy calls the
training step used before it called numpy's underlying operations:
`np.linalg.norm`, `np.sum`, `np.add.at` scatters, boolean compaction of
every produced row, and optimizer slots from `setdefault`.
"""

import numpy as np

import densedml.core as core
import densedml.training as training
from densedml.core import ZERO_NORM_EPS, label_masks, pairwise_distances
from densedml.das import DasConfig, ProducedBatch, TransformationBank
from densedml.encoder import EncoderParams, OptimizerState
from densedml.errors import (
    KOutOfRangeError,
    LabelOutOfRangeError,
    NoValidTripletError,
    ShapeMismatchError,
    ZeroNormError,
)
from densedml.losses import TINY_DISTANCE, LossOutput, PairSet, TripletSet
from densedml.sampling import distance_weights


def class_views(labels):
    """Per-row index lists of same-label partners (self excluded) and other-label rows."""
    labels = np.asarray(labels)
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    diff = labels[:, None] != labels[None, :]
    return [np.flatnonzero(row) for row in same], [np.flatnonzero(row) for row in diff]


def _eligible(pos_lists, neg_lists, anchor_indices):
    """The pool's anchors with a positive and a negative; every sampler
    raises NoValidTripletError when there is none."""
    pool = range(len(pos_lists)) if anchor_indices is None else anchor_indices
    anchors = [int(a) for a in pool if len(pos_lists[a]) and len(neg_lists[a])]
    if not anchors:
        raise NoValidTripletError("no anchor has both a positive and a negative")
    return anchors


def _triplet_set(anchors, positives, negatives):
    return TripletSet(
        np.asarray(anchors, dtype=np.int64),
        np.asarray(positives, dtype=np.int64),
        np.asarray(negatives, dtype=np.int64),
    )


def sample_batch(dataset, spec, rng):
    """P distinct train classes, then per class one `permutation` of its
    members (M of them kept), or M uniform members with replacement when it
    has fewer than M."""
    train = list(dataset.train_classes)
    p, m = spec.classes_per_batch, spec.samples_per_class
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


def sample_distance_weighted(dist, labels, rng, embed_dim, clip=0.5, anchor_indices=None):
    """One triplet per eligible anchor: uniform positive, then an inverse-cdf
    negative over that anchor's 1/q(d) weights.  Every anchor draws its
    positive, then every anchor its uniform."""
    dist = np.asarray(dist)
    pos_lists, neg_lists = class_views(labels)
    all_weights = distance_weights(dist, embed_dim, clip)
    anchors = _eligible(pos_lists, neg_lists, anchor_indices)
    positives = [int(pos_lists[a][int(rng.integers(len(pos_lists[a])))]) for a in anchors]
    negatives = []
    for a in anchors:
        negs = neg_lists[a]
        cdf = np.cumsum(all_weights[a, negs])
        u = rng.uniform(0.0, cdf[-1])
        negatives.append(int(negs[min(int(np.searchsorted(cdf, u, side="right")), negs.size - 1)]))
    return _triplet_set(anchors, positives, negatives)


def sample_random_triplets(labels, rng, anchor_indices=None):
    """One triplet per eligible anchor: every triplet draws a uniform anchor
    from the eligible pool, then each its uniform positive and its uniform
    negative."""
    pos_lists, neg_lists = class_views(labels)
    valid = _eligible(pos_lists, neg_lists, anchor_indices)
    anchors = [valid[int(rng.integers(len(valid)))] for _ in valid]
    positives, negatives = [], []
    for a in anchors:
        positives.append(int(pos_lists[a][int(rng.integers(len(pos_lists[a])))]))
        negatives.append(int(neg_lists[a][int(rng.integers(len(neg_lists[a])))]))
    return _triplet_set(anchors, positives, negatives)


def sample_semihard_triplets(dist, labels, margin, rng, anchor_indices=None):
    """Per anchor: uniform positive, then a uniform negative in the open
    window (D_ap, D_ap + margin), else the hardest farther negative, else the
    largest D_an; ties to the lower index.  Every anchor draws its positive,
    then each anchor with a non-empty window its window negative."""
    dist = np.asarray(dist)
    pos_lists, neg_lists = class_views(labels)
    anchors = _eligible(pos_lists, neg_lists, anchor_indices)
    positives = [int(pos_lists[a][int(rng.integers(len(pos_lists[a])))]) for a in anchors]
    negatives = []
    for a, p in zip(anchors, positives):
        d_ap = dist[a, p]
        negs = neg_lists[a]
        d_an = dist[a, negs]
        window = negs[(d_an > d_ap) & (d_an < d_ap + margin)]
        if window.size:
            n = window[int(rng.integers(window.size))]
        else:
            farther = negs[d_an > d_ap]
            if farther.size:
                n = farther[int(np.argmin(dist[a, farther]))]
            else:
                n = negs[int(np.argmax(d_an))]
        negatives.append(int(n))
    return _triplet_set(anchors, positives, negatives)


def sample_softhard_triplets(dist, labels, rng, anchor_indices=None):
    """Per anchor: a uniform hard positive (farther than the nearest negative)
    and a uniform hard negative (closer than the farthest positive), each
    falling back to the full set when its hard set is empty."""
    dist = np.asarray(dist)
    pos_lists, neg_lists = class_views(labels)
    anchors, positives, negatives = [], [], []
    for a in _eligible(pos_lists, neg_lists, anchor_indices):
        pos, negs = pos_lists[a], neg_lists[a]
        d_pos, d_neg = dist[a, pos], dist[a, negs]
        hard_pos = pos[d_pos > d_neg.min()]
        hard_neg = negs[d_neg < d_pos.max()]
        p_pool = hard_pos if hard_pos.size else pos
        n_pool = hard_neg if hard_neg.size else negs
        anchors.append(a)
        positives.append(int(p_pool[int(rng.integers(p_pool.size))]))
        negatives.append(int(n_pool[int(rng.integers(n_pool.size))]))
    return _triplet_set(anchors, positives, negatives)


def multi_similarity_loss(embeddings, labels, spec):
    """Per-anchor multi-similarity loss: mine, then one log-sum-exp per side."""
    emb = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    n = emb.shape[0]
    grad = np.zeros_like(emb)
    sims = emb @ emb.T

    alpha, beta, base, eps = spec.ms_alpha, spec.ms_beta, spec.ms_base, spec.ms_eps
    eligible = 0
    active = 0
    total = 0.0
    sim_grad = np.zeros_like(sims)
    for i in range(n):
        same = labels == labels[i]
        same[i] = False
        diff = ~(labels == labels[i])
        pos_idx = np.flatnonzero(same)
        if pos_idx.size == 0:
            continue
        eligible += 1
        neg_idx = np.flatnonzero(diff)

        min_neg = sims[i, neg_idx].min() if neg_idx.size else -np.inf
        max_pos = sims[i, pos_idx].max()
        mined_pos = pos_idx[sims[i, pos_idx] > min_neg - eps]
        mined_neg = neg_idx[sims[i, neg_idx] < max_pos + eps] if neg_idx.size else neg_idx

        term = 0.0
        if mined_pos.size:
            x = -alpha * (sims[i, mined_pos] - base)
            lse = np.logaddexp.reduce(np.concatenate(([0.0], x)))
            term += lse / alpha
            sim_grad[i, mined_pos] += -np.exp(x - lse)
        if mined_neg.size:
            x = beta * (sims[i, mined_neg] - base)
            lse = np.logaddexp.reduce(np.concatenate(([0.0], x)))
            term += lse / beta
            sim_grad[i, mined_neg] += np.exp(x - lse)
        total += term
        if term > 0:
            active += 1

    if eligible == 0 or active == 0:
        return LossOutput(0.0, grad, 0)
    sim_grad /= active
    grad += sim_grad @ emb
    grad += sim_grad.T @ emb
    return LossOutput(float(total / active), grad, active)


def distances(x, y, squared=False, block_bytes=128 * 1024):
    """The distance kernel's row-block form over a contiguous last axis:
    each entry is `np.sum` over its d squared differences."""
    (n, d), m = x.shape, y.shape[0]
    out = np.empty((n, m))
    block = max(1, block_bytes // max(1, 8 * m * d))
    diff = np.empty((min(block, n), m, d))
    for start in range(0, n, block):
        stop = min(start + block, n)
        buf = diff[: stop - start]
        np.subtract(x[start:stop, None, :], y[None, :, :], out=buf)
        np.multiply(buf, buf, out=buf)
        np.sum(buf, axis=-1, out=out[start:stop])
    return out if squared else np.sqrt(out, out=out)


def anchor_rows(labels, anchor_indices=None):
    """The per-step anchor set-up the batch layout replaced: anchors with a
    positive and a negative (pool order, duplicates kept) and their rows of
    the same-label/other-label masks."""
    same, other = label_masks(labels)
    n = len(labels)
    pool = np.arange(n) if anchor_indices is None else np.asarray(anchor_indices, dtype=np.int64)
    rows = pool[(same.any(axis=1) & other.any(axis=1))[pool]]
    return rows, same[rows], other[rows]


def kth_true(mask, k):
    """Column of the k[i]-th (0-based) True entry of each mask row, by
    cumsum: the form the layout's index tables replaced."""
    return np.count_nonzero(np.cumsum(mask, axis=-1) <= np.asarray(k)[..., None], axis=-1)


def pair_distances(emb, i, j):
    """Distances of gathered pairs by `np.linalg.norm`, and their unit
    directions (0 at or below TINY_DISTANCE)."""
    diff = emb[i] - emb[j]
    dist = np.linalg.norm(diff, axis=1)
    safe = np.where(dist > TINY_DISTANCE, dist, 1.0)
    direction = np.where((dist > TINY_DISTANCE)[:, None], diff / safe[:, None], 0.0)
    return dist, direction


def pair_hinge(embeddings, pairs: PairSet, offset, shift):
    """The pair hinge over every pair, inactive ones adding 0 * direction."""
    emb = np.asarray(embeddings, dtype=np.float64)
    grad = np.zeros_like(emb)
    if len(pairs) == 0:
        return LossOutput(0.0, grad, 0, beta_grad=0.0)
    i, j, pos = np.asarray(pairs.first), np.asarray(pairs.second), np.asarray(pairs.is_positive)
    dist, direction = pair_distances(emb, i, j)
    y = np.where(pos, 1.0, -1.0)
    terms = np.maximum(offset + y * (dist - shift), 0.0)
    active = terms > 0
    n_active = int(np.count_nonzero(active))
    denom = max(n_active, 1)
    coeff = np.where(active, y, 0.0) / denom
    np.add.at(grad, i, coeff[:, None] * direction)
    np.add.at(grad, j, -coeff[:, None] * direction)
    beta_grad = float(np.where(active, -y, 0.0).sum() / denom)
    return LossOutput(float(terms.sum() / denom), grad, n_active, beta_grad=beta_grad)


def triplet_loss(embeddings, triplets: TripletSet, margin):
    """The triplet hinge over every triplet, inactive ones adding 0 * direction."""
    emb = np.asarray(embeddings, dtype=np.float64)
    grad = np.zeros_like(emb)
    if len(triplets) == 0:
        return LossOutput(0.0, grad, 0)
    a, p, n = (np.asarray(triplets.anchors), np.asarray(triplets.positives),
               np.asarray(triplets.negatives))
    d_ap, dir_ap = pair_distances(emb, a, p)
    d_an, dir_an = pair_distances(emb, a, n)
    terms = np.maximum(d_ap - d_an + margin, 0.0)
    n_active = int(np.count_nonzero(terms > 0))
    denom = max(n_active, 1)
    coeff = (terms > 0).astype(np.float64) / denom
    np.add.at(grad, a, coeff[:, None] * (dir_ap - dir_an))
    np.add.at(grad, p, -coeff[:, None] * dir_ap)
    np.add.at(grad, n, coeff[:, None] * dir_an)
    return LossOutput(float(terms.sum() / denom), grad, n_active)


def check_labels(labels, n_classes):
    """Raise LabelOutOfRangeError naming the first label that is not an
    integer in [0, n_classes), one label at a time; a float or bool label
    fails before anything casts it."""
    for label in np.asarray(labels).ravel().tolist():
        if type(label) is not int:
            raise LabelOutOfRangeError(f"label {label!r} is not an integer class id")
        if not 0 <= label < n_classes:
            raise LabelOutOfRangeError(f"label {label} outside [0, {n_classes})")


def bank_enqueue(bank: TransformationBank, label, transform):
    """One ring write: the slot at the class cursor, then the cursor and the
    fill count move by one."""
    check_labels(label, bank.n_classes)
    c = int(label)
    bank.slots[c, bank.cursor[c]] = transform
    bank.cursor[c] = (bank.cursor[c] + 1) % bank.capacity
    bank.filled[c] = min(bank.filled[c] + 1, bank.capacity)


def bank_update(bank: TransformationBank, embeddings, labels):
    """v_i - v_j for every ordered pair i != j of each class group, one ring
    write per pair, class by class."""
    emb = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    labels = np.atleast_1d(np.asarray(labels))
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        if idx.size < 2:
            continue
        for i in idx:
            for j in idx:
                if i != j:
                    bank_enqueue(bank, c, emb[i] - emb[j])


def scaling_factor(mask_row, rs, rng):
    """Random scale on masked channels, exactly 1 elsewhere."""
    mask_row = np.asarray(mask_row, dtype=np.float64)
    gamma = rng.uniform(1.0 - rs, 1.0 + rs, size=mask_row.shape[0])
    return gamma * mask_row + (1.0 - mask_row)


def shifting_factor(bank: TransformationBank, label, rb, rng):
    """rb times a uniformly chosen filled slot of the class bank; zero while
    that bank is empty."""
    check_labels(label, bank.n_classes)
    c = int(label)
    if bank.filled[c] == 0:
        return np.zeros(bank.slots.shape[2])
    return rb * bank.slots[c, int(rng.integers(bank.filled[c]))]


def apply_factors(v, s, b):
    """normalize(s * v + b); raises ZeroNormError if the result degenerates."""
    u = s * np.asarray(v, dtype=np.float64) + b
    norm = float(np.linalg.norm(u))
    if norm <= ZERO_NORM_EPS:
        raise ZeroNormError(f"produced embedding collapsed (norm {norm:.3e})")
    return u / norm


def das_produce(v, label, mask_row, bank: TransformationBank, config: DasConfig, rng):
    """T (embedding, label) pairs produced around one anchor.

    Scaling and shifting factors are redrawn independently for every copy;
    copies whose pre-normalization output collapses are dropped.
    """
    out = []
    for _ in range(config.T):
        s = (scaling_factor(mask_row, config.rs, rng)
             if config.rs > 0 else np.ones_like(np.asarray(v, dtype=np.float64)))
        b = (shifting_factor(bank, label, config.rb, rng)
             if config.rb > 0 else np.zeros(len(v)))
        try:
            out.append((apply_factors(v, s, b), label))
        except ZeroNormError:
            continue
    return out


def replicated_produce(embeddings, labels, recorder, bank, config, rng, emit=lambda phase: None):
    """Term-duplicated baseline in place of `das.produce`: each anchor's row
    T times, anchor-major, with no draws and no recorder or bank update."""
    emb = np.asarray(embeddings, dtype=np.float64)
    rows = np.repeat(np.arange(emb.shape[0]), config.T)
    return ProducedBatch(emb[rows], np.asarray(labels)[rows], rows,
                         np.ones((rows.size, emb.shape[1])), np.ones(rows.size))


def replicated_backward(batch, grad_produced, n_anchors, dim):
    """Backward of `replicated_produce`: each copy's gradient added to its anchor."""
    out = np.zeros((n_anchors, dim))
    np.add.at(out, batch.anchor_rows, grad_produced)
    return out


def install_replicated_baseline(monkeypatch):
    """Make `training.train` run the term-duplicated baseline wherever it
    would run DAS production."""
    monkeypatch.setattr(training, "produce", replicated_produce)
    monkeypatch.setattr(training, "produced_backward", replicated_backward)


def draw_shifts(bank: TransformationBank, labels, rb, rng):
    """(len(labels), d) shifting factors, one `shifting_factor` call per row."""
    labels = np.atleast_1d(np.asarray(labels))
    shifts = np.zeros((len(labels), bank.slots.shape[2]))
    for row, c in enumerate(labels):
        shifts[row] = shifting_factor(bank, c, rb, rng)
    return shifts


def recall_at_k(embeddings, labels, ks):
    """Leave-one-out hit rate per k from one stable argsort per query over
    every point but the query, which is left out by its index."""
    emb = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    n = emb.shape[0]
    ks = sorted(int(k) for k in ks)
    dist = pairwise_distances(emb)
    hits = {k: 0 for k in ks}
    max_k = ks[-1]
    for i in range(n):
        others = np.delete(np.arange(n), i)
        order = others[np.argsort(dist[i, others], kind="stable")[:max_k]]
        same = labels[order] == labels[i]
        for k in ks:
            if same[:k].any():
                hits[k] += 1
    return {k: hits[k] / n for k in ks}


def recall_rank_count(embeddings, labels, ks):
    """Leave-one-out hit rate per k from every distance in the `np.sum` form,
    one row block at a time: the first same-label point's rank under
    (distance, index) is counted, not sorted.  The query is left out by its
    index; a query without a partner never hits."""
    x = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    n = len(labels)
    ranks = np.empty(n, dtype=np.int64)
    cols = np.arange(n)
    block = max(1, core.DISTANCE_BLOCK_BYTES // (8 * n))
    for start in range(0, n, block):
        d = distances(x[start : start + block], x)
        others = cols != cols[start : start + len(d), None]
        same = (labels[start : start + block, None] == labels[None, :]) & others
        d_pos = np.min(d, axis=1, where=same, initial=np.inf)[:, None]
        tied = (d == d_pos) & others
        first = np.argmax(tied & same, axis=1)[:, None]
        closer = np.count_nonzero((d < d_pos) & others, axis=1)
        tied_before = np.count_nonzero(tied & (cols < first), axis=1)
        ranks[start : start + block] = np.where(same.any(axis=1), closer + tied_before, n)
    return {k: int(np.count_nonzero(ranks < k)) / n for k in sorted(int(k) for k in ks)}


def kmeans(embeddings, k, rng, max_iter=100):
    """k-means++ seeding over the full n x j x d tensor for every new center,
    then Lloyd sweeps that gather each cluster with a boolean mask and sum
    its members one row at a time, in index order from +0.0; returns
    (assignment, centroids)."""
    x = np.asarray(embeddings, dtype=np.float64)
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[int(rng.integers(n))]
    for j in range(1, k):
        d2 = np.min(
            np.sum((x[:, None, :] - centers[None, :j, :]) ** 2, axis=-1), axis=1
        )
        total = d2.sum()
        probs = d2 / total if total > 0 else np.full(n, 1.0 / n)
        centers[j] = x[rng.choice(np.arange(n), p=probs)]

    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iter):
        d2 = np.sum((x[:, None, :] - centers[None, :, :]) ** 2, axis=-1)
        new_assign = np.argmin(d2, axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            members = x[assign == j]
            if len(members):
                total = np.zeros(x.shape[1])
                for row in members:
                    total += row
                centers[j] = total / len(members)
    return assign, centers


def as_vector(v):
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ShapeMismatchError(f"expected a 1-D vector, got shape {v.shape}")
    return v


def l2_normalize(v):
    """Scale `v` onto the unit sphere; raises ZeroNormError below the eps floor."""
    v = as_vector(v)
    norm = float(np.linalg.norm(v))
    if not np.isfinite(norm):
        raise ShapeMismatchError("non-finite entries in vector")
    if norm <= ZERO_NORM_EPS:
        raise ZeroNormError(f"cannot normalize vector with norm {norm:.3e}")
    return v / norm


def top_k_indices(v, k):
    """Indices of the K largest entries, ascending; ties go to the lower index."""
    v = as_vector(v)
    d = v.shape[0]
    if k < 1 or k > d:
        raise KOutOfRangeError(f"K={k} outside [1, {d}]")
    # stable sort on negated values keeps the lower index first among ties
    order = np.argsort(-v, kind="stable")[:k]
    return np.sort(order)


def identity_params(dim):
    """Single identity linear layer; encode() then reduces to l2 normalization."""
    return EncoderParams([dim, dim], "identity", np.append(np.eye(dim), np.zeros(dim)))


def with_theta(params, theta):
    """A record with `params`' sizes and activation holding `theta` instead."""
    return EncoderParams(params.layer_sizes, params.activation, theta)


def build_pairs(labels):
    """All unordered pairs (i < j) flagged positive when labels match."""
    labels = np.asarray(labels)
    n = len(labels)
    if n == 0:
        raise ShapeMismatchError("labels must be nonempty")
    i, j = np.triu_indices(n, k=1)
    return PairSet(i.astype(np.int64), j.astype(np.int64), labels[i] == labels[j])


# -- step forms: the numpy calls a training step made before it called
# numpy's underlying operations (see the module docstring)


def row_norms(x):
    """Each row's l2 norm by `np.linalg.norm`."""
    return np.linalg.norm(x, axis=1)


def combine_factors(embeddings, labels, anchors, scales, shifts):
    """normalize(s*v + b) per anchor row with `np.linalg.norm`, every field
    compacted by the kept-row mask, dropped rows or not."""
    emb = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    labels = np.atleast_1d(np.asarray(labels))
    anchors = np.asarray(anchors, dtype=np.int64)
    raw = scales * emb[anchors] + shifts
    norms = np.linalg.norm(raw, axis=1)
    keep = norms > ZERO_NORM_EPS
    inv = np.zeros_like(norms)
    inv[keep] = 1.0 / norms[keep]
    return ProducedBatch(raw[keep] * inv[keep][:, None], labels[anchors][keep], anchors[keep],
                         scales[keep], inv[keep], dropped=int(np.count_nonzero(~keep)))


def produced_backward(batch, grad_produced, n_anchors, dim):
    """The produced rows' gradients through the normalization (`np.sum`),
    added onto their anchors by one `np.add.at`."""
    g = np.asarray(grad_produced, dtype=np.float64)
    out = np.zeros((n_anchors, dim))
    if g.size == 0:
        return out
    vp = batch.embeddings
    through_norm = (g - np.sum(g * vp, axis=1, keepdims=True) * vp) * batch.inv_norms[:, None]
    np.add.at(out, batch.anchor_rows, batch.scales * through_norm)
    return out


def _directions(emb, i, j, dist):
    diff = emb[i] - emb[j]
    far = dist > TINY_DISTANCE
    return np.where(far[:, None], diff / np.where(far, dist, 1.0)[:, None], 0.0)


def triplet_loss_add_at(embeddings, triplets: TripletSet, margin, dist):
    """The triplet hinge on the distance matrix `dist`, active triplets only,
    each side of the gradient added by its own `np.add.at`: a, then p, then n."""
    emb = np.asarray(embeddings, dtype=np.float64)
    grad = np.zeros_like(emb)
    if len(triplets) == 0:
        return LossOutput(0.0, grad, 0)
    a, p, n = (np.asarray(triplets.anchors), np.asarray(triplets.positives),
               np.asarray(triplets.negatives))
    d_ap, d_an = dist[a, p], dist[a, n]
    terms = np.maximum(d_ap - d_an + margin, 0.0)
    active = terms > 0
    n_active = int(np.count_nonzero(active))
    denom = max(n_active, 1)
    a, p, n = a[active], p[active], n[active]
    coeff = np.full(n_active, 1.0 / denom)
    dir_ap = _directions(emb, a, p, d_ap[active])
    dir_an = _directions(emb, a, n, d_an[active])
    np.add.at(grad, a, coeff[:, None] * (dir_ap - dir_an))
    np.add.at(grad, p, -coeff[:, None] * dir_ap)
    np.add.at(grad, n, coeff[:, None] * dir_an)
    return LossOutput(float(terms.sum() / denom), grad, n_active)


def pair_hinge_add_at(embeddings, pairs: PairSet, offset, shift, dist):
    """The pair hinge on `dist`, active pairs only, the gradient added by
    two `np.add.at` calls: the first rows, then the second."""
    emb = np.asarray(embeddings, dtype=np.float64)
    grad = np.zeros_like(emb)
    if len(pairs) == 0:
        return LossOutput(0.0, grad, 0, beta_grad=0.0)
    i, j, pos = np.asarray(pairs.first), np.asarray(pairs.second), np.asarray(pairs.is_positive)
    d = dist[i, j]
    y = np.where(pos, 1.0, -1.0)
    terms = np.maximum(offset + y * (d - shift), 0.0)
    active = terms > 0
    n_active = int(np.count_nonzero(active))
    denom = max(n_active, 1)
    i, j, d, coeff = i[active], j[active], d[active], y[active] / denom
    direction = _directions(emb, i, j, d)
    np.add.at(grad, i, coeff[:, None] * direction)
    np.add.at(grad, j, -coeff[:, None] * direction)
    beta_grad = float(np.where(active, -y, 0.0).sum() / denom)
    return LossOutput(float(terms.sum() / denom), grad, n_active, beta_grad=beta_grad)


def optimizer_step(theta, grad, state: OptimizerState):
    """One update of the vector `theta` in place: slots from
    `setdefault(name, np.zeros_like(theta))` on every step, Adam's
    `(1 - beta2) * g * g` and `lr * m_hat / (sqrt(v_hat) + eps)`."""
    g = np.asarray(grad, dtype=np.float64)
    state.step_count += 1
    t = state.step_count
    if state.rule == "adam":
        m = state.slots.setdefault("m", np.zeros_like(theta))
        v = state.slots.setdefault("v", np.zeros_like(theta))
        m *= state.beta1
        m += (1 - state.beta1) * g
        v *= state.beta2
        v += (1 - state.beta2) * g * g
        m_hat = m / (1 - state.beta1**t)
        v_hat = v / (1 - state.beta2**t)
        theta -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    elif state.momentum > 0:
        buf = state.slots.setdefault("m", np.zeros_like(theta))
        buf *= state.momentum
        buf += g
        theta -= state.lr * buf
    else:
        theta -= state.lr * g
