"""Pair-based metric-learning losses with analytic embedding gradients.

All losses return the mean over their active (nonzero) terms, so the learning
rate does not scale with how many pairs/triplets a batch yields and terms that
sit outside their hinge contribute nothing at all.  Distance derivatives
at D -> 0 are set to zero (subgradient choice) so duplicated embeddings never
produce a division blow-up.  Multi-similarity operates on cosine similarity;
the other three on l2 distance, read from the batch's distance matrix that the
caller passes (a training step computes one for its sampler and its loss).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_labels, as_ndim, distance_matrix, index_rows, label_masks, scatter_rows
from .errors import ConfigError, ShapeMismatchError

TINY_DISTANCE = 1e-9

LOSS_KINDS = ("contrastive", "triplet", "margin", "ms")


@dataclass(frozen=True)
class PairSet:
    """Index pairs (i, j) with a positive/negative flag."""

    first: np.ndarray
    second: np.ndarray
    is_positive: np.ndarray

    def __len__(self):
        return len(self.first)


@dataclass(frozen=True)
class TripletSet:
    """(anchor, positive, negative) index triples."""

    anchors: np.ndarray
    positives: np.ndarray
    negatives: np.ndarray

    def __len__(self):
        return len(self.anchors)

    def to_pairs(self) -> PairSet:
        """Each triplet contributes its (a,p) positive and (a,n) negative pair."""
        first = np.concatenate([self.anchors, self.anchors])
        second = np.concatenate([self.positives, self.negatives])
        flags = np.concatenate(
            [np.ones(len(self), dtype=bool), np.zeros(len(self), dtype=bool)]
        )
        return PairSet(first, second, flags)


@dataclass
class LossSpec:
    """Loss selection plus every margin/weight knob in one place."""

    kind: str = "triplet"
    contrastive_margin: float = 0.5
    triplet_margin: float = 0.2
    margin_alpha: float = 0.2
    margin_beta: float = 1.2  # initial value of the learnable boundary
    beta_lr: float | None = None  # None -> use the optimizer learning rate
    ms_alpha: float = 2.0
    ms_beta: float = 50.0
    ms_base: float = 1.0
    ms_eps: float = 0.1

    def validate(self):
        if self.kind not in LOSS_KINDS:
            raise ConfigError(f"loss.kind must be one of {LOSS_KINDS}, got {self.kind!r}")
        for name in ("contrastive_margin", "triplet_margin", "margin_alpha",
                     "margin_beta", "ms_alpha", "ms_beta"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"loss.{name} must be positive")
        if self.beta_lr is not None and self.beta_lr <= 0:
            raise ConfigError("loss.beta_lr must be positive when set")


@dataclass
class LossOutput:
    value: float
    grad: np.ndarray  # same shape as the embedding batch
    active_count: int
    beta_grad: float | None = None  # d(value)/d(shift); contrastive and margin fill it


def _directions(emb, i, j, dist):
    """Unit vectors (emb[i] - emb[j]) / dist, 0 where dist <= TINY_DISTANCE
    (the zero-distance subgradient convention)."""
    diff = emb[i] - emb[j]
    far = dist > TINY_DISTANCE
    safe = np.where(far, dist, 1.0)
    return np.where(far[:, None], diff / safe[:, None], 0.0)


def _pair_hinge(embeddings, pairs: PairSet, offset, shift, dist) -> LossOutput:
    """Mean hinge [offset + y_ij (D_ij - shift)]_+ over the active pairs.

    y_ij is +1 for positive and -1 for negative pairs; `offset` is a scalar
    or one value per pair, and beta_grad carries d(value)/d(shift).  D comes
    from `dist`, the batch's distance matrix.
    Only active pairs get a gradient: an inactive one would add 0.0 times its
    direction, ±0.0, which leaves a gradient that starts at +0.0 unchanged.
    """
    emb = as_ndim(embeddings, 2, np.float64)
    i, j = index_rows(emb.shape[0], pairs.first, pairs.second)
    pos = as_ndim(pairs.is_positive, 1)
    if pos.shape != i.shape:
        raise ShapeMismatchError(f"pair flags {pos.shape} must be one per pair, {i.shape}")
    d = distance_matrix(dist, emb.shape[0], "embeddings")[i, j]
    y = np.where(pos, 1.0, -1.0)

    terms = np.maximum(offset + y * (d - shift), 0.0)
    active = terms > 0
    n_active = int(np.count_nonzero(active))
    denom = max(n_active, 1)
    i, j, d, coeff = i[active], j[active], d[active], y[active] / denom
    direction = _directions(emb, i, j, d)
    grad = scatter_rows(np.concatenate([i, j]), np.concatenate(
        [coeff[:, None] * direction, -coeff[:, None] * direction]), emb.shape[0])
    beta_grad = float(np.where(active, -y, 0.0).sum() / denom)
    return LossOutput(float(terms.sum() / denom), grad, n_active, beta_grad=beta_grad)


def contrastive_loss(embeddings, pairs: PairSet, margin: float, dist) -> LossOutput:
    """Mean of D_ij over positives and hinge [margin - D_ij]_+ over negatives:
    the pair hinge with offset 0 on positives, `margin` on negatives, shift 0."""
    offset = np.where(as_ndim(pairs.is_positive, 1), 0.0, margin)
    return _pair_hinge(embeddings, pairs, offset, 0.0, dist)


def triplet_loss(embeddings, triplets: TripletSet, margin: float, dist) -> LossOutput:
    """Mean hinge [D_ap - D_an + margin]_+ over the given triplets, with D
    from `dist` as in the pair hinge (active triplets only get a gradient,
    for the same reason)."""
    emb = as_ndim(embeddings, 2, np.float64)
    a, p, n = index_rows(emb.shape[0], triplets.anchors, triplets.positives,
                         triplets.negatives)
    dist = distance_matrix(dist, emb.shape[0], "embeddings")
    d_ap, d_an = dist[a, p], dist[a, n]

    terms = np.maximum(d_ap - d_an + margin, 0.0)
    active = terms > 0
    a, p, n = a[active], p[active], n[active]
    n_active = len(a)
    denom = max(n_active, 1)
    coeff = 1.0 / denom  # every active triplet's weight
    dir_ap = _directions(emb, a, p, d_ap[active])
    dir_an = _directions(emb, a, n, d_an[active])
    grad = scatter_rows(np.concatenate([a, p, n]), np.concatenate(
        [coeff * (dir_ap - dir_an), -coeff * dir_ap, coeff * dir_an]), emb.shape[0])
    return LossOutput(float(terms.sum() / denom), grad, n_active)


def margin_loss(embeddings, pairs: PairSet, alpha: float, beta: float, dist) -> LossOutput:
    """Mean hinge [alpha + y_ij (D_ij - beta)]_+ with learnable boundary beta."""
    return _pair_hinge(embeddings, pairs, alpha, beta, dist)


def multi_similarity_loss(embeddings, labels, spec: LossSpec) -> LossOutput:
    """Soft-weighted positive/negative terms on cosine similarity.

    Per anchor i the mined positive set is {j : S_ij > min_neg - eps} and the
    mined negative set is {j : S_ij < max_pos + eps}; anchors with no positive
    in the batch are skipped.  Value is the mean over contributing anchors of

        log(1 + sum_pos exp(-alpha (S_ij - base))) / alpha
      + log(1 + sum_neg exp( beta (S_ij - base))) / beta
    """
    emb = as_ndim(embeddings, 2, np.float64)
    labels = as_labels(labels, emb.shape[0])
    grad = np.zeros_like(emb)
    sims = emb @ emb.T
    same, other = label_masks(labels)

    alpha, beta, base, eps = spec.ms_alpha, spec.ms_beta, spec.ms_base, spec.ms_eps
    # a row without negatives mines every positive; a row without positives
    # has max_pos = -inf, so it mines nothing and its term is exactly 0
    min_neg = np.where(other.any(axis=1),
                       np.min(sims, axis=1, where=other, initial=np.inf), -np.inf)
    max_pos = np.max(sims, axis=1, where=same, initial=-np.inf)
    mined_pos = same & (sims > (min_neg - eps)[:, None])
    mined_neg = other & (sims < (max_pos + eps)[:, None])
    # -inf pads the unmined columns: logaddexp(acc, -inf) == acc exactly, so
    # each row reduces to the log-sum-exp over its mined entries and the +1 term
    x_pos = np.where(mined_pos, -alpha * (sims - base), -np.inf)
    x_neg = np.where(mined_neg, beta * (sims - base), -np.inf)
    lse_pos = np.logaddexp.reduce(x_pos, axis=1, initial=0.0)
    lse_neg = np.logaddexp.reduce(x_neg, axis=1, initial=0.0)
    terms = lse_pos / alpha + lse_neg / beta
    active = int(np.count_nonzero(terms > 0))
    if active == 0:
        return LossOutput(0.0, grad, 0)
    # dL/dS before the 1/m normalization: softmax-style weights against the
    # implicit +1 term (exp(-inf) leaves +0.0 off the mined entries)
    sim_grad = np.where(mined_pos, -np.exp(x_pos - lse_pos[:, None]),
                        np.exp(x_neg - lse_neg[:, None]))
    sim_grad /= active
    # S_ij = v_i . v_j  =>  dL/dv_i += sum_j w_ij v_j ; dL/dv_j += w_ij v_i
    grad += sim_grad @ emb
    grad += sim_grad.T @ emb
    # a running sum in anchor order (not np.sum's pairwise order) gives the
    # per-anchor loop's total bit for bit
    return LossOutput(float(np.add.accumulate(terms)[-1] / active), grad, active)
