import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densedml.core import SeededRng
from densedml.losses import (
    LossSpec,
    PairSet,
    TripletSet,
    contrastive_loss,
    margin_loss,
    multi_similarity_loss,
    triplet_loss,
)
from conftest import finite_difference, max_rel_error, random_unit_rows
from oracles import build_pairs


# --- independent scalar-loop oracles -------------------------------------


def _dist(emb, i, j):
    return math.sqrt(sum((emb[i][k] - emb[j][k]) ** 2 for k in range(len(emb[i]))))


def oracle_contrastive(emb, pairs, margin):
    terms = []
    for i, j, pos in zip(pairs.first, pairs.second, pairs.is_positive):
        d = _dist(emb, i, j)
        terms.append(d if pos else max(margin - d, 0.0))
    active = sum(1 for t in terms if t > 0)
    return sum(terms) / max(active, 1)


def oracle_triplet(emb, triplets, margin):
    terms = []
    for a, p, n in zip(triplets.anchors, triplets.positives, triplets.negatives):
        terms.append(max(_dist(emb, a, p) - _dist(emb, a, n) + margin, 0.0))
    active = sum(1 for t in terms if t > 0)
    return sum(terms) / max(active, 1)


def oracle_margin(emb, pairs, alpha, beta):
    terms = []
    for i, j, pos in zip(pairs.first, pairs.second, pairs.is_positive):
        y = 1.0 if pos else -1.0
        terms.append(max(alpha + y * (_dist(emb, i, j) - beta), 0.0))
    active = sum(1 for t in terms if t > 0)
    return sum(terms) / max(active, 1)


def oracle_ms(emb, labels, spec):
    emb = np.asarray(emb)
    n = len(labels)
    terms = []
    for i in range(n):
        pos = [j for j in range(n) if j != i and labels[j] == labels[i]]
        neg = [j for j in range(n) if labels[j] != labels[i]]
        if not pos:
            continue
        sims = {j: float(np.dot(emb[i], emb[j])) for j in range(n)}
        min_neg = min((sims[j] for j in neg), default=-math.inf)
        max_pos = max(sims[j] for j in pos)
        mined_pos = [j for j in pos if sims[j] > min_neg - spec.ms_eps]
        mined_neg = [j for j in neg if sims[j] < max_pos + spec.ms_eps]
        term = 0.0
        if mined_pos:
            term += (
                math.log(1 + sum(math.exp(-spec.ms_alpha * (sims[j] - spec.ms_base))
                                 for j in mined_pos))
                / spec.ms_alpha
            )
        if mined_neg:
            term += (
                math.log(1 + sum(math.exp(spec.ms_beta * (sims[j] - spec.ms_base))
                                 for j in mined_neg))
                / spec.ms_beta
            )
        if term > 0:
            terms.append(term)
    return sum(terms) / max(len(terms), 1)


def one_pair(positive):
    return PairSet(np.array([0]), np.array([1]), np.array([positive]))


class TestContrastive:
    def test_identical_positive_pair_zero(self):
        emb = np.array([[0.6, 0.8], [0.6, 0.8]])
        out = contrastive_loss(emb, one_pair(True), 0.5)
        assert out.value == 0.0
        assert np.all(out.grad == 0)

    def test_active_negative_pair(self):
        emb = np.array([[0.0, 0.0], [0.3, 0.0]])
        out = contrastive_loss(emb, one_pair(False), 0.5)
        assert out.value == pytest.approx(0.2, abs=1e-12)
        # gradient pushes the two apart along (v_i - v_j) / D
        assert out.grad[0][0] > 0 and out.grad[1][0] < 0

    def test_matches_oracle_and_fd(self, rng):
        emb = random_unit_rows(rng, 4, 3)
        labels = np.array([0, 0, 1, 1])
        pairs = build_pairs(labels)
        out = contrastive_loss(emb, pairs, 0.5)
        assert out.value == pytest.approx(oracle_contrastive(emb, pairs, 0.5), abs=1e-10)
        numeric = finite_difference(
            lambda th: oracle_contrastive(th.reshape(4, 3), pairs, 0.5), emb.ravel()
        )
        assert max_rel_error(out.grad.ravel(), numeric) < 1e-4

    def test_tiny_distance_gives_zero_gradient(self):
        emb = np.array([[0.1, 0.0], [0.1, 0.0]])
        out = contrastive_loss(emb, one_pair(False), 0.5)
        assert out.value == pytest.approx(0.5)
        assert np.all(out.grad == 0)


class TestTriplet:
    def triplet(self):
        return TripletSet(np.array([0]), np.array([1]), np.array([2]))

    def test_inactive_hinge(self):
        emb = np.array([[0.0, 0.0], [0.2, 0.0], [0.6, 0.0]])
        out = triplet_loss(emb, self.triplet(), 0.2)
        assert out.value == 0.0 and out.active_count == 0

    def test_active_hinge_arithmetic(self):
        emb = np.array([[0.0, 0.0], [0.5, 0.0], [0.6, 0.0]])
        out = triplet_loss(emb, self.triplet(), 0.2)
        assert out.value == pytest.approx(0.1, abs=1e-12)

    def test_eight_random_triplets_fd(self, rng):
        emb = random_unit_rows(rng, 6, 4)
        labels = np.array([0, 0, 0, 1, 1, 1])
        a = np.array([0, 0, 1, 2, 3, 3, 4, 5])
        p = np.array([1, 2, 0, 1, 4, 5, 3, 4])
        n = np.array([3, 4, 5, 3, 0, 1, 2, 0])
        trip = TripletSet(a, p, n)
        out = triplet_loss(emb, trip, 0.2)
        assert out.value == pytest.approx(oracle_triplet(emb, trip, 0.2), abs=1e-10)
        numeric = finite_difference(
            lambda th: oracle_triplet(th.reshape(6, 4), trip, 0.2), emb.ravel()
        )
        assert max_rel_error(out.grad.ravel(), numeric) < 1e-4

    def test_duplicated_inactive_triplet_changes_nothing(self):
        emb = np.array(
            [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        )
        # (2,3,0) is active: D_ap = D_an = sqrt(2), hinge = margin > 0
        base = TripletSet(np.array([2]), np.array([3]), np.array([0]))
        # (0,1,2) is inactive: D_ap = 0, D_an = sqrt(2)
        extra = TripletSet(np.array([2, 0]), np.array([3, 1]), np.array([0, 2]))
        v0 = triplet_loss(emb, base, 0.2)
        assert v0.value > 0
        v1 = triplet_loss(emb, extra, 0.2)
        assert v1.value == pytest.approx(v0.value, abs=1e-15)
        np.testing.assert_allclose(v1.grad, v0.grad, atol=1e-15)
        assert v1.active_count == v0.active_count == 1


class TestMargin:
    def test_positive_pair_at_boundary(self):
        beta, alpha = 1.2, 0.2
        emb = np.array([[0.0, 0.0], [beta, 0.0]])
        out = margin_loss(emb, one_pair(True), alpha, beta)
        assert out.value == pytest.approx(alpha, abs=1e-12)

    def test_inactive_negative_pair(self):
        beta, alpha = 1.2, 0.2
        emb = np.array([[0.0, 0.0], [beta + alpha + 0.1, 0.0]])
        out = margin_loss(emb, one_pair(False), alpha, beta)
        assert out.value == 0.0

    def test_mixed_batch_oracle_and_fd(self, rng):
        emb = random_unit_rows(rng, 4, 3)
        labels = np.array([0, 0, 1, 1])
        pairs = build_pairs(labels)
        alpha, beta = 0.2, 1.2
        out = margin_loss(emb, pairs, alpha, beta)
        assert out.value == pytest.approx(oracle_margin(emb, pairs, alpha, beta), abs=1e-10)
        numeric = finite_difference(
            lambda th: oracle_margin(th.reshape(4, 3), pairs, alpha, beta), emb.ravel()
        )
        assert max_rel_error(out.grad.ravel(), numeric) < 1e-4
        beta_fd = (
            oracle_margin(emb, pairs, alpha, beta + 1e-5)
            - oracle_margin(emb, pairs, alpha, beta - 1e-5)
        ) / 2e-5
        assert max_rel_error([out.beta_grad], [beta_fd]) < 1e-4


class TestMultiSimilarity:
    def spec(self):
        return LossSpec(kind="ms", ms_alpha=2.0, ms_beta=50.0, ms_base=1.0, ms_eps=0.1)

    def test_all_mined_sets_empty(self):
        # inverted geometry: positives antipodal, negatives orthogonal
        emb = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        labels = np.array([0, 0, 1, 1])
        out = multi_similarity_loss(emb, labels, self.spec())
        assert out.value == 0.0
        assert np.all(out.grad == 0)
        assert out.active_count == 0

    def test_single_positive_at_base(self):
        emb = np.array([[1.0, 0.0], [1.0, 0.0]])
        labels = np.array([0, 0])
        out = multi_similarity_loss(emb, labels, self.spec())
        assert out.value == pytest.approx(math.log(2.0) / 2.0, abs=1e-12)

    def test_two_class_batch_oracle_and_fd(self, rng):
        emb = random_unit_rows(rng, 4, 3)
        labels = np.array([0, 0, 1, 1])
        spec = self.spec()
        out = multi_similarity_loss(emb, labels, spec)
        assert out.value == pytest.approx(oracle_ms(emb, labels, spec), abs=1e-8)
        numeric = finite_difference(
            lambda th: oracle_ms(th.reshape(4, 3), labels, spec), emb.ravel()
        )
        assert max_rel_error(out.grad.ravel(), numeric) < 1e-4

    def test_anchor_without_positive_skipped(self, rng):
        emb = random_unit_rows(rng, 3, 3)
        labels = np.array([0, 1, 1])
        out = multi_similarity_loss(emb, labels, self.spec())
        assert math.isfinite(out.value)


class TestSharedProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_permutation_equivariance(self, seed):
        r = SeededRng(seed)
        emb = random_unit_rows(r, 6, 4)
        labels = np.array([0, 0, 0, 1, 1, 2])
        perm = r.permutation(6)
        inv = np.argsort(perm)
        pairs = build_pairs(labels)
        perm_pairs = PairSet(inv[pairs.first], inv[pairs.second], pairs.is_positive)

        for fn in (
            lambda e, p: contrastive_loss(e, p, 0.5),
            lambda e, p: margin_loss(e, p, 0.2, 1.2),
        ):
            base = fn(emb, pairs)
            permuted = fn(emb[perm], perm_pairs)
            assert permuted.value == pytest.approx(base.value, abs=1e-12)
            np.testing.assert_allclose(permuted.grad, base.grad[perm], atol=1e-12)

        spec = LossSpec(kind="ms")
        base = multi_similarity_loss(emb, labels, spec)
        permuted = multi_similarity_loss(emb[perm], labels[perm], spec)
        assert permuted.value == pytest.approx(base.value, abs=1e-12)
        np.testing.assert_allclose(permuted.grad, base.grad[perm], atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_values_nonnegative(self, seed):
        r = SeededRng(seed)
        emb = random_unit_rows(r, 5, 3)
        labels = np.array([0, 0, 1, 1, 1])
        pairs = build_pairs(labels)
        trip = TripletSet(np.array([0, 2]), np.array([1, 3]), np.array([2, 0]))
        assert contrastive_loss(emb, pairs, 0.5).value >= 0
        assert triplet_loss(emb, trip, 0.2).value >= 0
        assert margin_loss(emb, pairs, 0.2, 1.2).value >= 0
        assert multi_similarity_loss(emb, labels, LossSpec(kind="ms")).value >= 0
