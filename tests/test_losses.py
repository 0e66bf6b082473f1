import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densedml.core import SeededRng, pairwise_distances
from densedml.errors import ShapeMismatchError
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
import oracles
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
        out = contrastive_loss(emb, one_pair(True), 0.5, pairwise_distances(emb))
        assert out.value == 0.0
        assert np.all(out.grad == 0)

    def test_active_negative_pair(self):
        emb = np.array([[0.0, 0.0], [0.3, 0.0]])
        out = contrastive_loss(emb, one_pair(False), 0.5, pairwise_distances(emb))
        assert out.value == pytest.approx(0.2, abs=1e-12)
        # gradient pushes the two apart along (v_i - v_j) / D
        assert out.grad[0][0] > 0 and out.grad[1][0] < 0

    def test_matches_oracle_and_fd(self, rng):
        emb = random_unit_rows(rng, 4, 3)
        labels = np.array([0, 0, 1, 1])
        pairs = build_pairs(labels)
        out = contrastive_loss(emb, pairs, 0.5, pairwise_distances(emb))
        assert out.value == pytest.approx(oracle_contrastive(emb, pairs, 0.5), abs=1e-10)
        numeric = finite_difference(
            lambda th: oracle_contrastive(th.reshape(4, 3), pairs, 0.5), emb.ravel()
        )
        assert max_rel_error(out.grad.ravel(), numeric) < 1e-4

    def test_tiny_distance_gives_zero_gradient(self):
        emb = np.array([[0.1, 0.0], [0.1, 0.0]])
        out = contrastive_loss(emb, one_pair(False), 0.5, pairwise_distances(emb))
        assert out.value == pytest.approx(0.5)
        assert np.all(out.grad == 0)


class TestTriplet:
    def triplet(self):
        return TripletSet(np.array([0]), np.array([1]), np.array([2]))

    @pytest.mark.parametrize("index", [-1, 3])
    def test_index_outside_the_batch(self, index):
        emb = np.array([[0.0, 0.0], [0.2, 0.0], [0.6, 0.0]])
        with pytest.raises(ShapeMismatchError, match="index outside the batch"):
            triplet_loss(emb, TripletSet(np.array([0]), np.array([1]), np.array([index])), 0.2,
                         pairwise_distances(emb))

    @pytest.mark.parametrize("triple, pair", [
        (([0, 1], [1], [2, 2]), ([0, 1], [1])),  # ragged: lengths differ
        (([0, 1], [1, 2], [[2], [0]]), ([0, 1], [[2], [0]])),  # a column numpy would broadcast
        (([0.0], [1.0], [2.0]), ([0.0], [1.0])),  # floats
        (([True, False, False], [False, True, False], [False, False, True]),
         ([True, False, False], [False, True, False])),  # masks
    ])
    def test_indices_not_integer_vectors_of_one_length(self, triple, pair):
        emb = np.array([[0.0, 0.0], [0.2, 0.0], [0.6, 0.0]])
        dist = pairwise_distances(emb)
        with pytest.raises(ShapeMismatchError, match="integer vectors of one length"):
            triplet_loss(emb, TripletSet(*triple), 0.2, dist)
        pairs = PairSet(*pair, np.ones(len(pair[0]), dtype=bool))
        with pytest.raises(ShapeMismatchError, match="integer vectors of one length"):
            contrastive_loss(emb, pairs, 0.5, dist)
        with pytest.raises(ShapeMismatchError, match="integer vectors of one length"):
            margin_loss(emb, pairs, 0.2, 1.2, dist)

    @pytest.mark.parametrize("flags", [[True], [True, False, True]])
    def test_pair_flags_not_one_per_pair(self, flags):
        emb = np.array([[0.0, 0.0], [0.2, 0.0], [0.6, 0.0]])
        dist, pairs = pairwise_distances(emb), PairSet([0, 1], [1, 2], flags)
        message = rf"^pair flags \({len(flags)},\) != \(2,\)$"
        with pytest.raises(ShapeMismatchError, match=message):
            contrastive_loss(emb, pairs, 0.5, dist)
        with pytest.raises(ShapeMismatchError, match=message):
            margin_loss(emb, pairs, 0.2, 1.2, dist)

    def test_inactive_hinge(self):
        emb = np.array([[0.0, 0.0], [0.2, 0.0], [0.6, 0.0]])
        out = triplet_loss(emb, self.triplet(), 0.2, pairwise_distances(emb))
        assert out.value == 0.0 and out.active_count == 0

    def test_active_hinge_arithmetic(self):
        emb = np.array([[0.0, 0.0], [0.5, 0.0], [0.6, 0.0]])
        out = triplet_loss(emb, self.triplet(), 0.2, pairwise_distances(emb))
        assert out.value == pytest.approx(0.1, abs=1e-12)

    def test_eight_random_triplets_fd(self, rng):
        emb = random_unit_rows(rng, 6, 4)
        labels = np.array([0, 0, 0, 1, 1, 1])
        a = np.array([0, 0, 1, 2, 3, 3, 4, 5])
        p = np.array([1, 2, 0, 1, 4, 5, 3, 4])
        n = np.array([3, 4, 5, 3, 0, 1, 2, 0])
        trip = TripletSet(a, p, n)
        out = triplet_loss(emb, trip, 0.2, pairwise_distances(emb))
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
        v0 = triplet_loss(emb, base, 0.2, pairwise_distances(emb))
        assert v0.value > 0
        v1 = triplet_loss(emb, extra, 0.2, pairwise_distances(emb))
        assert v1.value == pytest.approx(v0.value, abs=1e-15)
        np.testing.assert_allclose(v1.grad, v0.grad, atol=1e-15)
        assert v1.active_count == v0.active_count == 1


class TestMargin:
    def test_positive_pair_at_boundary(self):
        beta, alpha = 1.2, 0.2
        emb = np.array([[0.0, 0.0], [beta, 0.0]])
        out = margin_loss(emb, one_pair(True), alpha, beta, pairwise_distances(emb))
        assert out.value == pytest.approx(alpha, abs=1e-12)

    def test_inactive_negative_pair(self):
        beta, alpha = 1.2, 0.2
        emb = np.array([[0.0, 0.0], [beta + alpha + 0.1, 0.0]])
        out = margin_loss(emb, one_pair(False), alpha, beta, pairwise_distances(emb))
        assert out.value == 0.0

    def test_mixed_batch_oracle_and_fd(self, rng):
        emb = random_unit_rows(rng, 4, 3)
        labels = np.array([0, 0, 1, 1])
        pairs = build_pairs(labels)
        alpha, beta = 0.2, 1.2
        out = margin_loss(emb, pairs, alpha, beta, pairwise_distances(emb))
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


class TestDistanceMatrixOracle:
    """Triplet, contrastive and margin losses on the batch's distance matrix
    against the norm-over-gathered-differences forms in oracles: value,
    grad, active_count and beta_grad, bit for bit."""

    @staticmethod
    def batch(seed, n, d, duplicates):
        rng = SeededRng(seed)
        emb = random_unit_rows(rng, n, d)
        if duplicates:  # D = 0 <= TINY_DISTANCE: zero direction
            emb[1] = emb[0]
            emb[n - 1] = emb[2]
        idx = lambda: rng.integers(n, size=3 * n)
        return emb, TripletSet(idx(), idx(), idx())

    @staticmethod
    def assert_same(got, want):
        assert got.value == want.value
        assert got.grad.tobytes() == want.grad.tobytes()
        assert got.active_count == want.active_count
        assert got.beta_grad == want.beta_grad

    def check(self, emb, trip, margin):
        pairs = trip.to_pairs()
        offset = np.where(pairs.is_positive, 0.0, margin)
        dist = pairwise_distances(emb)
        self.assert_same(triplet_loss(emb, trip, margin, dist),
                         oracles.triplet_loss(emb, trip, margin))
        self.assert_same(contrastive_loss(emb, pairs, margin, dist),
                         oracles.pair_hinge(emb, pairs, offset, 0.0))
        self.assert_same(margin_loss(emb, pairs, 0.2, margin, dist),
                         oracles.pair_hinge(emb, pairs, 0.2, margin))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=3, max_value=20),
           st.integers(min_value=1, max_value=8), st.booleans(),
           st.sampled_from([-10.0, 0.0, 0.05, 0.2, 1.2, 10.0]))
    def test_matches_norm_form(self, seed, n, d, duplicates, margin):
        # margin -10: nothing active; 10: everything active (contrastive and
        # margin keep their positive pairs active at any margin)
        emb, trip = self.batch(seed, n, d, duplicates)
        self.check(emb, trip, margin)

    @pytest.mark.parametrize("margin, active", [(-10.0, 0), (10.0, 12)])
    def test_all_inactive_and_all_active(self, margin, active):
        emb, trip = self.batch(3, 4, 5, duplicates=True)
        assert triplet_loss(emb, trip, margin, pairwise_distances(emb)).active_count == active
        self.check(emb, trip, margin)

    def test_empty_sets(self):
        emb = random_unit_rows(SeededRng(0), 4, 3)
        trip = TripletSet(*(np.zeros(0, dtype=np.int64),) * 3)
        self.check(emb, trip, 0.2)

    def test_wrong_matrix_shape_raises(self):
        emb, trip = self.batch(0, 5, 3, duplicates=False)
        with pytest.raises(ShapeMismatchError, match=r"^distance matrix \(4, 4\) != \(5, 5\)$"):
            triplet_loss(emb, trip, 0.2, np.zeros((4, 4)))
        with pytest.raises(ShapeMismatchError, match=r"^distance matrix \(5, 4\) != \(5, 5\)$"):
            margin_loss(emb, trip.to_pairs(), 0.2, 1.2, np.zeros((5, 4)))

    def test_non_finite_rows_without_a_matrix_raise(self):
        # non-finite rows get no distance matrix: pairwise_distances raises
        # before a loss reads one, and a loss handed none raises too
        emb, trip = self.batch(0, 5, 3, duplicates=False)
        emb[2, 1] = np.nan
        with pytest.raises(ShapeMismatchError, match="non-finite"):
            triplet_loss(emb, trip, 0.2, pairwise_distances(emb))
        with pytest.raises(ShapeMismatchError, match="non-finite"):
            contrastive_loss(emb, trip.to_pairs(), 0.2, pairwise_distances(emb))
        with pytest.raises(ShapeMismatchError, match=r"^distance matrix \(\) != \(5, 5\)$"):
            triplet_loss(emb, trip, 0.2, None)


class TestMultiSimilarity:
    def spec(self):
        return LossSpec(kind="ms", ms_alpha=2.0, ms_beta=50.0, ms_base=1.0, ms_eps=0.1)

    def test_label_length_mismatch(self):
        with pytest.raises(ShapeMismatchError, match="labels length"):
            multi_similarity_loss(np.eye(3), [0, 0], self.spec())

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


@st.composite
def ms_batches(draw):
    """Unit rows with optional duplicates and labels that may hold one class,
    anchors without a positive, or both."""
    n = draw(st.integers(min_value=0, max_value=16))
    labels = np.array(draw(st.lists(st.integers(0, draw(st.integers(0, 3))),
                                    min_size=n, max_size=n)), dtype=np.int64)
    r = SeededRng(draw(st.integers(min_value=0, max_value=2**31)))
    emb = random_unit_rows(r, n, 3) if n else np.zeros((0, 3))
    if n and draw(st.booleans()):
        emb = emb[r.integers(n, size=n)]  # duplicate embeddings
    return emb, labels


class TestMultiSimilarityOracle:
    """The loop-free loss against the per-anchor loop it replaced, bit for bit."""

    @staticmethod
    def assert_same(emb, labels, spec):
        got = multi_similarity_loss(emb, labels, spec)
        want = oracles.multi_similarity_loss(emb, labels, spec)
        assert got.value == want.value
        np.testing.assert_array_equal(got.grad, want.grad)
        np.testing.assert_array_equal(got.active_count, want.active_count)
        return got

    @settings(max_examples=200, deadline=None)
    @given(ms_batches(), st.sampled_from([0.0, 0.1, 0.5]), st.sampled_from([2.0, 50.0]))
    def test_matches_per_anchor_loop(self, batch, eps, beta):
        emb, labels = batch
        self.assert_same(emb, labels, LossSpec(kind="ms", ms_beta=beta, ms_eps=eps))

    def test_single_class_mines_every_positive(self, rng):
        # no negatives: min_neg is -inf, so every positive is mined
        emb = random_unit_rows(rng, 5, 3)
        out = self.assert_same(emb, np.zeros(5, dtype=np.int64), LossSpec(kind="ms"))
        assert out.active_count == 5

    def test_anchors_without_positive(self, rng):
        emb = random_unit_rows(rng, 5, 3)
        out = self.assert_same(emb, np.array([0, 1, 1, 2, 3]), LossSpec(kind="ms"))
        assert out.active_count <= 2

    def test_duplicate_embeddings_at_eps_zero(self, rng):
        emb = random_unit_rows(rng, 3, 3)[[0, 0, 1, 1, 2, 2]]
        self.assert_same(emb, np.array([0, 1, 0, 1, 2, 2]), LossSpec(kind="ms", ms_eps=0.0))


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
            lambda e, p: contrastive_loss(e, p, 0.5, pairwise_distances(e)),
            lambda e, p: margin_loss(e, p, 0.2, 1.2, pairwise_distances(e)),
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
        dist = pairwise_distances(emb)
        assert contrastive_loss(emb, pairs, 0.5, dist).value >= 0
        assert triplet_loss(emb, trip, 0.2, dist).value >= 0
        assert margin_loss(emb, pairs, 0.2, 1.2, dist).value >= 0
        assert multi_similarity_loss(emb, labels, LossSpec(kind="ms")).value >= 0


class TestUnconvertibleInput:
    """Each loss converts its arrays at its boundary: what numpy cannot
    convert, or would cast with a warning, is a ShapeMismatchError."""

    emb = np.array([[0.0, 0.0], [0.2, 0.0], [0.6, 0.0], [0.0, 0.5]])
    trip = TripletSet(np.array([0]), np.array([1]), np.array([2]))

    def test_complex_embeddings(self):
        # numpy dropped the imaginary part with only a ComplexWarning
        dist = pairwise_distances(self.emb)
        with pytest.raises(ShapeMismatchError, match="complex input"):
            triplet_loss(self.emb + 1j, self.trip, 0.2, dist)
        with pytest.raises(ShapeMismatchError, match="complex input"):
            multi_similarity_loss(self.emb + 1j, [0, 0, 1, 1], LossSpec(kind="ms"))

    @pytest.mark.parametrize("emb", [[[0.0, 0.0], [0.2]], [["a", "b"]] * 4])
    def test_ragged_or_string_embeddings(self, emb):
        # numpy's ValueError escaped
        dist = pairwise_distances(self.emb)
        with pytest.raises(ShapeMismatchError, match="not a 2-D numeric array"):
            triplet_loss(emb, self.trip, 0.2, dist)
        with pytest.raises(ShapeMismatchError, match="not a 2-D numeric array"):
            contrastive_loss(emb, self.trip.to_pairs(), 0.5, dist)

    def test_ragged_distance_matrix(self):
        ragged = [[0.0, 1.0, 1.0, 1.0]] * 3 + [[1.0]]
        with pytest.raises(ShapeMismatchError, match="not a 2-D numeric array"):
            triplet_loss(self.emb, self.trip, 0.2, ragged)
        with pytest.raises(ShapeMismatchError, match="complex input"):
            margin_loss(self.emb, self.trip.to_pairs(), 0.2, 1.2,
                        pairwise_distances(self.emb) + 1j)

    def test_multi_similarity_shapes(self):
        # a vector reached numpy's AxisError, labels (4, 1) its ValueError
        spec = LossSpec(kind="ms")
        with pytest.raises(ShapeMismatchError, match="labels length"):
            multi_similarity_loss(np.ones(4), [0, 0, 1, 1], spec)
        with pytest.raises(ShapeMismatchError, match="expected a 1-D array"):
            multi_similarity_loss(self.emb, np.array([[0], [0], [1], [1]]), spec)

    def test_ragged_pair_flags(self):
        # np.where's ValueError escaped
        pairs = PairSet(np.array([0, 1]), np.array([1, 2]), [[True], [True, False]])
        with pytest.raises(ShapeMismatchError, match="not a 1-D numeric array"):
            contrastive_loss(self.emb, pairs, 0.5, pairwise_distances(self.emb))

    @pytest.mark.parametrize("index", [np.int64(0), 0])
    def test_scalar_indices(self, index):
        # len() of a scalar raised TypeError before any check
        pairs = PairSet(index, index, True)
        with pytest.raises(ShapeMismatchError, match="integer vectors of one length"):
            margin_loss(self.emb, pairs, 0.2, 1.2, pairwise_distances(self.emb))
        with pytest.raises(ShapeMismatchError, match="integer vectors of one length"):
            triplet_loss(self.emb, TripletSet(index, index, index), 0.2,
                         pairwise_distances(self.emb))
