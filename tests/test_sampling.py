import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densedml.core import SeededRng, pairwise_distances
from densedml.data import Dataset
from densedml.errors import NotEnoughClassesError, NoValidTripletError, ShapeMismatchError
from densedml.sampling import (
    BatchSpec,
    distance_weights,
    sample_batch,
    sample_distance_weighted,
    sample_random_triplets,
    sample_semihard_triplets,
    sample_softhard_triplets,
    sample_triplets,
)

import oracles
from oracles import build_pairs


def line_points(positions):
    """1-D embeddings whose pairwise distances are |x_i - x_j|."""
    return np.asarray(positions, dtype=np.float64).reshape(-1, 1)


def four_class_dataset():
    feats = np.arange(16, dtype=np.float64).reshape(8, 2)
    labels = np.array([0, 0, 1, 1, 2, 2, 3, 3])
    return Dataset(feats, labels, (0, 1, 2, 3), ())


class TestSampleBatch:
    def test_structure(self):
        ds = four_class_dataset()
        x, y = sample_batch(ds, BatchSpec(2, 2), SeededRng(0))
        assert x.shape == (4, 2)
        values, counts = np.unique(y, return_counts=True)
        assert len(values) == 2 and all(counts == 2)
        # class-contiguous ordering
        assert y[0] == y[1] and y[2] == y[3]

    def test_not_enough_classes(self):
        with pytest.raises(NotEnoughClassesError):
            sample_batch(four_class_dataset(), BatchSpec(5, 2), SeededRng(0))

    def test_replacement_for_small_class(self):
        feats = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        ds = Dataset(feats, np.array([0, 1, 1]), (0, 1), ())
        x, y = sample_batch(ds, BatchSpec(2, 2), SeededRng(3))
        rows_class0 = x[y == 0]
        np.testing.assert_array_equal(rows_class0[0], rows_class0[1])

    def test_deterministic(self):
        ds = four_class_dataset()
        a = sample_batch(ds, BatchSpec(3, 2), SeededRng(11))
        b = sample_batch(ds, BatchSpec(3, 2), SeededRng(11))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestRandomTriplets:
    def test_constraints_hold(self):
        labels = np.array([0, 0, 1, 1])
        trip = sample_random_triplets(labels, 4, SeededRng(0))
        assert len(trip) == 4
        for a, p, n in zip(trip.anchors, trip.positives, trip.negatives):
            assert labels[a] == labels[p] and a != p
            assert labels[a] != labels[n]

    def test_no_valid_triplet(self):
        with pytest.raises(NoValidTripletError):
            sample_random_triplets(np.array([0, 1]), 2, SeededRng(0))

    def test_seeded_determinism(self):
        labels = np.array([0, 0, 1, 1, 2])
        a = sample_random_triplets(labels, 6, SeededRng(42))
        b = sample_random_triplets(labels, 6, SeededRng(42))
        np.testing.assert_array_equal(a.anchors, b.anchors)
        np.testing.assert_array_equal(a.positives, b.positives)
        np.testing.assert_array_equal(a.negatives, b.negatives)


class TestSemihard:
    def test_window_pick(self):
        # anchor 0, positive 1 at 0.4; negatives at 0.3 / 0.5 / 0.9
        emb = line_points([0.0, 0.4, -0.3, 0.5, 0.9])
        labels = np.array([0, 0, 1, 1, 1])
        dist = pairwise_distances(emb)
        trip = sample_semihard_triplets(dist, labels, 0.2, SeededRng(0), anchor_indices=[0])
        assert list(trip.anchors) == [0] and list(trip.positives) == [1]
        assert list(trip.negatives) == [3]

    def test_hardest_farther_fallback(self):
        # window (0.4, 0.6) empty; negatives strictly farther: hardest is 0.9
        emb = line_points([0.0, 0.4, -0.9, 1.2])
        labels = np.array([0, 0, 1, 1])
        dist = pairwise_distances(emb)
        trip = sample_semihard_triplets(dist, labels, 0.2, SeededRng(0), anchor_indices=[0])
        assert list(trip.negatives) == [2]

    def test_all_closer_picks_largest(self):
        emb = line_points([0.0, 1.0, 0.2, -0.5, 0.8])
        labels = np.array([0, 0, 1, 1, 1])
        dist = pairwise_distances(emb)
        trip = sample_semihard_triplets(dist, labels, 0.2, SeededRng(0), anchor_indices=[0])
        assert list(trip.negatives) == [4]  # largest D(a, n) = 0.8

    def test_boundary_negative_excluded_by_strict_window(self):
        emb = line_points([0.0, 0.4, -0.4])
        labels = np.array([0, 0, 1])
        dist = pairwise_distances(emb)
        trip = sample_semihard_triplets(dist, labels, 0.2, SeededRng(0), anchor_indices=[0])
        assert list(trip.negatives) == [2]  # only negative; fallback chooses it


class TestDistanceWeighted:
    def test_weight_formula_d3(self):
        # at embed_dim 3 the density is q(d) = d, so weights are 1/max(d, clip)
        w = distance_weights(np.array([0.5, 1.0, 0.1]), embed_dim=3, clip=0.5)
        np.testing.assert_allclose(w, [2.0, 1.0, 2.0], atol=1e-12)

    def test_equal_distances_equal_probability(self):
        emb = line_points([0.0, 0.1, 0.7, -0.7])
        labels = np.array([0, 0, 1, 1])
        dist = pairwise_distances(emb)
        rng = SeededRng(5)
        counts = {2: 0, 3: 0}
        for _ in range(10_000):
            trip = sample_distance_weighted(dist, labels, rng, embed_dim=4,
                                            anchor_indices=[0])
            counts[int(trip.negatives[0])] += 1
        assert abs(counts[2] / 10_000 - 0.5) < 0.02

    def test_d3_analytic_frequencies(self):
        emb = line_points([0.0, 0.1, 0.5, 1.0])
        labels = np.array([0, 0, 1, 1])
        dist = pairwise_distances(emb)
        rng = SeededRng(9)
        picked = {2: 0, 3: 0}
        for _ in range(10_000):
            trip = sample_distance_weighted(dist, labels, rng, embed_dim=3,
                                            anchor_indices=[0])
            picked[int(trip.negatives[0])] += 1
        assert abs(picked[2] / 10_000 - 2.0 / 3.0) < 0.02
        assert abs(picked[3] / 10_000 - 1.0 / 3.0) < 0.02

    def test_clip_floors_small_distances(self):
        # one negative at 0.1 (clipped to 0.5), one at exactly 0.5: equal weight
        emb = line_points([0.0, 0.05, 0.1, -0.5])
        labels = np.array([0, 0, 1, 1])
        dist = pairwise_distances(emb)
        rng = SeededRng(13)
        counts = {2: 0, 3: 0}
        for _ in range(10_000):
            trip = sample_distance_weighted(dist, labels, rng, embed_dim=3,
                                            anchor_indices=[0])
            counts[int(trip.negatives[0])] += 1
        assert abs(counts[2] / 10_000 - 0.5) < 0.02

    def test_weights_stay_finite_near_antipodal(self):
        w = distance_weights(np.array([2.0, 1.9999999]), embed_dim=16)
        assert np.all(np.isfinite(w)) and np.all(w > 0)


class UniformAtHigh:
    """SeededRng whose uniforms all land exactly on the upper bound."""

    def __init__(self, seed):
        self.inner = SeededRng(seed)

    def integers(self, n, size=None):
        return self.inner.integers(n, size=size)

    def uniform(self, low=0.0, high=1.0, size=None):
        self.inner.uniform(low, high, size)
        return high


@st.composite
def sampler_inputs(draw):
    """Labels, a symmetric distance matrix (optionally with many ties) and an
    optional anchor pool with duplicates."""
    n = draw(st.integers(min_value=1, max_value=20))
    labels = np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    if draw(st.booleans()):
        # a few distinct values, so rows hold tied distances and tied cdf steps
        levels = np.array([0.0, 0.3, 0.5, 1.0, 2.0])
        raw = levels[SeededRng(seed).integers(len(levels), size=(n, n))]
    else:
        raw = SeededRng(seed).uniform(0.0, 2.0, size=(n, n))
    dist = np.triu(raw, 1)
    dist = dist + dist.T
    anchors = draw(st.none() | st.lists(st.integers(0, n - 1), max_size=2 * n))
    return labels, dist, anchors, seed


class TestDistanceWeightedOracle:
    """The vectorized sampler against the per-anchor loop it replaced."""

    @staticmethod
    def assert_same(got, want):
        for field in ("anchors", "positives", "negatives"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype == np.int64
            np.testing.assert_array_equal(a, b)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([3, 4, 16]), st.data())
    def test_matches_per_anchor_loop(self, embed_dim, data):
        labels, dist, anchors, seed = data.draw(sampler_inputs())
        rng_got, rng_want = SeededRng(seed), SeededRng(seed)
        want = oracles.sample_distance_weighted(dist, labels, rng_want, embed_dim,
                                                anchor_indices=anchors)
        got = sample_distance_weighted(dist, labels, rng_got, embed_dim, anchor_indices=anchors)
        self.assert_same(got, want)
        # both consumed the stream identically
        np.testing.assert_array_equal(rng_got.uniform(size=3), rng_want.uniform(size=3))
        assert rng_got.integers(1000) == rng_want.integers(1000)

    @settings(max_examples=50, deadline=None)
    @given(sampler_inputs())
    def test_uniform_at_total_clamps_to_last_negative(self, inputs):
        labels, dist, anchors, seed = inputs
        got = sample_distance_weighted(dist, labels, UniformAtHigh(seed), 4,
                                       anchor_indices=anchors)
        want = oracles.sample_distance_weighted(dist, labels, UniformAtHigh(seed), 4,
                                                anchor_indices=anchors)
        self.assert_same(got, want)
        for a, n in zip(got.anchors, got.negatives):
            assert n == np.flatnonzero(labels != labels[a])[-1]

    def test_antipodal_at_dim_3_samples_alike(self):
        # at embed_dim 3 the (1 - d^2/4) factor of q(d) has exponent 0, so the
        # antipodal negative (d = 2) gets a finite weight, not 0 * log 0
        labels = np.array([0, 0, 1, 1])
        dist = pairwise_distances(line_points([0.0, 0.4, 2.0, 1.0]))
        assert np.all(np.isfinite(distance_weights(dist, embed_dim=3)))
        got = sample_distance_weighted(dist, labels, SeededRng(0), 3, anchor_indices=[0])
        want = oracles.sample_distance_weighted(dist, labels, SeededRng(0), 3,
                                                anchor_indices=[0])
        self.assert_same(got, want)
        assert got.anchors.tolist() == [0] and got.negatives[0] in (2, 3)

    def test_anchors_without_positive_are_skipped(self):
        labels = np.array([0, 1, 1, 2, 3, 3])
        dist = pairwise_distances(line_points([0.0, 0.2, 0.4, 0.6, 0.8, 1.0]))
        got = sample_distance_weighted(dist, labels, SeededRng(4), 3,
                                       anchor_indices=[0, 1, 3, 1, 5])
        want = oracles.sample_distance_weighted(dist, labels, SeededRng(4), 3,
                                                anchor_indices=[0, 1, 3, 1, 5])
        self.assert_same(got, want)
        assert got.anchors.tolist() == [1, 1, 5]

    def test_no_eligible_anchor_gives_empty_set(self):
        trip = sample_distance_weighted(np.zeros((2, 2)), np.array([0, 1]), SeededRng(0), 3)
        assert len(trip) == 0 and trip.negatives.dtype == np.int64

    def test_empty_batch_gives_empty_set(self):
        trip = sample_distance_weighted(np.zeros((0, 0)), np.zeros(0, np.int64), SeededRng(0), 3)
        assert len(trip) == 0 and trip.negatives.dtype == np.int64


def assert_same_stream(rng_got, rng_want):
    np.testing.assert_array_equal(rng_got.uniform(size=3), rng_want.uniform(size=3))
    assert rng_got.integers(1000) == rng_want.integers(1000)


class TestMaskSamplersOracle:
    """The mask-based random, semihard and softhard samplers against the
    per-anchor loops they replaced: same triplets, int64 dtypes, next draws."""

    assert_same = staticmethod(TestDistanceWeightedOracle.assert_same)

    @settings(max_examples=150, deadline=None)
    @given(sampler_inputs(), st.none() | st.integers(min_value=0, max_value=12))
    def test_random(self, inputs, count):
        labels, _, anchors, seed = inputs
        rng_got, rng_want = SeededRng(seed), SeededRng(seed)
        try:
            want = oracles.sample_random_triplets(labels, count, rng_want, anchors)
        except NoValidTripletError:
            with pytest.raises(NoValidTripletError):
                sample_random_triplets(labels, count, rng_got, anchors)
        else:
            self.assert_same(sample_random_triplets(labels, count, rng_got, anchors), want)
        assert_same_stream(rng_got, rng_want)

    @pytest.mark.parametrize("labels,anchors", [
        ([0, 0, 0, 1, 1], [0]),        # a pool of one anchor (bound 1) with 2+2 candidates
        ([0, 0, 0, 1, 1], [0, 0, 3]),  # anchor 3 has one positive: scalar calls
        ([0, 0, 1, 1, 2, 2], None),    # one positive each, the DAS-off batch shape
    ])
    def test_random_small_pools(self, labels, anchors):
        rng_got, rng_want = SeededRng(11), SeededRng(11)
        got = sample_random_triplets(np.array(labels), 12, rng_got, anchors)
        self.assert_same(got, oracles.sample_random_triplets(np.array(labels), 12, rng_want,
                                                             anchors))
        assert_same_stream(rng_got, rng_want)

    @settings(max_examples=150, deadline=None)
    @given(sampler_inputs(), st.sampled_from([0.0, 0.2, 0.5, 3.0]))
    def test_semihard(self, inputs, margin):
        labels, dist, anchors, seed = inputs
        rng_got, rng_want = SeededRng(seed), SeededRng(seed)
        want = oracles.sample_semihard_triplets(dist, labels, margin, rng_want, anchors)
        got = sample_semihard_triplets(dist, labels, margin, rng_got, anchors)
        self.assert_same(got, want)
        assert_same_stream(rng_got, rng_want)

    @settings(max_examples=150, deadline=None)
    @given(sampler_inputs())
    def test_softhard(self, inputs):
        labels, dist, anchors, seed = inputs
        rng_got, rng_want = SeededRng(seed), SeededRng(seed)
        want = oracles.sample_softhard_triplets(dist, labels, rng_want, anchors)
        got = sample_softhard_triplets(dist, labels, rng_got, anchors)
        self.assert_same(got, want)
        assert_same_stream(rng_got, rng_want)

    def test_softhard_bound_one_pools_interleave(self):
        # anchors 0 and 1 have one-member pools on both sides (bound 1, which
        # numpy may answer without a draw); anchor 2 then draws from two negatives
        labels = np.array([0, 0, 1, 1])
        dist = pairwise_distances(line_points([0.0, 1.0, 0.5, 3.0]))
        rng_got, rng_want = SeededRng(2), SeededRng(2)
        got = sample_softhard_triplets(dist, labels, rng_got)
        self.assert_same(got, oracles.sample_softhard_triplets(dist, labels, rng_want))
        assert got.positives[:3].tolist() == [1, 0, 3] and got.negatives[:2].tolist() == [2, 2]
        assert_same_stream(rng_got, rng_want)


class TestSofthard:
    def test_hard_sets(self):
        emb = line_points([0.0, 0.2, 0.9, -0.5, 1.5])
        labels = np.array([0, 0, 0, 1, 1])
        dist = pairwise_distances(emb)
        trip = sample_softhard_triplets(dist, labels, SeededRng(0), anchor_indices=[0])
        assert list(trip.positives) == [2]  # the positive farther than nearest negative
        assert list(trip.negatives) == [3]  # the negative closer than farthest positive

    def test_double_fallback_uniform(self):
        # positives all nearer than every negative: both hard sets empty
        emb = line_points([0.0, 0.1, 0.2, -2.0, 3.0])
        labels = np.array([0, 0, 0, 1, 1])
        dist = pairwise_distances(emb)
        rng = SeededRng(1)
        seen_p, seen_n = set(), set()
        for _ in range(200):
            trip = sample_softhard_triplets(dist, labels, rng, anchor_indices=[0])
            seen_p.add(int(trip.positives[0]))
            seen_n.add(int(trip.negatives[0]))
        assert seen_p == {1, 2} and seen_n == {3, 4}

    def test_seeded_determinism(self):
        emb = line_points([0.0, 0.3, 0.9, -0.5, 1.5, 2.0])
        labels = np.array([0, 0, 0, 1, 1, 1])
        dist = pairwise_distances(emb)
        a = sample_softhard_triplets(dist, labels, SeededRng(7))
        b = sample_softhard_triplets(dist, labels, SeededRng(7))
        np.testing.assert_array_equal(a.negatives, b.negatives)
        np.testing.assert_array_equal(a.positives, b.positives)


class TestBuildPairs:
    def test_enumeration(self):
        pairs = build_pairs(np.array([0, 0, 1]))
        got = set(zip(pairs.first, pairs.second, pairs.is_positive))
        assert got == {(0, 1, True), (0, 2, False), (1, 2, False)}

    def test_single_label_all_positive(self):
        pairs = build_pairs(np.array([3, 3, 3]))
        assert np.all(pairs.is_positive)

    def test_count_n_choose_2(self):
        assert len(build_pairs(np.zeros(4, dtype=int))) == 6


class TestDispatchAndInvariants:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(["random", "semihard", "softhard", "distance"]),
    )
    def test_label_constraints_always_hold(self, seed, kind):
        r = SeededRng(seed)
        labels = np.array([0, 0, 0, 1, 1, 2, 2, 2])
        emb = r.normal(size=(8, 4))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        dist = pairwise_distances(emb)
        trip = sample_triplets(kind, dist, labels, r, embed_dim=4)
        assert len(trip) > 0
        for a, p, n in zip(trip.anchors, trip.positives, trip.negatives):
            assert labels[a] == labels[p] and a != p
            assert labels[a] != labels[n]

    def test_anchor_restriction(self):
        labels = np.array([0, 0, 1, 1])
        emb = line_points([0.0, 0.3, -0.5, 0.8])
        dist = pairwise_distances(emb)
        for kind in ("random", "semihard", "softhard", "distance"):
            trip = sample_triplets(
                kind, dist, labels, SeededRng(3), embed_dim=3, anchor_indices=[0, 1]
            )
            assert set(trip.anchors.tolist()) <= {0, 1}

    @pytest.mark.parametrize("kind", ["semihard", "softhard", "distance"])
    @pytest.mark.parametrize("shape", [(3, 3), (4, 3), (5, 5)])
    def test_distance_shape_mismatch(self, kind, shape):
        labels = np.array([0, 0, 1, 1])
        with pytest.raises(ShapeMismatchError,
                           match=rf"distance matrix \({shape[0]}, {shape[1]}\) vs 4 labels"):
            sample_triplets(kind, np.zeros(shape), labels, SeededRng(0), embed_dim=3)

    def test_random_dispatch_draws_one_triplet_per_eligible_anchor(self):
        labels = np.array([0, 0, 1, 1, 2])
        got = sample_triplets("random", None, labels, SeededRng(8), embed_dim=3,
                              anchor_indices=[4, 0, 2, 0])
        want = sample_random_triplets(labels, 3, SeededRng(8), anchor_indices=[4, 0, 2, 0])
        np.testing.assert_array_equal(got.anchors, want.anchors)
        np.testing.assert_array_equal(got.positives, want.positives)
        np.testing.assert_array_equal(got.negatives, want.negatives)
        with pytest.raises(NoValidTripletError):
            sample_triplets("random", None, labels, SeededRng(8), embed_dim=3,
                            anchor_indices=[4])
