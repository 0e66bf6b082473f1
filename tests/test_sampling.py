import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densedml.config import SamplerConfig
from densedml.core import SeededRng, pairwise_distances
from densedml.data import Dataset
from densedml.errors import NotEnoughClassesError, NoValidTripletError, ShapeMismatchError
from densedml.core import label_masks
from densedml.errors import ConfigError
from densedml.sampling import (
    BatchSpec,
    anchor_layout,
    batch_layout,
    distance_weights,
    sample_batch,
    sample_distance_weighted,
    sample_random_triplets,
    sample_semihard_triplets,
    sample_softhard_triplets,
    sample_triplets,
)

from conftest import random_unit_rows
import oracles
from oracles import build_pairs

# the sampler knobs a run takes by default
MARGIN, CLIP = SamplerConfig().semihard_margin, SamplerConfig().clip
KNOBS = {"semihard_margin": MARGIN, "clip": CLIP}


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

    @pytest.mark.parametrize(
        "sizes, m",
        [([64] * 8, 2), ([2] * 5, 2), ([7] * 6, 7), ([300] * 3, 4),
         ([5, 5, 9, 9, 9, 5, 2, 2], 3), ([3, 1, 8, 2, 2, 6, 1], 3), ([1, 1, 2, 3], 4)],
        ids=["equal", "m_equals_size", "full_permutation", "large", "unequal",
             "some_with_replacement", "all_with_replacement"],
    )
    @pytest.mark.parametrize("seed", [0, 5, 31])
    def test_matches_per_class_loop(self, sizes, m, seed):
        # the grouped draws give the per-class loop's batch and leave its stream
        labels = np.repeat(np.arange(len(sizes)), sizes)
        order = SeededRng(seed + 100).permutation(len(labels))  # members interleaved in the file
        feats = SeededRng(seed).normal(size=(len(labels), 3))
        ds = Dataset(feats, labels[order], tuple(range(len(sizes))), ())
        spec = BatchSpec(len(sizes) - 1, m)
        rng_got, rng_want = SeededRng(seed, 1), SeededRng(seed, 1)
        rng_got.integers(9), rng_want.integers(9)  # a buffered 32-bit half carries over
        got, want = sample_batch(ds, spec, rng_got), oracles.sample_batch(ds, spec, rng_want)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert got[1].dtype == np.int64
        np.testing.assert_equal(rng_got.bit_generator.state, rng_want.bit_generator.state)


class TestRandomTriplets:
    def test_constraints_hold(self):
        labels = np.array([0, 0, 1, 1])
        trip = sample_random_triplets(anchor_layout(labels), SeededRng(0))
        assert len(trip) == 4
        for a, p, n in zip(trip.anchors, trip.positives, trip.negatives):
            assert labels[a] == labels[p] and a != p
            assert labels[a] != labels[n]

    def test_no_valid_triplet(self):
        with pytest.raises(NoValidTripletError):
            sample_random_triplets(anchor_layout(np.array([0, 1])), SeededRng(0))

    def test_seeded_determinism(self):
        labels = np.array([0, 0, 1, 1, 2])
        a = sample_random_triplets(anchor_layout(labels), SeededRng(42))
        b = sample_random_triplets(anchor_layout(labels), SeededRng(42))
        np.testing.assert_array_equal(a.anchors, b.anchors)
        np.testing.assert_array_equal(a.positives, b.positives)
        np.testing.assert_array_equal(a.negatives, b.negatives)


class TestSemihard:
    def test_window_pick(self):
        # anchor 0, positive 1 at 0.4; negatives at 0.3 / 0.5 / 0.9
        emb = line_points([0.0, 0.4, -0.3, 0.5, 0.9])
        labels = np.array([0, 0, 1, 1, 1])
        dist = pairwise_distances(emb)
        trip = sample_semihard_triplets(dist, anchor_layout(labels, [0]), 0.2, SeededRng(0))
        assert list(trip.anchors) == [0] and list(trip.positives) == [1]
        assert list(trip.negatives) == [3]

    def test_hardest_farther_fallback(self):
        # window (0.4, 0.6) empty; negatives strictly farther: hardest is 0.9
        emb = line_points([0.0, 0.4, -0.9, 1.2])
        labels = np.array([0, 0, 1, 1])
        dist = pairwise_distances(emb)
        trip = sample_semihard_triplets(dist, anchor_layout(labels, [0]), 0.2, SeededRng(0))
        assert list(trip.negatives) == [2]

    def test_all_closer_picks_largest(self):
        emb = line_points([0.0, 1.0, 0.2, -0.5, 0.8])
        labels = np.array([0, 0, 1, 1, 1])
        dist = pairwise_distances(emb)
        trip = sample_semihard_triplets(dist, anchor_layout(labels, [0]), 0.2, SeededRng(0))
        assert list(trip.negatives) == [4]  # largest D(a, n) = 0.8

    def test_boundary_negative_excluded_by_strict_window(self):
        emb = line_points([0.0, 0.4, -0.4])
        labels = np.array([0, 0, 1])
        dist = pairwise_distances(emb)
        trip = sample_semihard_triplets(dist, anchor_layout(labels, [0]), 0.2, SeededRng(0))
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
        rng, layout = SeededRng(5), anchor_layout(labels, [0])
        counts = {2: 0, 3: 0}
        for _ in range(10_000):
            trip = sample_distance_weighted(dist, layout, rng, 4, 0.5)
            counts[int(trip.negatives[0])] += 1
        assert abs(counts[2] / 10_000 - 0.5) < 0.02

    def test_d3_analytic_frequencies(self):
        emb = line_points([0.0, 0.1, 0.5, 1.0])
        labels = np.array([0, 0, 1, 1])
        dist = pairwise_distances(emb)
        rng, layout = SeededRng(9), anchor_layout(labels, [0])
        picked = {2: 0, 3: 0}
        for _ in range(10_000):
            trip = sample_distance_weighted(dist, layout, rng, 3, 0.5)
            picked[int(trip.negatives[0])] += 1
        assert abs(picked[2] / 10_000 - 2.0 / 3.0) < 0.02
        assert abs(picked[3] / 10_000 - 1.0 / 3.0) < 0.02

    def test_clip_floors_small_distances(self):
        # one negative at 0.1 (clipped to 0.5), one at exactly 0.5: equal weight
        emb = line_points([0.0, 0.05, 0.1, -0.5])
        labels = np.array([0, 0, 1, 1])
        dist = pairwise_distances(emb)
        rng, layout = SeededRng(13), anchor_layout(labels, [0])
        counts = {2: 0, 3: 0}
        for _ in range(10_000):
            trip = sample_distance_weighted(dist, layout, rng, 3, 0.5)
            counts[int(trip.negatives[0])] += 1
        assert abs(counts[2] / 10_000 - 0.5) < 0.02

    def test_weights_stay_finite_near_antipodal(self):
        w = distance_weights(np.array([2.0, 1.9999999]), embed_dim=16, clip=0.5)
        assert np.all(np.isfinite(w)) and np.all(w > 0)


class UniformAtHigh:
    """SeededRng whose uniforms all land exactly on the upper bound: `random`
    returns 1.0 and `uniform` its high."""

    def __init__(self, seed):
        self.inner = SeededRng(seed)
        self.bit_generator = self.inner.bit_generator

    def integers(self, n, size=None):
        return self.inner.integers(n, size=size)

    def random(self, size=None):
        self.inner.random(size)
        return 1.0

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


def assert_same_stream(rng_got, rng_want):
    np.testing.assert_equal(rng_got.bit_generator.state, rng_want.bit_generator.state)


def assert_matches_oracle(run, oracle, seed, rng_type=SeededRng):
    """`run` and `oracle`, each called on its own rng_type(seed): the same
    triplets with int64 dtypes, or NoValidTripletError from both, and the
    same whole generator state after.  Returns run's triplets (None when
    both raise)."""
    rng_got, rng_want = rng_type(seed), rng_type(seed)
    try:
        want = oracle(rng_want)
    except NoValidTripletError:
        with pytest.raises(NoValidTripletError):
            run(rng_got)
        got = None
    else:
        got = run(rng_got)
        TestDistanceWeightedOracle.assert_same(got, want)
    assert_same_stream(rng_got, rng_want)
    return got


class TestDistanceWeightedOracle:
    """The vectorized sampler against scalar calls per anchor in its draw
    order: same triplets, and the same whole generator state after."""

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
        assert_matches_oracle(
            lambda rng: sample_distance_weighted(dist, anchor_layout(labels, anchors), rng,
                                                 embed_dim, CLIP),
            lambda rng: oracles.sample_distance_weighted(dist, labels, rng, embed_dim, CLIP,
                                                         anchor_indices=anchors),
            seed)

    @pytest.mark.parametrize("anchors", [None, [0, 4, 4, 9]])
    def test_one_positive_per_anchor_takes_random_n(self, anchors):
        # the DAS-off M=2 batch: each positive count is 1, so the positives
        # take no draw and the call consumes exactly random(n), n its anchors
        labels = np.repeat(np.arange(5), 2)
        dist = pairwise_distances(random_unit_rows(SeededRng(2), 10, 4))
        rng_got, rng_want = SeededRng(6), SeededRng(6)
        got = sample_distance_weighted(dist, anchor_layout(labels, anchors), rng_got, 4, CLIP)
        rng_want.random(len(got))
        assert len(got) == (10 if anchors is None else 4)
        assert_same_stream(rng_got, rng_want)

    @settings(max_examples=50, deadline=None)
    @given(sampler_inputs())
    def test_uniform_at_total_clamps_to_last_negative(self, inputs):
        labels, dist, anchors, seed = inputs
        got = assert_matches_oracle(
            lambda rng: sample_distance_weighted(dist, anchor_layout(labels, anchors), rng, 4,
                                                 CLIP),
            lambda rng: oracles.sample_distance_weighted(dist, labels, rng, 4, CLIP,
                                                         anchor_indices=anchors),
            seed, UniformAtHigh)
        if got is not None:
            for a, n in zip(got.anchors, got.negatives):
                assert n == np.flatnonzero(labels != labels[a])[-1]

    def test_antipodal_at_dim_3_samples_alike(self):
        # at embed_dim 3 the (1 - d^2/4) factor of q(d) has exponent 0, so the
        # antipodal negative (d = 2) gets a finite weight, not 0 * log 0
        labels = np.array([0, 0, 1, 1])
        dist = pairwise_distances(line_points([0.0, 0.4, 2.0, 1.0]))
        assert np.all(np.isfinite(distance_weights(dist, embed_dim=3, clip=CLIP)))
        got = sample_distance_weighted(dist, anchor_layout(labels, [0]), SeededRng(0), 3, CLIP)
        want = oracles.sample_distance_weighted(dist, labels, SeededRng(0), 3, CLIP,
                                                anchor_indices=[0])
        self.assert_same(got, want)
        assert got.anchors.tolist() == [0] and got.negatives[0] in (2, 3)

    def test_anchors_without_positive_are_skipped(self):
        labels = np.array([0, 1, 1, 2, 3, 3])
        dist = pairwise_distances(line_points([0.0, 0.2, 0.4, 0.6, 0.8, 1.0]))
        got = sample_distance_weighted(dist, anchor_layout(labels, [0, 1, 3, 1, 5]),
                                       SeededRng(4), 3, CLIP)
        want = oracles.sample_distance_weighted(dist, labels, SeededRng(4), 3, CLIP,
                                                anchor_indices=[0, 1, 3, 1, 5])
        self.assert_same(got, want)
        assert got.anchors.tolist() == [1, 1, 5]

    def test_no_eligible_anchor_raises(self):
        with pytest.raises(NoValidTripletError, match="no anchor has both"):
            sample_distance_weighted(np.zeros((2, 2)), anchor_layout(np.array([0, 1])),
                                     SeededRng(0), 3, CLIP)

    def test_empty_batch_raises(self):
        with pytest.raises(NoValidTripletError, match="no anchor has both"):
            sample_distance_weighted(np.zeros((0, 0)), anchor_layout(np.zeros(0, np.int64)),
                                     SeededRng(0), 3, CLIP)


class TestMaskSamplersOracle:
    """The mask-based random, semihard and softhard samplers against scalar
    calls per anchor in their draw orders: same triplets, int64 dtypes, and
    the same whole generator state after."""

    assert_same = staticmethod(TestDistanceWeightedOracle.assert_same)

    @settings(max_examples=150, deadline=None)
    @given(sampler_inputs())
    def test_random(self, inputs):
        labels, _, anchors, seed = inputs
        assert_matches_oracle(
            lambda rng: sample_random_triplets(anchor_layout(labels, anchors), rng),
            lambda rng: oracles.sample_random_triplets(labels, rng, anchors), seed)

    @pytest.mark.parametrize("labels,anchors", [
        ([0, 0, 0, 1, 1], [0]),        # a pool of one anchor (bound 1) with 2+2 candidates
        ([0, 0, 0, 1, 1], [0, 0, 3]),  # anchor 3 has one positive (bound 1)
        ([0, 0, 1, 1, 2, 2], None),    # one positive each, the DAS-off batch shape
    ])
    def test_random_small_pools(self, labels, anchors):
        rng_got, rng_want = SeededRng(11), SeededRng(11)
        got = sample_random_triplets(anchor_layout(np.array(labels), anchors), rng_got)
        self.assert_same(got, oracles.sample_random_triplets(np.array(labels), rng_want, anchors))
        assert_same_stream(rng_got, rng_want)

    @settings(max_examples=150, deadline=None)
    @given(sampler_inputs(), st.sampled_from([0.0, 1e-12, 0.2, 0.5, 3.0, 1e9]))
    def test_semihard(self, inputs, margin):
        labels, dist, anchors, seed = inputs
        assert_matches_oracle(
            lambda rng: sample_semihard_triplets(dist, anchor_layout(labels, anchors), margin, rng),
            lambda rng: oracles.sample_semihard_triplets(dist, labels, margin, rng, anchors),
            seed)

    @settings(max_examples=150, deadline=None)
    @given(sampler_inputs())
    def test_softhard(self, inputs):
        labels, dist, anchors, seed = inputs
        assert_matches_oracle(
            lambda rng: sample_softhard_triplets(dist, anchor_layout(labels, anchors), rng),
            lambda rng: oracles.sample_softhard_triplets(dist, labels, rng, anchors), seed)

    def test_softhard_bound_one_pools_interleave(self):
        # anchors 0 and 1 have one-member pools on both sides (bound 1, which
        # numpy may answer without a draw); anchor 2 then draws from two negatives
        labels = np.array([0, 0, 1, 1])
        dist = pairwise_distances(line_points([0.0, 1.0, 0.5, 3.0]))
        rng_got, rng_want = SeededRng(2), SeededRng(2)
        got = sample_softhard_triplets(dist, anchor_layout(labels), rng_got)
        self.assert_same(got, oracles.sample_softhard_triplets(dist, labels, rng_want))
        assert got.positives[:3].tolist() == [1, 0, 3] and got.negatives[:2].tolist() == [2, 2]
        assert_same_stream(rng_got, rng_want)


class TestSemihardDraws:
    """Semi-hard cases picked for their draws: each against the scalar
    oracle, and the window draws counted against a generator that took only
    the positives' draw."""

    @pytest.mark.parametrize("positions, labels, anchors, margin", [
        # tiny and huge margins over the same points
        ([0.0, 0.4, 0.3, 0.41, 0.9, 1.3], [0, 0, 1, 1, 1, 1], None, 1e-12),
        ([0.0, 0.4, 0.3, 0.41, 0.9, 1.3], [0, 0, 1, 1, 1, 1], None, 1e9),
        # tied distances: two negatives tie inside the window, two beyond it
        ([0.0, 0.4, -0.5, 0.5, -1.5, 1.5], [0, 0, 1, 1, 1, 1], [0], 0.2),
        ([0.0, 0.4, -1.5, 1.5, 0.1, -0.1], [0, 0, 1, 1, 2, 2], None, 0.2),
        # one positive per anchor: the positives take no draw
        ([0.0, 0.2, 0.5, 0.6, 0.9, 1.4], [0, 0, 1, 1, 2, 2], None, 0.3),
        # three positives, anchors repeated in the pool
        ([0.0, 0.2, 0.35, 0.5, 0.6, 0.7], [0, 0, 0, 0, 1, 1], [0, 3, 0, 5], 0.25),
    ])
    def test_matches_oracle(self, positions, labels, anchors, margin):
        dist = pairwise_distances(line_points(positions))
        labels = np.array(labels)
        rng_got, rng_want = SeededRng(17), SeededRng(17)
        got = sample_semihard_triplets(dist, anchor_layout(labels, anchors), margin, rng_got)
        want = oracles.sample_semihard_triplets(dist, labels, margin, rng_want, anchors)
        TestDistanceWeightedOracle.assert_same(got, want)
        assert_same_stream(rng_got, rng_want)

    @staticmethod
    def positives_only(seed, n_pos):
        rng = SeededRng(seed)
        rng.integers(n_pos)
        return rng

    def test_one_entry_window_takes_no_draw(self):
        # either positive (0.4 or 0.45) leaves only the negative at 0.5 in its window
        dist = pairwise_distances(line_points([0.0, 0.4, 0.45, 0.5, 2.0]))
        rng = SeededRng(3)
        got = sample_semihard_triplets(dist, anchor_layout(np.array([0, 0, 0, 1, 1]), [0]), 0.2,
                                       rng)
        assert got.negatives.tolist() == [3]
        assert_same_stream(rng, self.positives_only(3, [2]))

    def test_no_farther_negative_takes_no_draw(self):
        # every negative is nearer than either positive: the farthest is chosen
        dist = pairwise_distances(line_points([0.0, 1.0, -1.2, 0.3, -0.6, 0.6]))
        rng = SeededRng(4)
        got = sample_semihard_triplets(dist, anchor_layout(np.array([0, 0, 0, 1, 1, 1]), [0]), 0.2,
                                       rng)
        assert got.negatives.tolist() == [4]  # ties 0.6 with row 5: the lower index
        assert_same_stream(rng, self.positives_only(4, [2]))

    def test_window_draws_follow_all_positives(self):
        # two anchors with two-entry windows: one call over both window sizes
        # after one call over both positive counts
        dist = pairwise_distances(line_points([0.0, 0.1, 5.0, 5.1, 0.15, 0.2, 5.15, 5.2]))
        labels = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        rng = SeededRng(8)
        got = sample_semihard_triplets(dist, anchor_layout(labels, [0, 2]), 0.5, rng)
        want = self.positives_only(8, [1, 1])
        k = want.integers([2, 2])
        assert got.negatives.tolist() == [[4, 5][k[0]], [6, 7][k[1]]]
        assert_same_stream(rng, want)


class TestSofthard:
    def test_hard_sets(self):
        emb = line_points([0.0, 0.2, 0.9, -0.5, 1.5])
        labels = np.array([0, 0, 0, 1, 1])
        dist = pairwise_distances(emb)
        trip = sample_softhard_triplets(dist, anchor_layout(labels, [0]), SeededRng(0))
        assert list(trip.positives) == [2]  # the positive farther than nearest negative
        assert list(trip.negatives) == [3]  # the negative closer than farthest positive

    def test_double_fallback_uniform(self):
        # positives all nearer than every negative: both hard sets empty
        emb = line_points([0.0, 0.1, 0.2, -2.0, 3.0])
        labels = np.array([0, 0, 0, 1, 1])
        dist = pairwise_distances(emb)
        rng, layout = SeededRng(1), anchor_layout(labels, [0])
        seen_p, seen_n = set(), set()
        for _ in range(200):
            trip = sample_softhard_triplets(dist, layout, rng)
            seen_p.add(int(trip.positives[0]))
            seen_n.add(int(trip.negatives[0]))
        assert seen_p == {1, 2} and seen_n == {3, 4}

    def test_seeded_determinism(self):
        emb = line_points([0.0, 0.3, 0.9, -0.5, 1.5, 2.0])
        labels = np.array([0, 0, 0, 1, 1, 1])
        dist = pairwise_distances(emb)
        a = sample_softhard_triplets(dist, anchor_layout(labels), SeededRng(7))
        b = sample_softhard_triplets(dist, anchor_layout(labels), SeededRng(7))
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
        trip = sample_triplets(kind, dist, anchor_layout(labels), r, embed_dim=4, **KNOBS)
        assert len(trip) > 0
        for a, p, n in zip(trip.anchors, trip.positives, trip.negatives):
            assert labels[a] == labels[p] and a != p
            assert labels[a] != labels[n]

    def test_anchor_restriction(self):
        labels = np.array([0, 0, 1, 1])
        emb = line_points([0.0, 0.3, -0.5, 0.8])
        dist = pairwise_distances(emb)
        for kind in ("random", "semihard", "softhard", "distance"):
            trip = sample_triplets(kind, dist, anchor_layout(labels, [0, 1]), SeededRng(3),
                                   embed_dim=3, **KNOBS)
            assert set(trip.anchors.tolist()) <= {0, 1}

    @pytest.mark.parametrize("kind", ["semihard", "softhard", "distance"])
    @pytest.mark.parametrize("shape", [(3, 3), (4, 3), (5, 5)])
    def test_distance_shape_mismatch(self, kind, shape):
        labels = np.array([0, 0, 1, 1])
        with pytest.raises(ShapeMismatchError,
                           match=rf"distance matrix \({shape[0]}, {shape[1]}\) vs 4 labels"):
            sample_triplets(kind, np.zeros(shape), anchor_layout(labels), SeededRng(0),
                            embed_dim=3, **KNOBS)

    @pytest.mark.parametrize("kind", ["semihard", "softhard", "distance"])
    @pytest.mark.parametrize("n", [6, 10])
    def test_distance_shape_mismatch_with_layout(self, kind, n):
        # the run's layout for 8 labels and a matrix of another size raise
        # what an anchor layout of 8 labels raises
        with pytest.raises(ShapeMismatchError, match=rf"distance matrix \({n}, {n}\) vs 8 labels"):
            sample_triplets(kind, np.zeros((n, n)), batch_layout(BatchSpec(4, 2), 0, True),
                            SeededRng(0), embed_dim=3, **KNOBS)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="sampler.kind must be one of"):
            sample_triplets("nearest", np.zeros((2, 2)), anchor_layout([0, 1]), SeededRng(0),
                            embed_dim=2, **KNOBS)

    def test_random_dispatch_draws_one_triplet_per_eligible_anchor(self):
        labels = np.array([0, 0, 1, 1, 2])
        got = sample_triplets("random", None, anchor_layout(labels, [4, 0, 2, 0]), SeededRng(8),
                              embed_dim=3, **KNOBS)
        want = oracles.sample_random_triplets(labels, SeededRng(8), anchor_indices=[4, 0, 2, 0])
        assert len(got) == 3
        np.testing.assert_array_equal(got.anchors, want.anchors)
        np.testing.assert_array_equal(got.positives, want.positives)
        np.testing.assert_array_equal(got.negatives, want.negatives)
        with pytest.raises(NoValidTripletError):
            sample_triplets("random", None, anchor_layout(labels, [4]), SeededRng(8),
                            embed_dim=3, **KNOBS)

    @pytest.mark.parametrize("kind", ["random", "semihard", "softhard", "distance"])
    @pytest.mark.parametrize("labels, pool", [([0, 1, 2, 3], None), ([0, 0, 1, 1], [])])
    def test_no_eligible_anchor_raises_for_every_kind(self, kind, labels, pool):
        # no positive anywhere, or an empty pool: one rule for every sampler,
        # raised before any draw
        dist = pairwise_distances(line_points([0.0, 0.3, 0.7, 1.2]))
        rng = SeededRng(5)
        with pytest.raises(NoValidTripletError, match="no anchor has both"):
            sample_triplets(kind, dist, anchor_layout(labels, pool), rng, embed_dim=3, **KNOBS)
        assert_same_stream(rng, SeededRng(5))


def assert_mining_matches_per_step_code(layout, labels, anchor_indices):
    """The layout's mining fields against the anchor set-up, counts and
    cumsum k-th True that each step computed before the layout."""
    rows, same, other = oracles.anchor_rows(labels, anchor_indices)
    np.testing.assert_array_equal(layout.rows, rows)
    np.testing.assert_array_equal(layout.same, same)
    np.testing.assert_array_equal(layout.other, other)
    for mask, counts, table in ((same, layout.n_pos, layout.pos_cols),
                                (other, layout.n_neg, layout.neg_cols)):
        np.testing.assert_array_equal(counts, np.count_nonzero(mask, axis=1))
        for k in range(mask.shape[1]):
            live = k < counts
            np.testing.assert_array_equal(table[live, k], oracles.kth_true(mask[live], k))


class TestBatchLayout:
    """The layout built once per run against the per-step code it replaced."""

    @staticmethod
    def batch_labels(p, m, seed):
        """Class-contiguous labels of p distinct classes out of 20, as sample_batch draws them."""
        return np.repeat(SeededRng(seed).permutation(20)[:p], m)

    @pytest.mark.parametrize("p", [2, 3, 8])
    @pytest.mark.parametrize("m", [2, 3, 5])
    @pytest.mark.parametrize("t", [0, 1, 3])
    @pytest.mark.parametrize("produced_as_anchors", [True, False])
    def test_fields_match_per_step_code(self, p, m, t, produced_as_anchors):
        layout = batch_layout(BatchSpec(p, m), t, produced_as_anchors)
        labels = self.batch_labels(p, m, 10 * p + m)
        n = p * m
        anchors = np.repeat(np.arange(n), t)  # das.produce's anchor-major copies
        np.testing.assert_array_equal(layout.anchors, anchors)
        i, j = np.nonzero(label_masks(labels)[0])  # TransformationBank.update's pairs
        np.testing.assert_array_equal(layout.pairs, [i, j])
        np.testing.assert_array_equal(layout.pair_ranks, oracles.class_ranks(labels[i]))
        cat = np.concatenate([labels, labels[anchors]])
        assert_mining_matches_per_step_code(
            layout, cat, None if produced_as_anchors else np.arange(n))

    @pytest.mark.parametrize("produced_as_anchors", [True, False])
    @pytest.mark.parametrize("kept", [[], [0, 5], list(range(1, 24, 2))])
    def test_dropped_rows_rebuild(self, produced_as_anchors, kept):
        # a step that drops produced rows mines from the anchor layout of the
        # rows it kept, which must match the per-step code on those rows
        labels = self.batch_labels(4, 2, 1)
        copies = np.repeat(labels, 3)[kept]
        pool = None if produced_as_anchors else np.arange(8)
        cat = np.concatenate([labels, copies])
        assert_mining_matches_per_step_code(anchor_layout(cat, pool), cat, pool)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 4), max_size=14), st.data())
    def test_any_labels_and_pool(self, labels, data):
        labels = np.asarray(labels, dtype=np.int64)
        pool = data.draw(st.none() | st.lists(st.integers(0, max(len(labels) - 1, 0)),
                                              max_size=10 if len(labels) else 0))
        assert_mining_matches_per_step_code(anchor_layout(labels, pool), labels, pool)


class TestLayoutPath:
    """Each sampler handed the training run's layout returns what it returns
    on an anchor layout of the labels, and leaves the same stream."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31),
           st.sampled_from(["random", "semihard", "softhard", "distance"]),
           st.integers(2, 5), st.integers(2, 3), st.integers(0, 3), st.booleans())
    def test_samplers_match_the_checked_path(self, seed, kind, p, m, t, as_anchors):
        r = SeededRng(seed)
        labels = np.repeat(r.permutation(10)[:p], m)
        cat = np.concatenate([labels, np.repeat(labels, t)])
        emb = random_unit_rows(r, len(cat), 4)
        dist = pairwise_distances(emb)
        pool = None if as_anchors else np.arange(p * m)
        rng_got, rng_want = SeededRng(seed, 3), SeededRng(seed, 3)
        got = sample_triplets(kind, dist, batch_layout(BatchSpec(p, m), t, as_anchors), rng_got,
                              embed_dim=4, **KNOBS)
        want = sample_triplets(kind, dist, anchor_layout(cat, pool), rng_want, embed_dim=4,
                               **KNOBS)
        for name in ("anchors", "positives", "negatives"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        np.testing.assert_equal(rng_got.bit_generator.state, rng_want.bit_generator.state)
