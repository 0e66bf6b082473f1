import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import densedml.core as core
from densedml.core import DISTANCE_BLOCK_BYTES, SeededRng, pairwise_distances
from densedml.errors import KOutOfRangeError, ShapeMismatchError, ZeroNormError

from conftest import random_unit_rows
import oracles
from oracles import l2_normalize, top_k_indices

finite_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=32
)


class TestL2Normalize:
    def test_three_four(self):
        np.testing.assert_allclose(l2_normalize([3.0, 4.0]), [0.6, 0.8], atol=1e-15)

    def test_identity_on_unit_vector(self):
        np.testing.assert_array_equal(l2_normalize([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroNormError):
            l2_normalize([0.0, 0.0])

    @given(finite_vectors)
    def test_unit_norm_and_idempotent(self, vals):
        v = np.asarray(vals)
        if np.linalg.norm(v) <= 1e-12:
            return
        u = l2_normalize(v)
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
        np.testing.assert_allclose(l2_normalize(u), u, atol=1e-12)
        # same direction: non-negative dot with the original
        assert np.dot(u, v) >= 0


class TestPairwiseDistances:
    def test_identical_rows(self):
        np.testing.assert_array_equal(
            pairwise_distances([[1.0, 0.0], [1.0, 0.0]]), np.zeros((2, 2))
        )

    def test_orthogonal_unit_vectors(self):
        d = pairwise_distances([[1.0, 0.0], [0.0, 1.0]])
        assert d[0, 1] == pytest.approx(np.sqrt(2.0), abs=1e-15)
        assert d[1, 0] == d[0, 1]

    def test_matches_scalar_loop_oracle(self, rng):
        rows = random_unit_rows(rng, 5, 7)
        got = pairwise_distances(rows)
        for i in range(5):
            for j in range(5):
                acc = 0.0
                for k in range(7):
                    acc += (rows[i][k] - rows[j][k]) ** 2
                assert abs(got[i, j] - np.sqrt(acc)) <= 1e-12

    def test_ragged_raises(self):
        with pytest.raises(ShapeMismatchError):
            pairwise_distances([[1.0, 0.0], [1.0, 0.0, 0.0]])

    @pytest.mark.parametrize("rows", [
        [[1.0, 0.0], [1.0, [0.0, 2.0]]],
        [[1.0, 0.0], [1.0, "x"]],
        [[1.0, 0.0], [1.0, object()]],
    ])
    def test_entries_that_are_not_numbers_raise(self, rows):
        with pytest.raises(ShapeMismatchError, match="not a stack of numeric vectors"):
            pairwise_distances(rows)

    def test_symmetry_zero_diagonal_range(self, rng):
        rows = random_unit_rows(rng, 12, 5)
        d = pairwise_distances(rows)
        np.testing.assert_array_equal(d, d.T)
        np.testing.assert_array_equal(np.diag(d), np.zeros(12))
        assert d.min() >= 0 and d.max() <= 2 + 1e-12

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_triangle_inequality(self, seed):
        rows = random_unit_rows(SeededRng(seed), 6, 4)
        d = pairwise_distances(rows)
        for i in range(6):
            for j in range(6):
                for k in range(6):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


class TestPairwiseDistancesBlocked:
    """Row-blocked distances against the one-shot difference form."""

    @staticmethod
    def one_shot(x, y=None):
        diff = x[:, None, :] - (x if y is None else y)[None, :, :]
        return np.sqrt(np.sum(diff * diff, axis=-1))

    @staticmethod
    def kernel(x, y):
        """The rectangular distances of the squared plane kernel."""
        return np.sqrt(core._squared_distances(core._planes(x), core._planes(y)))

    def test_many_blocks_bit_identical(self, rng):
        x = rng.normal(size=(700, 16))
        assert 8 * 700 * 700 * 16 > 2 * DISTANCE_BLOCK_BYTES  # several row blocks
        np.testing.assert_array_equal(pairwise_distances(x), self.one_shot(x))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=40),
           st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=300))
    def test_any_shape_bit_identical(self, n, d, seed, m):
        rng = SeededRng(seed)
        x = rng.normal(size=(n, d))
        np.testing.assert_array_equal(pairwise_distances(x), self.one_shot(x))
        y = rng.normal(size=(m, d))
        np.testing.assert_array_equal(self.kernel(x, y), self.one_shot(x, y))

    @pytest.mark.parametrize("budget", [1, 8, 100])
    def test_row_slice_has_the_bits_of_the_full_rows(self, rng, monkeypatch, budget):
        # every budget here is one row per block; `full` took 46-row blocks
        x = rng.normal(size=(50, 7))
        full = pairwise_distances(x)
        monkeypatch.setattr(core, "DISTANCE_BLOCK_BYTES", budget)
        for a, b in ((0, 1), (3, 20), (49, 50), (0, 50)):
            np.testing.assert_array_equal(self.kernel(x[a:b], x), full[a:b])

    def test_duplicate_rows_measure_exactly_zero(self, rng):
        x = random_unit_rows(rng, 300, 16)
        x[150] = x[3]
        x[299] = x[3]
        d = pairwise_distances(x)
        assert d[3, 150] == 0.0 and d[150, 299] == 0.0 and d[299, 3] == 0.0
        np.testing.assert_array_equal(np.diag(d), np.zeros(300))

    def test_array_and_row_list_agree(self, rng):
        x = rng.normal(size=(40, 5))
        want = pairwise_distances(x)
        np.testing.assert_array_equal(pairwise_distances(list(x)), want)
        np.testing.assert_array_equal(pairwise_distances(x.tolist()), want)
        np.testing.assert_array_equal(pairwise_distances(x.astype(np.float32)),
                                      pairwise_distances(x.astype(np.float32).tolist()))

    def test_empty_inputs(self):
        for rows in ([], np.zeros((0, 4)), np.zeros(0)):
            assert pairwise_distances(rows).shape == (0, 0)

    @pytest.mark.parametrize("rows", [
        [1.0, 2.0],
        np.array([1.0, 2.0]),
        np.zeros((2, 2, 2)),
        np.array([[1.0, np.nan], [0.0, 1.0]]),
        [[1.0, np.inf], [0.0, 1.0]],
    ])
    def test_bad_input_raises(self, rows):
        with pytest.raises(ShapeMismatchError):
            pairwise_distances(rows)


class TestKernelOracle:
    """The kernel's leading-axis pairwise sum against the `np.sum` form."""

    @staticmethod
    def assert_same_bits(x, y):
        """The squared plane kernel on (x, y), and pairwise_distances on x."""
        for got, want in ((core._squared_distances(core._planes(x), core._planes(y)),
                           oracles.distances(x, y, squared=True)),
                          (pairwise_distances(x), oracles.distances(x, x))):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=24), st.integers(min_value=1, max_value=24),
           st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=10_000),
           st.sampled_from([1e-3, 0.1, 1.0, 37.0, 1e3, 1e6]), st.booleans(), st.booleans())
    def test_any_shape_same_bits(self, n, m, d, seed, scale, grid, duplicates):
        rng = SeededRng(seed)
        x, y = rng.normal(size=(n, d)) * scale, rng.normal(size=(m, d)) * scale
        if grid:  # integer coordinates: many exact ties
            x, y = np.round(x), np.round(y)
        if duplicates:
            y[rng.integers(m)] = x[rng.integers(n)]
            x[rng.integers(n)] = x[0]
        self.assert_same_bits(x, y)
        self.assert_same_bits(x, x)

    @pytest.mark.parametrize("d", [0, 1, 7, 8, 9, 15, 16, 17, 64, 127, 128, 129, 136, 255,
                                   256, 257, 300])
    @pytest.mark.parametrize("n, m", [(1, 1), (1, 30), (30, 1), (5, 40), (40, 5)])
    def test_every_summation_branch(self, rng, d, n, m):
        # d < 8 running sum, 8..128 eight accumulators, above 128 the split
        self.assert_same_bits(rng.normal(size=(n, d)), rng.normal(size=(m, d)))

    @pytest.mark.parametrize("budget", [1, 1000, 1 << 20])
    @pytest.mark.parametrize("d", [0, 1, 7, 8, 9, 16, 129, 300])
    def test_pair_helper_has_the_kernel_bits(self, rng, monkeypatch, d, budget):
        x = rng.normal(size=(40, d)) * 1e3
        x[5] = x[7]  # a duplicate: distance exactly 0
        rows, cols = rng.integers(40, size=300), rng.integers(40, size=300)
        rows[:3], cols[:3] = [0, 5, 7], [0, 7, 5]
        planes = core._planes(x)
        want = core._squared_distances(planes, planes)[rows, cols]
        monkeypatch.setattr(core, "DISTANCE_BLOCK_BYTES", budget)
        got = core._pair_distances(planes, rows, cols)
        assert got.tobytes() == want.tobytes()
        assert got[1] == got[2] == 0.0

    @pytest.mark.parametrize("budget", [1, 1000, 1 << 20])
    def test_block_budget_keeps_the_bits(self, rng, monkeypatch, budget):
        x, y = rng.normal(size=(70, 16)), rng.normal(size=(90, 16))
        monkeypatch.setattr(core, "DISTANCE_BLOCK_BYTES", budget)
        self.assert_same_bits(x, y)


class TestMirroredKernel:
    """The square kernel sums each row block from its diagonal column on and
    mirrors the rest; the full square sums every entry."""

    @pytest.mark.parametrize("budget", [1, 1000, 8 * 16 * 64 * 16, 1 << 20])
    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 64, 100])
    @pytest.mark.parametrize("d", [1, 16, 129])
    def test_equals_the_full_square(self, rng, monkeypatch, budget, n, d):
        x = rng.normal(size=(n, d))
        x[n // 2] = x[0]  # a duplicate row
        monkeypatch.setattr(core, "DISTANCE_BLOCK_BYTES", budget)
        got = pairwise_distances(x)
        np.testing.assert_array_equal(got, oracles.square_distances(x))
        np.testing.assert_array_equal(got, got.T)
        assert got.tobytes() == oracles.square_distances(x).tobytes()


class TestTopK:
    def test_basic(self):
        np.testing.assert_array_equal(top_k_indices([0.9, 0.1, 0.4, 0.1], 2), [0, 2])

    def test_k_equals_d(self):
        np.testing.assert_array_equal(top_k_indices([5.0, 5.0, 5.0], 3), [0, 1, 2])

    def test_tie_goes_to_lower_index(self):
        np.testing.assert_array_equal(top_k_indices([1.0, 2.0, 2.0], 1), [1])

    @pytest.mark.parametrize("k", [0, 4, -1])
    def test_out_of_range(self, k):
        with pytest.raises(KOutOfRangeError):
            top_k_indices([1.0, 2.0, 3.0], k)

    @given(finite_vectors, st.integers(min_value=1, max_value=32))
    def test_matches_sort_oracle(self, vals, k):
        v = np.asarray(vals)
        if k > len(v):
            return
        got = top_k_indices(v, k)
        oracle = sorted(sorted(range(len(v)), key=lambda i: (-v[i], i))[:k])
        assert list(got) == oracle
        assert len(got) == k

    @given(finite_vectors)
    def test_full_k_returns_everything(self, vals):
        v = np.asarray(vals)
        np.testing.assert_array_equal(top_k_indices(v, len(v)), np.arange(len(v)))


class TestSeededRng:
    def test_equal_seeds_equal_draws(self):
        a, b = SeededRng(99), SeededRng(99)
        np.testing.assert_array_equal(a.uniform(size=10_000), b.uniform(size=10_000))

    def test_different_streams_differ(self):
        a, b = SeededRng(99, 0), SeededRng(99, 1)
        assert not np.array_equal(a.uniform(size=100), b.uniform(size=100))

    def test_derive_is_stable(self):
        assert np.array_equal(
            SeededRng(5).derive("sampler").uniform(size=8),
            SeededRng(5).derive("sampler").uniform(size=8),
        )

    def test_integers_range(self, rng):
        draws = rng.integers(7, size=1000)
        assert draws.min() >= 0 and draws.max() < 7

    @pytest.mark.parametrize("seed,stream", [(0, 0), (7, 3), (2**31, 4)])
    def test_is_keyed_philox_generator(self, seed, stream):
        got = SeededRng(seed, stream)
        want = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream])))
        assert isinstance(got, np.random.Generator)
        bounds = np.array([1, 2, 5, 9, 3])
        probs = np.array([0.1, 0.0, 0.6, 0.3])
        for _ in range(20):
            assert got.integers(7) == want.integers(7)
            np.testing.assert_array_equal(got.integers(bounds), want.integers(bounds))
            assert got.uniform(0, 2.5) == want.uniform(0, 2.5)
            np.testing.assert_array_equal(got.standard_normal((2, 3)),
                                          want.standard_normal((2, 3)))
            np.testing.assert_array_equal(got.permutation(6), want.permutation(6))
            assert got.choice(4, p=probs) == want.choice(4, p=probs)
        np.testing.assert_equal(got.bit_generator.state, want.bit_generator.state)
