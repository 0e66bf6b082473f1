import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densedml.core import (
    DISTANCE_BLOCK_BYTES,
    SeededRng,
    l2_normalize,
    pairwise_distances,
    top_k_indices,
)
from densedml.errors import DimensionMismatchError, KOutOfRangeError, ZeroNormError

from conftest import random_unit_rows

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
        with pytest.raises(DimensionMismatchError):
            pairwise_distances([[1.0, 0.0], [1.0, 0.0, 0.0]])

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
    def one_shot(x):
        diff = x[:, None, :] - x[None, :, :]
        return np.sqrt(np.sum(diff * diff, axis=-1))

    def test_many_blocks_bit_identical(self, rng):
        x = rng.normal(size=(700, 16))
        assert 8 * 700 * 700 * 16 > 2 * DISTANCE_BLOCK_BYTES  # several row blocks
        np.testing.assert_array_equal(pairwise_distances(x), self.one_shot(x))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=40),
           st.integers(min_value=0, max_value=10_000))
    def test_any_shape_bit_identical(self, n, d, seed):
        x = SeededRng(seed).normal(size=(n, d))
        np.testing.assert_array_equal(pairwise_distances(x), self.one_shot(x))

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
        with pytest.raises(DimensionMismatchError):
            pairwise_distances(rows)


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
