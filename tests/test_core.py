import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import densedml.core as core
from densedml.core import DISTANCE_BLOCK_BYTES, SeededRng, pairwise_distances, replay_draws
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
        want = self.one_shot(x, y)
        np.testing.assert_array_equal(pairwise_distances(x, y), want)
        np.testing.assert_array_equal(np.sqrt(pairwise_distances(x, y, squared=True)), want)

    @pytest.mark.parametrize("budget", [1, 8, 100])
    def test_row_slice_has_the_bits_of_the_full_rows(self, rng, monkeypatch, budget):
        # every budget here is one row per block; `full` took 46-row blocks
        x = rng.normal(size=(50, 7))
        full = pairwise_distances(x)
        monkeypatch.setattr(core, "DISTANCE_BLOCK_BYTES", budget)
        for a, b in ((0, 1), (3, 20), (49, 50), (0, 50)):
            np.testing.assert_array_equal(pairwise_distances(x[a:b], x), full[a:b])

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

    @pytest.mark.parametrize("others", [
        np.zeros((2, 3)),
        [[1.0, np.nan]],
        [[1.0], [1.0, 0.0]],
    ])
    def test_bad_others_raises(self, others):
        with pytest.raises(ShapeMismatchError):
            pairwise_distances(np.zeros((2, 2)), others)


class TestKernelOracle:
    """The kernel's leading-axis pairwise sum against the `np.sum` form."""

    @staticmethod
    def assert_same_bits(x, y):
        for squared in (False, True):
            want = oracles.distances(x, y, squared)
            for got in (core._distances(x, y, squared), pairwise_distances(x, y, squared)):
                assert got.shape == want.shape
                assert np.ascontiguousarray(got).tobytes() == want.tobytes()

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

    def test_transposed_view_when_others_is_shorter(self, rng):
        x, y = rng.normal(size=(9, 16)), rng.normal(size=(3, 16))
        got = pairwise_distances(x, y)
        assert got.shape == (9, 3)
        assert got.tobytes(order="A") == pairwise_distances(y, x).tobytes()
        assert np.ascontiguousarray(got).tobytes() == oracles.distances(x, y).tobytes()

    @pytest.mark.parametrize("budget", [1, 1000, 1 << 20])
    @pytest.mark.parametrize("d", [0, 1, 7, 8, 9, 16, 129, 300])
    def test_pair_helper_has_the_kernel_bits(self, rng, monkeypatch, d, budget):
        x = rng.normal(size=(40, d)) * 1e3
        x[5] = x[7]  # a duplicate: distance exactly 0
        rows, cols = rng.integers(40, size=300), rng.integers(40, size=300)
        rows[:3], cols[:3] = [0, 5, 7], [0, 7, 5]
        want = core._distances(x, x, squared=True)[rows, cols]
        monkeypatch.setattr(core, "DISTANCE_BLOCK_BYTES", budget)
        got = core._pair_distances(core._planes(x), rows, cols)
        assert got.tobytes() == want.tobytes()
        assert got[1] == got[2] == 0.0

    @pytest.mark.parametrize("budget", [1, 1000, 1 << 20])
    def test_block_budget_keeps_the_bits(self, rng, monkeypatch, budget):
        x, y = rng.normal(size=(70, 16)), rng.normal(size=(90, 16))
        monkeypatch.setattr(core, "DISTANCE_BLOCK_BYTES", budget)
        self.assert_same_bits(x, y)


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


class RecordingRng:
    """Not a numpy Generator: answers every call from a SeededRng and logs it."""

    def __init__(self, seed):
        self.inner, self.calls = SeededRng(seed), []

    def integers(self, high):
        self.calls.append(("integers", int(high)))
        return self.inner.integers(high)

    def uniform(self, low, high):
        self.calls.append(("uniform", float(high)))
        return self.inner.uniform(low, high)


class TestReplayDraws:
    """replay_draws against the scalar calls it replays: the values, and the
    whole bit_generator.state dict afterwards, so a numpy that draws
    differently fails here and not only in the golden hashes."""

    @staticmethod
    def replay(make_rng, bounds, tables=(), highs=None, prior=()):
        got_rng, want_rng = make_rng(), make_rng()
        for b in prior:
            got_rng.integers(b)
            want_rng.integers(b)
        got = replay_draws(got_rng, bounds, tables, highs)
        want = oracles.scalar_draws(want_rng, bounds, tables, highs)
        assert got[0].dtype == np.int64 and got[0].shape == (len(bounds), 1 + len(tables))
        np.testing.assert_array_equal(got[0], want[0])
        if highs is None:
            assert got[1] is None
        else:
            np.testing.assert_array_equal(got[1], want[1])
        if hasattr(want_rng, "bit_generator"):
            np.testing.assert_equal(got_rng.bit_generator.state, want_rng.bit_generator.state)
        return got_rng, want_rng

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.lists(st.integers(2, 50), max_size=2),
        st.lists(st.sampled_from([1, 1, 2, 3, 7, 3 << 30, 2**32 - 1]) | st.integers(1, 2**32 - 1),
                 max_size=24),
        st.integers(0, 2),
        st.booleans(),
        st.data(),
    )
    def test_matches_scalar_calls(self, seed, prior, bounds, n_tables, with_highs, data):
        width = max(bounds, default=1) if max(bounds, default=1) <= 64 else 0
        entries = st.sampled_from([2, 3, 5, 3 << 30]) | st.integers(1, 2**32 - 1)
        tables = [data.draw(st.lists(entries, min_size=width, max_size=width))
                  for _ in range(n_tables if width else 0)]
        highs = SeededRng(seed, 1).uniform(0.0, 10.0, len(bounds)) if with_highs else None
        got_rng, want_rng = self.replay(lambda: SeededRng(seed), bounds, tables, highs, prior)
        for _ in range(2):  # the next draws agree too, the buffered half first
            assert got_rng.integers(1000) == want_rng.integers(1000)
            assert got_rng.uniform() == want_rng.uniform()

    @pytest.mark.parametrize("prior", [(), (5,), (5, 9), (5, 9, 3)])
    def test_prior_integer_draws_set_the_parity(self, prior):
        # an odd number of prior draws leaves a half in the buffer
        bounds = [3, 1, 7, 2, 9]
        got_rng, _ = self.replay(lambda: SeededRng(8), bounds, highs=np.ones(5), prior=prior)
        assert got_rng.bit_generator.state["has_uint32"] == (len(prior) + 4) % 2

    def test_all_one_bounds_leave_the_buffer_alone(self):
        rng = SeededRng(3)
        rng.integers(5)
        before = rng.bit_generator.state
        got_rng, _ = self.replay(lambda: SeededRng(3), [1] * 6, highs=np.arange(6.0), prior=(5,))
        after = got_rng.bit_generator.state
        assert (after["has_uint32"], after["uinteger"]) == (1, before["uinteger"])

    def test_mixed_one_and_larger_bounds(self):
        bounds = [1, 4, 1, 1, 6, 2**31, 1, 3]
        for prior in [(), (7,)]:
            self.replay(lambda: SeededRng(21), bounds, highs=np.linspace(0.5, 4.0, 8),
                        prior=prior)
            self.replay(lambda: SeededRng(21), [1, 4, 1, 1, 6, 3, 1, 3],
                        tables=[[2, 3, 4, 5, 6, 7]], prior=prior)

    def test_forced_rejection(self):
        # b = 3 * 2**30 rejects a half x exactly when x % 4 == 0
        seed, b = 5, 3 << 30
        halves = SeededRng(seed).bit_generator.random_raw(16).view(np.uint32)
        assert np.any(halves % 4 == 0)
        self.replay(lambda: SeededRng(seed), [b] * 32, highs=np.ones(32))
        self.replay(lambda: SeededRng(seed), [b] * 32)

    def test_bound_of_two_to_the_32_or_more(self):
        self.replay(lambda: SeededRng(2), [5, 2**32, 7, 2**40], highs=np.ones(4))
        self.replay(lambda: SeededRng(2), [5, 3], tables=[[2, 3, 4, 5, 2**32]])

    def test_table_bound_of_one_is_drawn_as_scalar_calls(self):
        self.replay(lambda: SeededRng(4), [3] * 10, tables=[[1, 2, 3], [4, 4, 1]])

    def test_other_generators(self):
        self.replay(lambda: np.random.Generator(np.random.PCG64(6)), [3, 1, 8], highs=np.ones(3))
        got_rng, want_rng = self.replay(lambda: RecordingRng(6), [3, 1], tables=[[2, 5, 4]],
                                        highs=[2.0, 3.0])
        assert got_rng.calls == want_rng.calls == [
            ("integers", 3), ("integers", got_rng.calls[1][1]), ("uniform", 2.0),
            ("integers", 1), ("integers", 2), ("uniform", 3.0),
        ]

    def test_empty_schedule(self):
        rng = SeededRng(9)
        ints, uniforms = replay_draws(rng, [], highs=[])
        assert ints.shape == (0, 1) and uniforms.shape == (0,)
        ints, uniforms = replay_draws(rng, [], tables=[[2, 3]])
        assert ints.shape == (0, 2) and uniforms is None
        np.testing.assert_equal(rng.bit_generator.state, SeededRng(9).bit_generator.state)

    @pytest.mark.parametrize("high", [np.inf, np.nan])
    def test_non_finite_high_raises_numpys_error(self, high):
        with pytest.raises(OverflowError) as want:
            oracles.scalar_draws(SeededRng(1), [2, 3], highs=[1.0, high])
        with pytest.raises(OverflowError) as got:
            replay_draws(SeededRng(1), [2, 3], highs=[1.0, high])
        assert str(got.value) == str(want.value)
