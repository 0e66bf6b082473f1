import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import densedml.core as core
from densedml.core import DISTANCE_BLOCK_BYTES, SeededRng, pairwise_distances
from densedml.das import (
    DasConfig,
    FrequencyRecorder,
    TransformationBank,
    combine_factors,
    draw_scales,
    draw_shifts,
    produce,
)
from densedml.errors import (
    KOutOfRangeError,
    LabelOutOfRangeError,
    ShapeMismatchError,
    ZeroNormError,
)
from densedml.losses import LossSpec, multi_similarity_loss
from densedml.metrics import evaluate_embeddings, f1_score, nmi, recall_at_k
from densedml.sampling import anchor_layout

from conftest import random_unit_rows
import oracles
from oracles import l2_normalize, top_k_indices

finite_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=32
)


def pair_kernel(x, y):
    """The squared distance of every (row of x, row of y) pair by the pair
    kernel, core._pair_distances, over the planes of x stacked on y."""
    n, m = len(x), len(y)
    rows, cols = np.divmod(np.arange(n * m), m)
    planes = core._planes(np.concatenate((x, y)))
    return core._pair_distances(planes, rows, n + cols).reshape(n, m)


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

    @pytest.mark.parametrize("rows", [np.eye(3) * 1j, np.eye(3, dtype=np.complex64),
                                      [[np.complex128(1j), 1.0]], np.complex128(1j)])
    def test_complex_rows_raise(self, rows):
        # numpy's cast kept the real parts: np.eye(3) * 1j measured all zeros
        with pytest.raises(ShapeMismatchError, match="complex input"):
            pairwise_distances(rows)

    def test_complex_rows_to_as_ndim_raise(self):
        # kept the real part, 1.0, as one row
        with pytest.raises(ShapeMismatchError, match="complex input"):
            core.as_ndim([np.complex128(1j), 1.0], 2, np.float64)

    def test_int_too_large_for_float64_raises(self):
        # numpy's OverflowError escaped
        with pytest.raises(ShapeMismatchError, match="not a stack of numeric vectors"):
            pairwise_distances([[10**400, 0.0]])

    @pytest.mark.parametrize("entry", [core.ROW_BOUND, -core.ROW_BOUND, 1e154, -1.7e308])
    def test_entries_at_or_above_the_row_bound_raise(self, entry):
        # [[1e308], [-1e308]] measured an inf distance
        below = np.nextafter(core.ROW_BOUND, 0)
        assert pairwise_distances([[below], [-below]])[0, 1] == 2 * below
        with pytest.raises(ShapeMismatchError, match="non-finite entries, or entries of 1e"):
            pairwise_distances([[0.0, 1.0], [entry, 0.0]])

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
        """Every (row of x, row of y) distance by the pair kernel."""
        return np.sqrt(pair_kernel(x, y))

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
        # the pair kernel on rows a to b - 1 against every row, one pair per
        # chunk at each budget here; `full` took one block of diagonals
        x = rng.normal(size=(50, 7))
        full = pairwise_distances(x)
        monkeypatch.setattr(core, "DISTANCE_BLOCK_BYTES", budget)
        for a, b in ((0, 1), (3, 20), (49, 50), (0, 50)):
            rows, cols = np.divmod(np.arange(a * 50, b * 50), 50)
            got = np.sqrt(core._pair_distances(core._planes(x), rows, cols))
            assert got.tobytes() == full[a:b].tobytes()

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
        """The pair kernel over every pair of (x, y), and pairwise_distances on x."""
        for got, want in ((pair_kernel(x, y), oracles.distances(x, y, squared=True)),
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
        want = oracles.distances(x, x, squared=True)[rows, cols]
        monkeypatch.setattr(core, "DISTANCE_BLOCK_BYTES", budget)
        got = core._pair_distances(core._planes(x), rows, cols)
        assert got.tobytes() == want.tobytes()
        assert got[1] == got[2] == 0.0

    @pytest.mark.parametrize("budget", [1, 1000, 1 << 20])
    def test_block_budget_keeps_the_bits(self, rng, monkeypatch, budget):
        x, y = rng.normal(size=(70, 16)), rng.normal(size=(90, 16))
        monkeypatch.setattr(core, "DISTANCE_BLOCK_BYTES", budget)
        self.assert_same_bits(x, y)


class TestMirroredKernel:
    """The square kernel sums the wrapped diagonals 1 to n // 2 and writes
    each distance to its cell and to the mirror cell; the full square, the
    `np.sum` form on the rows against themselves, sums every entry."""

    @pytest.mark.parametrize("budget", [1, 1000, 8 * 16 * 64 * 16, 1 << 20])
    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 64, 100])
    @pytest.mark.parametrize("d", [1, 16, 129])
    def test_equals_the_full_square(self, rng, monkeypatch, budget, n, d):
        x = rng.normal(size=(n, d))
        x[n // 2] = x[0]  # a duplicate row
        monkeypatch.setattr(core, "DISTANCE_BLOCK_BYTES", budget)
        got = pairwise_distances(x)
        np.testing.assert_array_equal(got, oracles.distances(x, x))
        np.testing.assert_array_equal(got, got.T)
        assert got.tobytes() == oracles.distances(x, x).tobytes()

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 16, 17, 63, 64, 65, 700])
    @pytest.mark.parametrize("d", [0, 1, 7, 8, 9, 16, 129, 300])
    def test_every_diagonal_layout(self, rng, monkeypatch, n, d):
        # one block of every diagonal, one diagonal per block, and between
        x = rng.normal(size=(n, d)) * 3
        x[::2] = np.round(x[::2])  # integer grid: many exact ties
        if n > 3:
            x[n // 2], x[-1] = x[0], x[1]  # duplicate rows
        want = oracles.distances(x, x)
        for budget in (1, 1000, 1 << 20):
            monkeypatch.setattr(core, "DISTANCE_BLOCK_BYTES", budget)
            got = pairwise_distances(x)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert got.tobytes() == got.T.copy().tobytes()
            assert not np.diag(got).any()
            if n > 3:
                assert got[0, n // 2] == got[1, n - 1] == 0.0


class TestKernelMemory:
    """The square kernel's scratch and what it keeps cached."""

    @staticmethod
    def traced(call):
        """(result, peak, held): the peak of traced memory during `call` and
        the traced memory still held after it, beyond what it held before."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = call()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return out, peak - before, held - before

    def test_step_sized_call_stays_below_512_kib(self, rng):
        # a DAS step's 64 rows of width 16, its cell indices built afresh
        x = rng.normal(size=(64, 16))
        core._diagonal_cells.cache_clear()
        out, peak, _ = self.traced(lambda: pairwise_distances(x))
        assert peak - out.nbytes < 512 * 1024

    def test_large_call_leaves_a_bounded_cache(self, rng):
        # one table per call of 8 * n * n bytes would keep 32 MiB here
        x = rng.normal(size=(2048, 16))
        _, _, held = self.traced(lambda: pairwise_distances(x).shape)
        assert held <= 4 * 16 * core._CACHED_PAIRS  # four cached blocks of at most 64 KiB


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


# Four rows of width 3 in two classes, and every entry point that takes
# their labels: each calls `core.as_labels`.
_ROWS = np.eye(4, 3) + 0.5
_PARTITION = [0, 0, 1, 1]
LABEL_TAKERS = {
    "produce": lambda labels, rng: produce(_ROWS, labels, FrequencyRecorder(2, 3),
                                           TransformationBank(2, 3, 3), DasConfig(T=1, K=1), rng),
    "recorder_update": lambda labels, rng: FrequencyRecorder(2, 3).update(_ROWS, labels, 1),
    "bank_update": lambda labels, rng: TransformationBank(2, 3, 3).update(_ROWS, labels),
    "enqueue": lambda labels, rng: TransformationBank(2, 3, 3).enqueue(labels, _ROWS),
    "draw_scales": lambda labels, rng: draw_scales(np.ones((2, 3)), labels, 0.01, rng),
    "draw_shifts": lambda labels, rng: draw_shifts(TransformationBank(2, 3, 3), labels, 0.01,
                                                   rng),
    "combine_factors": lambda labels, rng: combine_factors(_ROWS, labels, [0, 1], np.ones((2, 3)),
                                                           np.zeros((2, 3))),
    "anchor_layout": lambda labels, rng: anchor_layout(labels),
    "multi_similarity_loss": lambda labels, rng: multi_similarity_loss(_ROWS, labels,
                                                                       LossSpec(kind="ms")),
    "recall_at_k": lambda labels, rng: recall_at_k(_ROWS, labels, [1]),
    "nmi": lambda labels, rng: nmi(_PARTITION, labels),
    "f1_score": lambda labels, rng: f1_score(_PARTITION, labels),
    "evaluate_embeddings": lambda labels, rng: evaluate_embeddings(_ROWS, labels, [1], rng),
}
# entry points that pair the labels with rows: a label count other than the
# row count is a "labels length" error there (the bank's enqueue names its
# transforms instead, and the others take any number of labels)
LENGTH_TAKERS = sorted(set(LABEL_TAKERS) - {"enqueue", "draw_scales", "draw_shifts",
                                            "anchor_layout"})
BAD_LABELS = {  # labels for the four rows: (error, the message's start)
    "float": ([1.5, 0, 1, 1], LabelOutOfRangeError, "label 1.5 is not an integer class id"),
    "nan": ([np.nan, 0, 1, 1], LabelOutOfRangeError, "label nan is not an integer class id"),
    "bool": ([True, False, True, False], LabelOutOfRangeError,
             "label True is not an integer class id"),
    "none": ([None, 0, 1, 1], LabelOutOfRangeError, "label None is not an integer class id"),
    "string": (["a", 0, 1, 1], LabelOutOfRangeError, "label 'a' is not an integer class id"),
    "2-d": (np.zeros((4, 1), dtype=np.int64), ShapeMismatchError,
            "expected a 1-D array, got shape (4, 1)"),
    "ragged": ([[0], [0, 1], [1], [1]], ShapeMismatchError, "input is not a 1-D numeric array"),
    "uint64 2**63": (np.array([2**63, 0, 1, 1], dtype=np.uint64), LabelOutOfRangeError,
                     "label 9223372036854775808 outside ["),
}


class TestOneLabelRule:
    """Every entry point that takes labels rejects the same bad labels with
    the same error and message, before any draw."""

    @pytest.mark.parametrize("case", sorted(BAD_LABELS))
    @pytest.mark.parametrize("call", sorted(LABEL_TAKERS))
    def test_bad_labels(self, call, case):
        labels, error, message = BAD_LABELS[case]
        rng = SeededRng(0)
        with pytest.raises(error, match="^" + re.escape(message)):
            LABEL_TAKERS[call](labels, rng)
        assert rng.random() == SeededRng(0).random()

    @pytest.mark.parametrize("call", LENGTH_TAKERS)
    def test_wrong_length(self, call):
        with pytest.raises(ShapeMismatchError, match=r"^labels length 3 != 4$"):
            LABEL_TAKERS[call]([0, 1, 1], SeededRng(0))

    @pytest.mark.parametrize("call", sorted(LABEL_TAKERS))
    def test_good_labels_pass(self, call):
        LABEL_TAKERS[call](np.array(_PARTITION, dtype=np.uint8), SeededRng(0))

    @pytest.mark.parametrize("value, want", [
        (1, True), (np.int64(1), True), (np.uint8(1), True), (2**70, True),
        (True, False), (np.True_, False), (1.0, False), (np.float64(1), False), ("1", False),
        (None, False),
    ])
    def test_is_int(self, value, want):
        assert core.is_int(value) is want
