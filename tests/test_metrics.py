import itertools
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import densedml.core as core
import densedml.metrics as metrics
from densedml.core import SeededRng
from densedml.errors import KOutOfRangeError, LabelOutOfRangeError, ShapeMismatchError
from densedml.metrics import (
    EvalReport,
    evaluate_embeddings,
    f1_score,
    kmeans,
    nmi,
    recall_at_k,
)

from conftest import random_unit_rows
import oracles


def brute_force_recall(emb, labels, k):
    emb = np.asarray(emb)
    hits = 0
    n = len(labels)
    for i in range(n):
        ranked = sorted(
            (j for j in range(n) if j != i),
            key=lambda j: (np.linalg.norm(emb[i] - emb[j]), j),
        )
        if any(labels[j] == labels[i] for j in ranked[:k]):
            hits += 1
    return hits / n


# ragged rows, an entry that is not a number, a vector, a stack of matrices,
# and a non-finite entry: each a ShapeMismatchError before any work
MALFORMED_ROWS = [
    [[0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0]],
    [[0.0, 1.0], [1.0, "a"], [0.0, 1.0]],
    [[0.0, 1.0], [1.0, object()], [0.0, 1.0]],
    np.zeros(3),
    np.zeros((3, 2, 2)),
    [[0.0, 1.0], [1.0, np.nan], [0.0, 1.0]],
]


class TestRecall:
    def test_separated_clusters(self):
        emb = np.array([[0.0, 0], [0.1, 0], [5.0, 5], [5.1, 5]])
        labels = np.array([0, 0, 1, 1])
        assert recall_at_k(emb, labels, [1])[1] == 1.0

    def test_singleton_classes(self):
        emb = np.array([[0.0, 0], [1.0, 1]])
        assert recall_at_k(emb, np.array([0, 1]), [1])[1] == 0.0

    def test_matches_brute_force(self):
        emb = np.array(
            [[0.0, 0.0], [1.0, 0.2], [0.4, 0.9], [2.0, 2.0], [1.8, 2.2], [0.3, 0.1]]
        )
        labels = np.array([0, 1, 0, 1, 0, 1])
        got = recall_at_k(emb, labels, [1, 2, 3])
        for k in (1, 2, 3):
            assert got[k] == brute_force_recall(emb, labels, k)

    def test_monotone_and_saturating(self, rng):
        emb = random_unit_rows(rng, 10, 4)
        labels = np.array([0, 0, 1, 1, 2, 2, 3, 3, 4, 4])
        got = recall_at_k(emb, labels, range(1, 10))
        vals = [got[k] for k in range(1, 10)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == 1.0  # every class has >= 2 members

    def test_k_too_large(self):
        with pytest.raises(KOutOfRangeError):
            recall_at_k(np.eye(3), np.array([0, 1, 2]), [3])

    def test_tie_break_lower_index(self):
        # two equidistant neighbors with different labels: index 1 wins
        emb = np.array([[0.0], [1.0], [-1.0]])
        labels = np.array([0, 1, 0])
        assert recall_at_k(emb, labels, [1])[1] == pytest.approx(1 / 3)

    def test_repeated_k_counted_once(self):
        emb = np.array([[0.0], [0.1], [5.0], [5.1]])
        assert recall_at_k(emb, np.array([0, 0, 1, 1]), [1, 1, 2]) == {1: 1.0, 2: 1.0}

    def test_label_length_mismatch(self):
        with pytest.raises(ShapeMismatchError, match="labels length"):
            recall_at_k(np.eye(3), [0, 1], [1])

    def test_k_below_one(self):
        with pytest.raises(KOutOfRangeError):
            recall_at_k(np.eye(3), np.array([0, 0, 1]), [0, 1])

    def test_no_k(self):
        with pytest.raises(KOutOfRangeError, match="at least one k"):
            recall_at_k(np.eye(3), np.array([0, 0, 1]), [])

    @pytest.mark.parametrize("rows", MALFORMED_ROWS)
    def test_malformed_rows(self, rows):
        with pytest.raises(ShapeMismatchError):
            recall_at_k(rows, np.array([0, 0, 1]), [1])

    def test_complex_rows(self):
        # numpy's cast ranked the real parts: {1: 0.5}
        with pytest.raises(ShapeMismatchError, match="complex input"):
            recall_at_k(np.eye(4) + 1j, [0, 0, 1, 1], [1])

    @pytest.mark.parametrize("labels", [np.zeros((12, 2), dtype=int), np.array(3)])
    def test_labels_not_one_per_point(self, labels):
        # a 2-D stack reached numpy's ndarray.take, a scalar an IndexError;
        # a scalar is one label, not twelve
        emb = SeededRng(2).normal(size=(12, 3))
        match = "labels length 1 != 12" if labels.ndim == 0 else "expected a 1-D array"
        with pytest.raises(ShapeMismatchError, match=match):
            recall_at_k(emb, labels, [1])
        with pytest.raises(ShapeMismatchError, match=match):
            evaluate_embeddings(emb, labels, [1], SeededRng(0))

    @pytest.mark.parametrize("labels", [[[0], [0, 1], [1], [1]], [None, 0, None, 0]])
    def test_labels_not_one_comparable_array(self, labels):
        # numpy's ValueError (ragged) or TypeError (None < 0) escaped; ragged
        # labels are not one vector, and None is not an integer label
        emb = np.eye(4)
        ragged = isinstance(labels[0], list)
        error = ShapeMismatchError if ragged else LabelOutOfRangeError
        match = "not a 1-D numeric array" if ragged else "label None is not an integer class id"
        for call in (lambda: recall_at_k(emb, labels, [1]),
                     lambda: evaluate_embeddings(emb, labels, [1], SeededRng(0)),
                     lambda: nmi([0, 0, 1, 1], labels), lambda: f1_score(labels, [0, 0, 1, 1])):
            with pytest.raises(error, match=match):
                call()

    @pytest.mark.parametrize("labels", [[np.nan, np.nan, 1, 1],
                                        np.array([np.nan, np.nan, 1, 1], dtype=object)])
    def test_nan_labels(self, labels):
        # recall gave each NaN point no partner (recall@1 0.5) while nmi put
        # every NaN in one class (nmi([0, 0, 1, 1], labels) was 1.0)
        emb = [[0.0], [0.1], [5.0], [5.1]]
        rng = SeededRng(0)
        for call in (lambda: recall_at_k(emb, labels, [1]),
                     lambda: evaluate_embeddings(emb, labels, [1], rng),
                     lambda: nmi([0, 0, 1, 1], labels), lambda: f1_score(labels, [0, 0, 1, 1])):
            with pytest.raises(LabelOutOfRangeError, match="label nan is not an integer class id"):
                call()
        assert rng.random() == SeededRng(0).random()  # rejected before any draw

    @pytest.mark.parametrize("ks", [[1.7], ["2"], [True], [1, 2.0], [None]])
    def test_k_not_an_integer(self, ks):
        # 1.7 was truncated to 1, "2" and True read as 2 and 1
        bad = next(k for k in ks if type(k) is not int)
        message = f"k={bad!r} outside [1, 3]: it must be an integer in range"
        with pytest.raises(KOutOfRangeError, match=f"^{re.escape(message)}$"):
            recall_at_k(np.eye(4), np.array([0, 0, 1, 1]), ks)

    @pytest.mark.parametrize("ks", [1, np.int64(2), 2.5, None])
    def test_ks_not_an_iterable(self, ks, monkeypatch):
        # a bare integer raised TypeError: 'int' object is not iterable
        monkeypatch.setattr(core, "_planes", None)  # no work is done
        with pytest.raises(KOutOfRangeError, match="recall ks must be an iterable"):
            recall_at_k(np.eye(4), np.array([0, 0, 1, 1]), ks)

    def test_numpy_integer_ks(self):
        emb, labels = np.eye(4), np.array([0, 0, 1, 1])
        got = recall_at_k(emb, labels, np.array([2, 1]))
        assert got == recall_at_k(emb, labels, [1, 2])
        assert all(type(k) is int for k in got)


@st.composite
def grid_split(draw):
    """Points on a small integer grid (many duplicates and tied distances) with
    labels from 1 to n classes, so some classes are singletons."""
    n = draw(st.integers(min_value=2, max_value=30))
    side = draw(st.integers(min_value=1, max_value=3))
    dim = draw(st.integers(min_value=1, max_value=3))
    n_classes = draw(st.integers(min_value=1, max_value=n))
    r = SeededRng(draw(st.integers(min_value=0, max_value=2**31)))
    emb = r.integers(side, size=(n, dim)).astype(float)
    return emb, r.integers(n_classes, size=n)


def draw_ks(data, n):
    # unique: the argsort oracle counts a repeated k twice (recall 2.0)
    ks = st.lists(st.integers(1, n - 1), min_size=1, max_size=4, unique=True)
    return data.draw(ks | st.just([n - 1]))


class TestRecallOracle:
    """The rank-count recall against the per-query stable argsort it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(grid_split(), st.data())
    def test_matches_stable_argsort(self, split, data):
        emb, labels = split
        ks = draw_ks(data, len(labels))
        assert recall_at_k(emb, labels, ks) == oracles.recall_at_k(emb, labels, ks)

    @settings(max_examples=50, deadline=None)
    @given(grid_split(), st.data())
    def test_singleton_classes_never_hit(self, split, data):
        emb, _ = split
        n = len(emb)
        labels = SeededRng(n).permutation(n)
        ks = draw_ks(data, n)
        got = recall_at_k(emb, labels, ks)
        assert got == oracles.recall_at_k(emb, labels, ks) == {k: 0.0 for k in ks}

    @settings(max_examples=100, deadline=None)
    @given(grid_split(), st.sampled_from([1, 3, 64]), st.data())
    def test_tiny_block_budget(self, split, rows, data):
        # 1: every row its own block; 3: a short last block; 64: n < 64
        emb, labels = split
        ks = draw_ks(data, len(labels))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "RECALL_BLOCK_ROWS", rows)
            got = recall_at_k(emb, labels, ks)
        assert got == oracles.recall_at_k(emb, labels, ks)

    # sorted, the 64-query blocks meet: runs of 1 to 4 points, 25 to 60 to
    # a block; singletons at rows 63, 64, 127, 128, 191 and 192; runs that
    # cross two or more block edges; and one label
    @pytest.mark.parametrize("lengths", [SeededRng(0).integers(1, 5, size=150),
                                         [63, 1, 1, 62, 1, 1, 62, 1, 1, 40],
                                         [30, 150, 7, 200, 1, 90], [300]])
    @pytest.mark.parametrize("seed", range(3))
    def test_label_runs_across_blocks(self, lengths, seed):
        # integer-grid points whose labels, sorted, make runs of `lengths`
        assert metrics.RECALL_BLOCK_ROWS == 64
        r = SeededRng(seed)
        labels = r.permutation(np.repeat(np.arange(len(lengths)), lengths))
        emb = r.integers(3, size=(len(labels), 2)).astype(float)
        ks = [1, 2, 4, 8]
        assert recall_at_k(emb, labels, ks) == oracles.recall_at_k(emb, labels, ks)

    def test_unit_rows_in_class_order(self):
        # a test split as training makes it: 16 classes, each a run of rows
        emb = random_unit_rows(SeededRng(6), 512, 16)
        ks = [1, 2, 4, 8]
        for labels in (np.repeat(np.arange(16), 32), np.repeat(np.arange(16), 32)[::-1]):
            assert recall_at_k(emb, labels, ks) == oracles.recall_at_k(emb, labels, ks)

    def test_large_split_matches(self):
        r = SeededRng(3)
        emb = r.normal(size=(600, 4))
        emb[300:] = emb[:300]  # every point has an exact duplicate
        labels = r.integers(20, size=600)
        ks = [1, 2, 4, 8, 599]
        assert recall_at_k(emb, labels, ks) == oracles.recall_at_k(emb, labels, ks)


@st.composite
def hard_split(draw):
    """Points where the Gram form rounds worst against the kernel: near-ties
    one ulp apart, duplicate rows, 1e6 offsets, scales 1e-3 to 1e6, and
    labels from 1 to n classes, so some classes are singletons."""
    n = draw(st.integers(min_value=3, max_value=60))
    dim = draw(st.integers(min_value=1, max_value=20))
    scale = draw(st.sampled_from([1e-3, 1.0, 37.0, 1e3, 1e6]))
    r = SeededRng(draw(st.integers(min_value=0, max_value=2**31)))
    x = r.normal(size=(n, dim)) * scale
    if draw(st.booleans()):  # a grid of tenths of the scale: exact ties
        x = np.round(x / scale, 1) * scale
    if draw(st.booleans()):  # far from the origin: |x|^2 dwarfs the distances
        x += 1e6
    if draw(st.booleans()):  # duplicate rows
        x[r.integers(n, size=n // 3)] = x[r.integers(n, size=n // 3)]
    if draw(st.booleans()):  # each odd row one ulp from the even row before it
        x[1::2] = np.nextafter(x[: 2 * (n // 2) : 2], np.inf)
    return x, r.integers(draw(st.integers(min_value=1, max_value=n)), size=n)


class TestRecallPrefilter:
    """The Gram-bounded recall against the rank count over every kernel
    distance that it replaced."""

    @staticmethod
    def kernel_entries(monkeypatch):
        """Counts the pairs that get a kernel distance."""
        seen = []
        pair_distances = core._pair_distances

        def spy(planes, rows, cols):
            seen.append(len(rows))
            return pair_distances(planes, rows, cols)

        monkeypatch.setattr(core, "_pair_distances", spy)
        return seen

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(hard_split(), st.data())
    def test_matches_rank_count(self, split, data):
        emb, labels = split
        ks = draw_ks(data, len(labels))
        assert recall_at_k(emb, labels, ks) == oracles.recall_rank_count(emb, labels, ks)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(hard_split(), st.data())
    def test_every_entry_ambiguous(self, split, data):
        # an infinite bound settles no entry: every distance is the kernel's
        emb, labels = split
        n = len(labels)
        ks = draw_ks(data, n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "GRAM_ERROR_SCALE", np.inf)
            seen = self.kernel_entries(mp)
            got = recall_at_k(emb, labels, ks)
        assert got == oracles.recall_rank_count(emb, labels, ks)
        _, inverse, sizes = np.unique(labels, return_inverse=True, return_counts=True)
        paired = np.count_nonzero(sizes[inverse] > 1)
        assert sum(seen) == paired * (n - 1)  # every other point, for each query that can hit

    def test_few_kernel_distances_on_unit_rows(self, monkeypatch):
        r = SeededRng(9)
        emb = random_unit_rows(r, 512, 16)
        labels = np.arange(512) % 16
        seen = self.kernel_entries(monkeypatch)
        got = recall_at_k(emb, labels, [1, 2, 4, 8])
        assert got == oracles.recall_rank_count(emb, labels, [1, 2, 4, 8])
        assert sum(seen) < 4 * 512  # of 512 * 511 entries


def antipodal_split(r, m, singles, dim):
    """m antipodal pairs of unit rows, each pair a class, so that each
    query's partner is its farthest point and almost every entry is
    certainly closer (at d = 1 every row is +-1 and every distance ties),
    and `singles` singleton classes, shuffled."""
    half = random_unit_rows(r, m, dim)
    x = np.vstack([half, -half, random_unit_rows(r, singles, dim)])
    labels = np.concatenate([np.arange(m), np.arange(m), m + np.arange(singles)])
    shuffle = r.permutation(len(x))
    return x[shuffle], labels[shuffle]


@st.composite
def far_partner_split(draw):
    """antipodal_split with n from 2 to 300, mostly not a multiple of
    RECALL_BLOCK_ROWS."""
    m = draw(st.integers(min_value=1, max_value=100))
    singles = draw(st.integers(min_value=0, max_value=m))
    dim = draw(st.integers(min_value=1, max_value=8))
    return antipodal_split(SeededRng(draw(st.integers(0, 2**31))), m, singles, dim)


class TestRecallOnePass:
    """One mask per block: the hot entries split into the counted and the
    window, against both oracles."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(far_partner_split(), st.data())
    def test_far_partners(self, split, data):
        emb, labels = split
        ks = draw_ks(data, len(labels))
        got = recall_at_k(emb, labels, ks)
        assert got == oracles.recall_at_k(emb, labels, ks)
        assert got == oracles.recall_rank_count(emb, labels, ks)

    @pytest.mark.parametrize("n", [65, 127, 130, 200])
    def test_blocks_that_do_not_divide_n(self, n):
        emb, labels = antipodal_split(SeededRng(n), n // 3, n - 2 * (n // 3), 3)
        ks = list(range(1, n))
        got = recall_at_k(emb, labels, ks)
        assert got == oracles.recall_at_k(emb, labels, ks)
        assert got == oracles.recall_rank_count(emb, labels, ks)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(grid_split(), st.data())
    def test_exact_grids_with_no_margin(self, split, data):
        # on a small integer grid every Gram form is exact, so E = 0 bounds
        # it; a duplicate partner (a_min = 0, reach = 0) then sits on both
        # bars, and the window must keep it: >= for the mask, > for closer
        emb, labels = split
        ks = draw_ks(data, len(labels))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "GRAM_ERROR_SCALE", 0.0)
            got = recall_at_k(emb, labels, ks)
        assert got == oracles.recall_at_k(emb, labels, ks)

    @pytest.mark.parametrize("scale", [3e153, 1e154, 1e155])
    def test_norms_that_overflow(self, scale, monkeypatch):
        # rows whose |x|^2 is inf or near it: they took E = +inf and a NaN G
        # through the kernel; now one row at the scale is rejected up front
        r = SeededRng(7)
        emb = 1 + 0.01 * r.normal(size=(150, 3))
        emb[r.integers(150)] *= scale
        seen = TestRecallPrefilter.kernel_entries(monkeypatch)
        with pytest.raises(ShapeMismatchError, match="1e\\+100 or more in magnitude"):
            recall_at_k(emb, r.integers(60, size=150), [1, 2, 5, 149])
        assert seen == []

    def test_distances_that_overflow_to_inf(self):
        # rows of about +-1e154, whose squared distances overflowed to inf,
        # and rows at the bound, in either sign, are rejected by the kernel
        # and by recall alike
        for split in range(40):
            r = SeededRng(split, 5)
            n, d = int(r.integers(4, 40)), int(r.integers(1, 4))
            emb = (1 + 0.01 * abs(r.normal(size=(n, d)))) * [1e154, core.ROW_BOUND][split % 2]
            emb[r.permutation(n)[: n // 2]] *= -1
            labels = r.integers(max(1, n // 3), size=n)
            for call in (lambda: recall_at_k(emb, labels, [1]),
                         lambda: core.pairwise_distances(emb)):
                with pytest.raises(ShapeMismatchError, match="non-finite entries, or entries"):
                    call()

    def test_far_partner_scratch(self, monkeypatch):
        # every entry hot, almost all counted: the planes, norms, plane copy,
        # order, runs and ranks, the product, the mask and 40 bytes per hot
        # entry, as the docstring's Scratch gives them
        n, d, b = 2048, 16, metrics.RECALL_BLOCK_ROWS
        emb, labels = antipodal_split(SeededRng(11), n // 2, 0, d)
        seen = TestRecallPrefilter.kernel_entries(monkeypatch)
        tracemalloc.start()
        try:
            recall_at_k(emb, labels, [1, 2, 4, 8])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * (d + 5) * n + 8 * d * n + 9 * b * n + 40 * b * n
        assert sum(seen) < 4 * n  # of n * (n - 1) entries


@st.composite
def kmeans_split(draw):
    """hard_split's points, a quarter of them cut to d = 1 and some moved
    onto three sites so that clusters empty out, with k from 1 to n (1 and n
    drawn often)."""
    x, _ = draw(hard_split())
    n = len(x)
    if draw(st.integers(0, 3)) == 0:
        x = x[:, :1]
    if draw(st.booleans()):
        x = x[SeededRng(draw(st.integers(0, 2**31))).integers(3, size=n)]
    return x, draw(st.integers(1, n) | st.sampled_from([1, n]))


class TestRowBound:
    """Rows just below core.ROW_BOUND: every value the kernel, recall and
    k-means form from them stays finite."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # an overflow, or inf - inf
    @pytest.mark.parametrize("n, d", [(4096, 300), (2048, 16), (3000, 1)])
    def test_rows_at_the_bound_stay_finite(self, n, d):
        r = SeededRng(n)
        edge = np.nextafter(core.ROW_BOUND, 0)
        x = np.where(r.random((n, d)) < 0.5, -edge, edge)
        x[1] = -x[0]  # the farthest pair: 2 * edge in every coordinate
        dist = core.pairwise_distances(x[:200])
        assert np.isfinite(dist).all()
        assert dist[0, 1] == pytest.approx(2 * edge * np.sqrt(d), rel=1e-13)
        assert set(recall_at_k(x, r.integers(16, size=n), [1, 2])) == {1, 2}
        _, centers = kmeans(x, 16, SeededRng(0))
        assert np.isfinite(centers).all()


class TestKmeansPrefilter:
    """The Gram-bounded assignment against the all-kernel argmin of the
    full-tensor oracle."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(kmeans_split(), st.integers(0, 2**31))
    def test_matches_oracle(self, split, seed):
        x, k = split
        TestKmeansOracle.assert_same(x, k, seed)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kmeans_split(), st.integers(0, 2**31))
    def test_every_pair_ambiguous(self, split, seed):
        # an infinite bound settles no point: each sweep measures all n * k pairs
        x, k = split
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "GRAM_ERROR_SCALE", np.inf)
            seen = TestRecallPrefilter.kernel_entries(mp)
            TestKmeansOracle.assert_same(x, k, seed)
        if k == 1:
            assert seen == []  # one candidate per point
        else:
            assert seen and set(seen) == {len(x) * k}

    def test_norms_that_overflow(self):
        # |x|^2 overflowed, so E was +inf and G NaN: rejected before any draw
        x = (1 + 0.01 * SeededRng(5).normal(size=(30, 3))) * 1e154
        for k in (1, 2, 5):
            rng = SeededRng(k)
            with pytest.raises(ShapeMismatchError, match="1e\\+100 or more in magnitude"):
                kmeans(x, k, rng)
            assert rng.random() == SeededRng(k).random()

    def test_few_kernel_distances_on_unit_rows(self, monkeypatch):
        r = SeededRng(9)
        x = random_unit_rows(r, 2048, 16)
        seen = TestRecallPrefilter.kernel_entries(monkeypatch)
        TestKmeansOracle.assert_same(x, 16, 0)
        assert sum(seen) < 2048  # of 2048 * 16 per sweep


class TestKmeans:
    def test_k_equals_n(self, rng):
        x = random_unit_rows(rng, 5, 3)
        assign, _ = kmeans(x, 5, rng)
        assert len(set(assign.tolist())) == 5

    def test_two_far_pairs(self, rng):
        x = np.array([[0.0, 0], [0.1, 0], [9.0, 9], [9.1, 9]])
        assign, _ = kmeans(x, 2, rng)
        assert assign[0] == assign[1] and assign[2] == assign[3]
        assert assign[0] != assign[2]

    def test_k_too_large(self, rng):
        with pytest.raises(KOutOfRangeError):
            kmeans(np.eye(3), 4, rng)

    @pytest.mark.parametrize("rows", MALFORMED_ROWS)
    def test_malformed_rows(self, rows):
        rng = SeededRng(3)
        with pytest.raises(ShapeMismatchError):
            kmeans(rows, 2, rng)
        assert rng.random() == SeededRng(3).random()  # rejected before any draw

    def test_complex_rows(self):
        # numpy's cast clustered the real parts
        rng = SeededRng(3)
        with pytest.raises(ShapeMismatchError, match="complex input"):
            kmeans(np.eye(4) + 1j, 2, rng)
        assert rng.random() == SeededRng(3).random()

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one(self, k):
        rng = SeededRng(3)
        with pytest.raises(KOutOfRangeError,
                           match=rf"^k={k} outside \[1, 3\]: it must be an integer in range$"):
            kmeans(np.eye(3), k, rng)
        assert rng.random() == SeededRng(3).random()  # rejected before any draw

    @pytest.mark.parametrize("k", [2.5, 2.0, True, "2", None])
    def test_k_not_an_integer(self, k):
        # 2.5 and True raised numpy's TypeError
        rng = SeededRng(3)
        message = f"k={k!r} outside [1, 3]: it must be an integer in range"
        with pytest.raises(KOutOfRangeError, match=f"^{re.escape(message)}$"):
            kmeans(np.eye(3), k, rng)
        assert rng.random() == SeededRng(3).random()  # rejected before any draw

    @pytest.mark.parametrize("max_iter", [0, -2, 1.5, 3.0, True, None])
    def test_max_iter_not_a_positive_integer(self, max_iter):
        # 0 returned an assignment of all -1
        rng = SeededRng(3)
        with pytest.raises(KOutOfRangeError, match="max_iter"):
            kmeans(np.eye(3), 2, rng, max_iter=max_iter)
        assert rng.random() == SeededRng(3).random()  # rejected before any draw

    def test_numpy_integer_arguments(self, rng):
        x = random_unit_rows(rng, 12, 3)
        a, ca = kmeans(x, np.int64(3), SeededRng(5), max_iter=np.int32(4))
        b, cb = kmeans(x, 3, SeededRng(5), max_iter=4)
        np.testing.assert_array_equal(a, b)
        assert ca.tobytes() == cb.tobytes()

    def test_seeding_distances_that_overflow(self):
        # rows of +-0.999 sqrt(max / 128) at d = 16: every squared distance
        # is finite, but seeding's total of 30 of them overflowed to inf
        # (NumericOverflowError); rows this large are rejected before any draw
        edge = 0.999 * np.sqrt(np.finfo(np.float64).max / 128)
        x = np.where(SeededRng(5).random((30, 16)) < 0.5, -edge, edge)
        rng = SeededRng(0)
        with pytest.raises(ShapeMismatchError, match="1e\\+100 or more in magnitude"):
            kmeans(x, 2, rng)
        assert rng.random() == SeededRng(0).random()

    def test_matches_exhaustive_optimum_at_n8(self):
        r = SeededRng(7)
        x = np.vstack(
            [r.normal(size=(4, 2)) * 0.2 + [0, 0], r.normal(size=(4, 2)) * 0.2 + [4, 4]]
        )

        def inertia(partition):
            total = 0.0
            for members in partition:
                pts = x[list(members)]
                total += float(((pts - pts.mean(axis=0)) ** 2).sum())
            return total

        best, best_val = None, np.inf
        for bits in range(1, 127):  # nonempty proper subsets of 8 points
            left = frozenset(i for i in range(8) if bits >> i & 1)
            right = frozenset(range(8)) - left
            val = inertia([left, right])
            if val < best_val:
                best, best_val = frozenset([left, right]), val

        assign, _ = kmeans(x, 2, SeededRng(0))
        got = frozenset(
            [frozenset(np.flatnonzero(assign == c).tolist()) for c in set(assign.tolist())]
        )
        assert got == best

    def test_deterministic(self, rng):
        x = random_unit_rows(rng, 12, 3)
        a, _ = kmeans(x, 3, SeededRng(5))
        b, _ = kmeans(x, 3, SeededRng(5))
        np.testing.assert_array_equal(a, b)


def class_ordered_split(r, classes, per_class, dim, spread=0.3):
    """Gaussian classes about unit-scale centers, each a run of rows, as
    training's test splits hold them."""
    centers = r.normal(size=(classes, dim))
    return np.repeat(centers, per_class, axis=0) + spread * r.normal(size=(classes * per_class, dim))


class TestKmeansOracle:
    """Running-minimum seeding, the point-major centroid sums and the
    moved-point bins against the full-tensor seeding and per-cluster row
    sums they replaced: the assignment and the centroids byte for byte,
    signed zeros included."""

    @staticmethod
    def assert_same(x, k, seed, max_iter=100):
        rng_got, rng_want = SeededRng(seed), SeededRng(seed)
        got, got_centers = kmeans(x, k, rng_got, max_iter)
        want, want_centers = oracles.kmeans(x, k, rng_want, max_iter)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert got_centers.tobytes() == want_centers.tobytes()
        # both consumed the stream identically
        assert rng_got.integers(2**31) == rng_want.integers(2**31)
        return got

    @settings(max_examples=200, deadline=None)
    @given(grid_split(), st.data())
    def test_matches_on_grids(self, split, data):
        emb, _ = split
        k = data.draw(st.integers(1, len(emb)))
        self.assert_same(emb, k, data.draw(st.integers(0, 2**31)))

    @settings(max_examples=50, deadline=None)
    @given(grid_split(), st.integers(0, 2**31))
    def test_k_equals_n(self, split, seed):
        emb, _ = split
        self.assert_same(emb, len(emb), seed)

    def test_clusters_that_empty_out(self):
        # all points equal: every later center duplicates the first, and ties
        # go to centroid 0, so clusters 1..k-1 empty and keep their centers
        assign = self.assert_same(np.ones((6, 2)), 3, 0)
        np.testing.assert_array_equal(assign, np.zeros(6))
        # 40 points on 4 grid sites, 6 clusters: at least two are empty;
        # then with -0.0 for 0.0, which an emptied cluster keeps
        emb = SeededRng(11).integers(2, size=(40, 2)).astype(float)
        for seed in range(20):
            assert len(set(self.assert_same(emb, 6, seed).tolist())) <= 4
        emb[emb == 0] = -0.0
        for seed in range(10):
            assert len(set(self.assert_same(emb, 6, seed).tolist())) <= 4

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(hard_split(), st.integers(0, 2**31))
    def test_k_one_and_k_n_on_hard_splits(self, split, seed):
        x, _ = split
        for k in (1, len(x)):
            self.assert_same(x, k, seed)

    @pytest.mark.parametrize("dim", [1, 3, 16, 17])
    def test_class_ordered_points(self, dim):
        x = class_ordered_split(SeededRng(dim), 16, 64, dim)
        for seed in range(3):
            self.assert_same(x, 16, seed)

    def test_sweeps_where_few_points_move(self):
        # every sweep of a slow run: the first moves all 768 points, the
        # second 138, and the last few before the fixpoint one or two
        x = class_ordered_split(SeededRng(4), 12, 64, 8, spread=0.8)
        sweeps = [self.assert_same(x, 12, 1, max_iter) for max_iter in range(1, 16)]
        moved = [np.count_nonzero(a != b) for a, b in zip(sweeps, sweeps[1:])]
        assert 0 < min(m for m in moved if m) < 10 and moved[0] < len(x) // 4
        assert moved[-1] == 0  # the fixpoint is reached

    @pytest.mark.parametrize("block_bytes", [1, 100, 4096])
    def test_bins_rebuilt_in_many_chunks(self, block_bytes, monkeypatch):
        # chunks of one point; of 12 (d = 1) and one (d = 8); of 512 and
        # 64, one chunk but at d = 8 on the first sweep
        monkeypatch.setattr(core, "DISTANCE_BLOCK_BYTES", block_bytes)
        for dim in (1, 8):
            x = class_ordered_split(SeededRng(dim), 6, 40, dim, spread=0.8)
            self.assert_same(x, 6, 2)

    def test_gaussian_split_matches(self):
        r = SeededRng(4)
        x = np.vstack([r.normal(size=(100, 8)) + 3 * r.normal(size=8) for _ in range(8)])
        self.assert_same(x, 8, 1)
        self.assert_same(x, 8, 2, max_iter=2)


class TestKmeansScratch:
    """tracemalloc peaks of k-means at n = 2048, d = k = 16 on unit rows,
    against the docstring's Scratch."""

    n, d, k = 2048, 16, 16

    def points(self):
        return random_unit_rows(SeededRng(9), self.n, self.d)

    def test_within_the_documented_scratch(self, monkeypatch):
        n, d, k = self.n, self.d, self.k
        several = []  # (points, candidates) of each sweep's kernel call
        pair_distances = core._pair_distances

        def spy(planes, rows, cols):
            several.append((len(np.unique(cols)), len(rows)))
            return pair_distances(planes, rows, cols)

        monkeypatch.setattr(core, "_pair_distances", spy)
        x = self.points()
        tracemalloc.start()
        try:
            kmeans(x, k, SeededRng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        chunk = core.DISTANCE_BLOCK_BYTES // (8 * d)
        kept = 8 * (d + 1) * (n + k) + 16 * d * n + 8 * n + 8 * k * d
        sweep = (10 * k * n + 48 * n + 8 * k * d + 8 * d * chunk + 16 * chunk
                 + max((10 * k * p + 48 * c for p, c in several), default=0))
        assert peak <= kept + sweep

    def test_seeding_subtracts_without_a_buffer(self, monkeypatch):
        # the broadcast center (points[:, chosen, None]) drew numpy's
        # iterator buffers, 66.8 KB a center: about 23 KB over this bound
        n, d, k = self.n, self.d, self.k
        peaks = []
        sum_leading = core._sum_leading

        def spy(terms, out):  # seeding calls it once a center, after the subtraction
            peaks.append(tracemalloc.get_traced_memory()[1])
            return sum_leading(terms, out)

        monkeypatch.setattr(core, "_sum_leading", spy)
        x = self.points()
        tracemalloc.start()
        try:
            kmeans(x, k, SeededRng(0), max_iter=1)
        finally:
            tracemalloc.stop()
        # the planes, the point-major copy, the norms, the squared
        # differences and five n-vectors
        assert max(peaks[:k]) <= 8 * (d + 1) * (n + k) + 16 * d * n + 8 * n + 40 * n


def assert_centroids_are_means(x, k, seed, max_iter=100):
    """kmeans' centroid of each non-empty cluster is numpy's mean of its
    members, bit for bit (signed zeros included)."""
    assign, centers = kmeans(x, k, SeededRng(seed), max_iter)
    for j in np.unique(assign):
        assert centers[j].tobytes() == x[assign == j].mean(axis=0).tobytes()
    return assign, centers


@st.composite
def centroid_split(draw):
    """Points in 2 to 40 dimensions at scales from 1e-300 to 1e95, below
    core.ROW_BOUND (squared distances near 1e192), some entries -0.0 or
    +0.0, some rows moved onto three sites so that clusters empty out, with
    k from 1 to n."""
    n = draw(st.integers(min_value=3, max_value=60))
    dim = draw(st.integers(min_value=2, max_value=40))
    scale = draw(st.sampled_from([1e-300, 1e-3, 1.0, 1e6, 1e95]))
    r = SeededRng(draw(st.integers(min_value=0, max_value=2**31)))
    x = r.normal(size=(n, dim)) * scale
    if draw(st.booleans()):  # signed zeros, whole columns and scattered entries
        x[:, r.integers(dim)] = -0.0
        x[r.random(size=x.shape) < 0.3] = draw(st.sampled_from([-0.0, 0.0]))
    if draw(st.booleans()):
        x = x[r.integers(3, size=n)]
    return x, draw(st.integers(1, n) | st.sampled_from([1, n]))


class TestKmeansCentroids:
    """A centroid is its members summed in index order from +0.0, divided by
    their count: numpy's mean(axis=0) for d >= 2; at d = 1, where numpy's
    mean sums pairwise, the running sum."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(centroid_split(), st.integers(0, 2**31), st.sampled_from([1, 2, 3, 100]))
    def test_mean_bits_for_d_at_least_two(self, split, seed, max_iter):
        x, k = split
        assert_centroids_are_means(x, k, seed, max_iter)

    def test_sums_that_overflow(self):
        # three rows at 1e308, whose sums overflowed to inf: rejected before
        # any draw
        x = np.array([[1e308, 1.0, -0.0], [1e308, 2.0, -0.0], [1e308, 4.0, 0.0]])
        rng = SeededRng(0)
        with pytest.raises(ShapeMismatchError, match="1e\\+100 or more in magnitude"):
            kmeans(x, 1, rng)
        assert rng.random() == SeededRng(0).random()

    def test_emptied_cluster_keeps_its_signed_zero(self):
        # all points equal: clusters 1 and 2 empty out and keep their seeded
        # center, -0.0 included; cluster 0's sum starts from +0.0
        x = np.tile([-0.0, 3.0], (6, 1))
        assign, centers = assert_centroids_are_means(x, 3, 0)
        np.testing.assert_array_equal(assign, np.zeros(6))
        assert np.signbit(centers[:, 0]).tolist() == [False, True, True]
        np.testing.assert_array_equal(centers[:, 1], [3.0, 3.0, 3.0])

    def test_running_sum_at_d_one(self):
        # numpy's mean sums this 50-row column pairwise (eight accumulators),
        # and its last bit differs from the running sum's
        x = SeededRng(0).normal(size=(50, 1))
        total = 0.0
        for v in x[:, 0].tolist():
            total += v
        assert total / 50 != x.mean(axis=0)[0]  # the two rules differ here
        _, centers = kmeans(x, 1, SeededRng(0))
        assert centers[0, 0] == total / 50

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 100])
    @pytest.mark.parametrize("seed", range(4))
    def test_exact_sums_at_d_one_keep_the_mean(self, seed, max_iter):
        # sums of +-1 rows (a unit-row split at embed_dim 1) and of small
        # integers are exact in any order: every sweep's centroids are
        # numpy's means, as before the running-sum rule
        r = SeededRng(seed)
        signs = r.choice([-1.0, 1.0], size=(200, 1))
        grid = r.integers(-3, 4, size=(200, 1)).astype(float)
        for x in (signs, grid):
            for k in (1, 2, 3, 5):
                assert_centroids_are_means(x, k, seed, max_iter)


class TestNmi:
    def test_perfect_match(self):
        assert nmi([0, 0, 1, 1], [0, 0, 1, 1]) == pytest.approx(1.0)

    def test_single_cluster_zero(self):
        assert nmi([0, 0, 0, 0], [0, 1, 0, 1]) == 0.0

    def test_independent_partitions(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            nmi([0, 1], [0, 1, 1])

    def test_empty_inputs(self):
        with pytest.raises(ShapeMismatchError, match="empty inputs"):
            nmi([], [])

    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("score", [nmi, f1_score])
    def test_not_one_dimensional(self, score, swap):
        # a (4, 2) assignment reached numpy's IndexError, in either order
        args = (np.zeros((4, 2)), [0, 0, 1, 1])
        with pytest.raises(ShapeMismatchError, match=r"expected a 1-D array, got shape \(4, 2\)"):
            score(*(args[::-1] if swap else args))

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_relabel_invariance_and_range(self, seed):
        r = SeededRng(seed)
        assign = r.integers(3, size=12)
        labels = r.integers(3, size=12)
        base = nmi(assign, labels)
        assert 0.0 <= base <= 1.0
        relabeled = (assign + 1) % 3
        assert nmi(relabeled, labels) == pytest.approx(base, abs=1e-12)


class TestF1:
    def test_perfect_clustering(self):
        assert f1_score([1, 1, 0, 0], [0, 0, 1, 1]) == pytest.approx(1.0)

    def test_all_singletons(self):
        assert f1_score([0, 1, 2, 3], [0, 0, 1, 1]) == 0.0

    def test_hand_computed_example(self):
        # precision 1/2, recall 1/3 -> F1 = 0.4
        assert f1_score([0, 0, 1, 1], [0, 0, 0, 1]) == pytest.approx(0.4)

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_relabel_invariance_and_range(self, seed):
        r = SeededRng(seed)
        assign = r.integers(3, size=10)
        labels = r.integers(2, size=10)
        base = f1_score(assign, labels)
        assert 0.0 <= base <= 1.0
        assert f1_score((assign + 2) % 3, labels) == pytest.approx(base, abs=1e-12)

    def test_pair_enumeration_oracle(self, rng):
        assign = rng.integers(3, size=9)
        labels = rng.integers(3, size=9)
        tp = fp = fn = 0
        for i, j in itertools.combinations(range(9), 2):
            same_c = assign[i] == assign[j]
            same_l = labels[i] == labels[j]
            tp += same_c and same_l
            fp += same_c and not same_l
            fn += same_l and not same_c
        if tp + fp == 0 or tp + fn == 0:
            expected = 0.0
        else:
            prec, rec = tp / (tp + fp), tp / (tp + fn)
            expected = 0.0 if prec + rec == 0 else 2 * prec * rec / (prec + rec)
        assert f1_score(assign, labels) == pytest.approx(expected)


class TestEvaluate:
    def test_full_protocol_on_separated_data(self, rng):
        x = np.vstack([random_unit_rows(rng, 6, 3) * 0.1 + c for c in ([0, 0, 4], [4, 0, 0])])
        labels = np.repeat([0, 1], 6)
        report = evaluate_embeddings(x, labels, [1, 2], SeededRng(0))
        assert isinstance(report, EvalReport)
        assert report.recall_at[1] == 1.0
        assert report.nmi == pytest.approx(1.0)
        assert report.f1 == pytest.approx(1.0)
        assert report.n_queries == 12

    def test_peak_memory_a_tenth_of_the_distance_matrix(self):
        r = SeededRng(8)
        n = 2048
        x = r.normal(size=(n, 16))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        labels = r.integers(16, size=n)
        tracemalloc.start()
        try:
            evaluate_embeddings(x, labels, [1, 2, 4, 8], SeededRng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n / 10  # the n x n float64 matrix is 32 MiB

    def test_does_not_import_numpy_ma(self):
        # numpy 2.4's bare np.unique calls np.ma.is_masked, which imports
        # numpy.ma on first use, about 20 ms of a fresh interpreter
        script = (
            "import sys\n"
            "from densedml.config import RunConfig\n"
            "from densedml.core import SeededRng\n"
            "from densedml.metrics import evaluate_embeddings\n"
            "from densedml.training import build_dataset\n"
            "cfg = RunConfig()\n"
            "ds = build_dataset(cfg, SeededRng(cfg.seed))\n"
            "evaluate_embeddings(ds.features, ds.labels, [1, 2], SeededRng(0))\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(metrics.__file__))  # the package's parent
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, check=True)
        assert out.stdout.strip() == "False"

    def test_json_keys(self):
        report = EvalReport({1: 0.5, 4: 0.75}, 0.3, 0.2, 10)
        doc = report.to_json_dict(step=30)
        assert list(doc) == ["step", "recall@1", "recall@4", "nmi", "f1", "n_queries"]
