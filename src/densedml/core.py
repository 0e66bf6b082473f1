"""Deterministic vector/matrix primitives shared by every other module.

All functions operate on float64 numpy arrays and are pure; the RNG below is
the single source of randomness for the whole package.
"""

from __future__ import annotations

import functools
import numbers
import warnings

import numpy as np

from .errors import KOutOfRangeError, LabelOutOfRangeError, ShapeMismatchError

ZERO_NORM_EPS = 1e-12

# Byte budget of the kernels' difference blocks.  The square kernel,
# `pairwise_distances`, gives each block of diagonals two budgets: a DAS
# step's 64 rows of width 16 then take one 256 KiB block for all 32
# diagonals, which ran faster than two 128 KiB blocks.  A training step's
# temporaries stay below 512 KiB: glibc serves such a block by mmap, and
# freeing one moves its threshold for every later allocation
# (perfbench/hostspeed.py's reference kernel included).  Recall@k's query
# blocks do not read it: metrics.RECALL_BLOCK_ROWS fixes them at 64 rows,
# which keeps evaluation on a training run's 512-point test split below
# 512 KiB per temporary too.
DISTANCE_BLOCK_BYTES = 128 * 1024

# Named sub-streams derived from one run seed.  Keeping concerns on separate
# streams means toggling one component (e.g. embedding production) cannot
# perturb the draws seen by another (e.g. triplet sampling).
STREAMS = {"init": 0, "data": 1, "das": 2, "sampler": 3, "eval": 4}


class SeededRng(np.random.Generator):
    """numpy's Generator over Philox-4x64-10, keyed by ``SeedSequence([seed, stream])``.

    Same (seed, stream) gives a bit-identical draw sequence on every run and
    platform for a fixed numpy version; streams with different ids are
    statistically independent.  That holds for the draws, not for a run: the
    BLAS kernel and SIMD dispatch a CPU selects move a run's other bits.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        super().__init__(np.random.Philox(np.random.SeedSequence([self.seed, self.stream])))

    def derive(self, name: str) -> "SeededRng":
        """Child stream for a named concern (see STREAMS)."""
        return SeededRng(self.seed, STREAMS[name])


def label_masks(labels):
    """n x n masks: same-label partners (self excluded) and other-label rows.

    Every sampler and the multi-similarity loss mine from this one pair.
    """
    labels = np.asarray(labels)
    other = labels[:, None] != labels[None, :]
    same = ~other
    same.flat[:: same.shape[0] + 1] = False  # the diagonal
    return same, other


# Every entry of the rows that `_as_rows` accepts is below this in
# magnitude, and no float64 that the kernels or the evaluation form from
# them overflows.  numpy holds fewer than 2**63 < 1e19 entries in one array,
# so n*d < 1e19.  A coordinate difference is below 2e100 and its square below
# 4e200, so a squared distance (d such terms), a squared norm and a Gram entry
# are below 4e219; so is k-means seeding's total of n squared distances, below
# 4e200 * n*d.  A centroid's sum of n entries is below 1e119, and
# recall_at_k's bound E = 32 (d + 8) (2**-53 M + 2**-1074), M a squared norm,
# is below 1e225.
ROW_BOUND = 1e100


def _as_rows(rows) -> np.ndarray:
    """A 2-D array, or a sequence of equal-length rows, as float64 with every
    entry below ROW_BOUND in magnitude; an empty sequence is no rows of no
    columns."""
    try:
        x = np.asarray(rows)
        if x.dtype != np.float64:  # a float64 array passes on this one call
            x = _cast(rows, np.float64)
    except (ValueError, TypeError, OverflowError) as exc:  # ragged, or entries not float64's
        raise ShapeMismatchError(f"input rows are not a stack of numeric vectors: {exc}") from exc
    if x.shape == (0,):
        return np.zeros((0, 0))
    if x.ndim != 2:
        raise ShapeMismatchError(f"expected 2-D stack of vectors, got {x.shape}")
    if not np.maximum.reduce(np.abs(x), None, initial=0.0) < ROW_BOUND:  # NaN fails too
        raise ShapeMismatchError(f"non-finite entries, or entries of {ROW_BOUND:g} or more "
                                 "in magnitude, in input rows")
    return x


def _cast(x, dtype) -> np.ndarray:
    """np.asarray(x, dtype), for input that np.asarray alone does not give
    as `dtype`.  Complex input, in an array or as an entry, is a
    ShapeMismatchError: numpy would drop its imaginary part with no more
    than a ComplexWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        try:
            return np.asarray(x, dtype=dtype)
        except np.exceptions.ComplexWarning as exc:
            raise ShapeMismatchError(f"complex input: {exc}") from exc


def as_ndim(x, ndim, dtype=None, shape=None, name="input") -> np.ndarray:
    """np.asarray(x, dtype) with leading unit axes up to `ndim` (1 or 2), as
    np.atleast_1d/np.atleast_2d add them; an array that deep passes as is.
    An empty vector, [] among them, is no rows where `ndim` is 2: (0, w) for
    a `shape` of width w, else (0, 0), as `_as_rows` gives.
    The package's one shape rule: input numpy cannot convert (ragged, or not
    numbers where `dtype` asks for them), complex input where `dtype` is
    real, input deeper than `ndim`, and input whose shape is not `shape`
    (`ndim` lengths, a first of None free) when that is given are a
    ShapeMismatchError.  A wrong shape names the input and gives both
    shapes, a free length as *: "embeddings (2, 5) != (*, 4)"."""
    try:
        arr = x if type(x) is np.ndarray else np.asarray(x)
        if dtype is not None and arr.dtype != dtype:  # an array of `dtype` passes on no call
            arr = _cast(x, dtype)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ShapeMismatchError(f"{name} is not a {ndim}-D numeric array: {exc}") from exc
    if arr.ndim != ndim:
        if arr.ndim > ndim and shape is None:
            raise ShapeMismatchError(f"expected a {ndim}-D array, got shape {arr.shape}")
        if arr.shape == (0,) and ndim == 2:  # no rows, of the width `shape` gives or of none
            arr = arr.reshape(0, shape[1] if shape else 0)
        else:
            arr = (np.atleast_1d if ndim == 1 else np.atleast_2d)(arr)  # a deeper one as it is
    # tuple tests only: no call, and a free first length is one slice
    if shape is not None and arr.shape != shape and (
            shape[0] is not None or arr.shape[1:] != shape[1:]):
        raise ShapeMismatchError(f"{name} {np.shape(x)} != {str(shape).replace('None', '*')}")
    return arr


def check_count(value, lo, hi, name) -> None:
    """The package's one count rule, for DAS's K, each recall k and k-means'
    k and max_iter: KOutOfRangeError("K=5 outside [1, 4]: it must be an
    integer in range") unless `value` is an integer, numpy's but not a bool,
    in [lo, hi] (hi None: no upper bound).  An int passes on no call."""
    if not (type(value) is int or isinstance(value, numbers.Integral)
            and not isinstance(value, bool)) or value < lo or hi is not None and value > hi:
        bound = "inf)" if hi is None else f"{hi}]"
        raise KOutOfRangeError(f"{name}={value!r} outside [{lo}, {bound}: "
                               "it must be an integer in range")


def as_labels(labels, n=None, n_classes=None) -> np.ndarray:
    """`labels` as a 1-D int64 vector (a single label as a vector of one),
    the package's one label rule.  Labels that are not one vector, or not
    `n` of them when `n` is given, are a ShapeMismatchError.  The first label
    that is not an integer in [0, n_classes), or in int64's range without a
    class count, is named in a LabelOutOfRangeError; a float, NaN or bool
    label fails before anything casts it.

    An integer array passes on its least and its greatest label, and an int64
    array without a class count as it is; only labels that fail are walked,
    to name one."""
    if type(labels) is not np.ndarray or labels.ndim != 1:  # a vector passes on no call
        labels = as_ndim(labels, 1)
    if n is not None and labels.shape[0] != n:
        raise ShapeMismatchError(f"labels length {labels.shape[0]} != {n}")
    if n_classes is None:
        if labels.dtype == np.int64:
            return labels
        lo, hi = -(2**63), 2**63
    else:
        lo, hi = 0, n_classes
    # argmin and item take a third of np.minimum.reduce's time on a step's labels
    if (labels.size and labels.dtype.kind in "iu" and labels.item(labels.argmin()) >= lo
            and labels.item(labels.argmax()) < hi):
        return labels if labels.dtype == np.int64 else labels.astype(np.int64)
    for label in labels.tolist():
        if type(label) is not int:
            raise LabelOutOfRangeError(f"label {label!r} is not an integer class id")
        if not lo <= label < hi:
            raise LabelOutOfRangeError(f"label {label} outside [{lo}, {hi})")
    return labels.astype(np.int64)  # no labels, or Python ints in an object array


def index_rows(n, *index_arrays):
    """The index arrays (pairs' or triplets' members, anchors) as the rows of
    one integer array; ShapeMismatchError unless they are integer vectors of
    one length, every entry in [0, n).  Vectors of no entry may be of any
    dtype."""
    message = "indices must be integer vectors of one length"
    try:
        rows = as_ndim(index_arrays, 2)
    except ShapeMismatchError as exc:  # ragged, or deeper than vectors
        raise ShapeMismatchError(message) from exc
    if len(rows) != len(index_arrays) or rows.size and rows.dtype.kind not in "iu":
        raise ShapeMismatchError(message)
    if not rows.size:
        return rows.astype(np.intp)
    if np.minimum.reduce(rows, None) < 0 or np.maximum.reduce(rows, None) >= n:
        raise ShapeMismatchError("index outside the batch")
    return rows


def scatter_rows(rows, values, n) -> np.ndarray:
    """The n x d sums of the rows of `values` (m x d) onto the integer
    `rows` (m,), each in [0, n): np.add.at(np.zeros((n, d)), rows, values)
    bit for bit.  numpy's weighted bincount adds each weight to its +0.0
    bin in input order, as add.at adds each row, but in one pass."""
    d = values.shape[1]
    if not rows.size:  # bincount gives integer zeros for no input
        return np.zeros((n, d))
    flat = (rows[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, values.ravel(), n * d).reshape(n, d)


def pairwise_distances(rows) -> np.ndarray:
    """n x n l2 distances between the rows: symmetric, with an exactly-zero
    diagonal.

    Rows are a 2-D array or a sequence of equal-length rows.  This is the
    one distance kernel: coordinate differences, never the Gram identity, so
    duplicate rows measure exactly 0.

    Each entry sums its d squares in numpy's pairwise-sum order, the order
    `np.sum` over a contiguous last axis takes: a running sum from 0.0 when
    d < 8; for 8 <= d <= 128, eight accumulators over strides of 8, combined
    as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the leftover terms in order;
    above 128, the sums of the first h and the last d - h squares, h the
    largest multiple of 8 not above d/2.  That order is numpy-internal (as of
    numpy 2.4, the version tests/golden.json records): tests/test_core.py
    compares the kernel with the `np.sum` form bit for bit, and the golden
    hashes catch a numpy that sums otherwise.  The sum runs over the leading
    axis of (d, ...) blocks of squared differences, so each step of it is one
    vectorized `np.add` over whole planes.

    The pairs go by wrapped diagonals.  Each of the d coordinate planes holds
    the n points, then its first n // 2 points again, so diagonal δ, the
    pairs (i, (i + δ) mod n) for every i, is the plane minus its n columns
    from δ on: one contiguous (d, n) difference.  A block of k diagonals is
    one (d, k, n) copy of a strided view of those planes, less the planes
    (numpy would buffer the view as an operand, slower than copying it).
    Diagonals 1 to n // 2 hold every pair; each one's distances go to
    (i, (i + δ) mod n) and to the mirror cell, and the diagonal stays 0.  The
    mirror has the bits of the cell, because fl(a - b) squared is fl(b - a)
    squared and both sum in one plane order.  For even n, diagonal n / 2
    meets each of its pairs twice, once in each orientation, with the same
    bits.

    Scratch: the wrapped planes, 12*d*n bytes, built through one more copy of
    that size, and one block of diagonals, at most
    max(2 * DISTANCE_BLOCK_BYTES, 8*d*n) bytes, beside the 8*n*n output.
    The cell indices of the last four blocks of at most _CACHED_PAIRS pairs
    stay cached, 64 KiB each at most.  Every entry gets the same operations
    in the same order at any block size.
    """
    x = _as_rows(rows)
    (n, d), h = x.shape, x.shape[0] // 2
    out = np.zeros((n, n))
    if d == 0 or n < 2:  # no coordinate or no pair: nothing but zeros
        return out
    wrapped = _planes(np.concatenate((x, x[:h])))  # (d, n + h)
    planes, flat = wrapped[:, None, :n], out.reshape(-1)
    block = min(h, max(1, 2 * DISTANCE_BLOCK_BYTES // (8 * d * n)))
    scratch = np.empty(d * block * n)
    strides = (wrapped.strides[0], 8, 8)
    for first in range(1, h + 1, block):
        k = min(block, h + 1 - first)
        terms = scratch[: d * k * n].reshape(d, k, n)
        # entry (p, j, i) is plane p's point i + first + j of the wrapped copy
        terms[...] = np.ndarray((d, k, n), buffer=wrapped, offset=8 * first, strides=strides)
        np.subtract(terms, planes, terms)  # fl(b - a) squares to fl(a - b) squared
        np.multiply(terms, terms, terms)
        _sum_leading(terms, terms[0])
        dist = scratch[: k * n]  # terms[0], flat
        np.sqrt(dist, dist)
        if k * n <= _CACHED_PAIRS:
            cells = _diagonal_cells(n, first, first + k)
        else:  # built per block: the block's arithmetic outweighs them
            cells = _diagonal_cells.__wrapped__(n, first, first + k)
        flat[cells[0]] = dist
        flat[cells[1]] = dist
    return out


# Pairs per block whose cell indices `_diagonal_cells` caches: 64 KiB a
# block, covering a DAS step's 64 rows in one.
_CACHED_PAIRS = 4096


@functools.lru_cache(maxsize=4)  # a block per entry: a training run uses one or two
def _diagonal_cells(n, first, stop):
    """Flat indices into an n x n matrix of the wrapped diagonals first to
    stop - 1, diagonal-major: row 0 the cells (i, (i + δ) mod n), row 1
    their mirrors."""
    i = np.arange(n)
    j = (i + np.arange(first, stop)[:, None]) % n
    cells = np.stack(((i * n + j).ravel(), (j * n + i).ravel()))
    cells.flags.writeable = False  # shared by every call with this block
    return cells


# Within each whole group of eight coordinates, plane p holds coordinate
# _BIT_REVERSED[p].  Eight accumulators r0..r7 then sit in the order
# r0 r4 r2 r6 r1 r5 r3 r7, so each level of numpy's tree
# ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) adds the first half of the planes to
# the second: one contiguous, non-overlapping np.add per level.
_BIT_REVERSED = np.array([0, 4, 2, 6, 1, 5, 3, 7])


def _planes(x) -> np.ndarray:
    """x's columns as the (d, n) planes the kernel sums, the coordinates of
    each whole group of eight in bit-reversed order, the rest in order."""
    return x.T.take(_plane_order(x.shape[1]), 0)


@functools.lru_cache(maxsize=64)  # one entry per embedding width in use
def _plane_order(d):
    whole = d - d % 8
    order = np.concatenate([(np.arange(0, whole, 8)[:, None] + _BIT_REVERSED).ravel(),
                            np.arange(whole, d)])
    order.flags.writeable = False  # shared by every call at this width
    return order


def _pair_distances(planes, rows, cols) -> np.ndarray:
    """Squared kernel distances of the pairs (rows[i], cols[i]) of the points
    whose `_planes` are `planes`: entry i has the bits of the square of
    entry (rows[i], cols[i]) of `pairwise_distances`, before its root.
    The pairs go in chunks whose two gathered (d, chunk) blocks fit
    DISTANCE_BLOCK_BYTES together."""
    d = planes.shape[0]
    out = np.empty(len(rows))
    chunk = max(1, DISTANCE_BLOCK_BYTES // max(1, 16 * d))
    for start in range(0, len(rows), chunk):
        stop = start + chunk
        diff = planes[:, rows[start:stop]]
        np.subtract(diff, planes[:, cols[start:stop]], diff)
        np.multiply(diff, diff, diff)
        _sum_leading(diff, out[start:stop])
    return out


def _sum_leading(terms, out):
    """out = the sum over the leading axis of `terms` (>= +0.0 entries, laid
    out by `_planes`) in numpy's pairwise-sum order; `terms` is overwritten.
    Outputs go positionally, which takes less per call than `out=` on the
    small blocks of a training step."""
    add, d = np.add, len(terms)
    if d == 0:
        out.fill(0.0)
    elif d < 8:
        np.copyto(out, terms[0])  # 0.0 + t == t for t >= +0.0
        for i in range(1, d):
            add(out, terms[i], out)
    elif d <= 128:
        acc = terms[:8]
        tail = d - d % 8
        for i in range(8, tail, 8):
            add(acc, terms[i : i + 8], acc)
        add(acc[:4], acc[4:], acc[:4])
        add(acc[:2], acc[2:4], acc[:2])
        add(acc[0], acc[1], out)
        for i in range(tail, d):
            add(out, terms[i], out)
    else:
        half = d // 2 - (d // 2) % 8
        _sum_leading(terms[:half], terms[0])
        _sum_leading(terms[half:], terms[half])
        add(terms[0], terms[half], out)
