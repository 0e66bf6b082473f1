"""Deterministic vector/matrix primitives shared by every other module.

All functions operate on float64 numpy arrays and are pure; the RNG below is
the single source of randomness for the whole package.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ShapeMismatchError

ZERO_NORM_EPS = 1e-12

# Byte budget of the kernel's row-block difference tensor.  A
# training step's block stays below 512 KiB: glibc serves such a block by
# mmap, and freeing one moves its threshold for every later allocation
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
    statistically independent.
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
    np.fill_diagonal(same, False)
    return same, other


def _as_rows(rows) -> np.ndarray:
    """A 2-D array, or a sequence of equal-length rows, as finite float64;
    an empty sequence is no rows of no columns."""
    try:
        x = np.asarray(rows, dtype=np.float64)
    except (ValueError, TypeError) as exc:  # ragged rows, or entries that are not numbers
        raise ShapeMismatchError(f"input rows are not a stack of numeric vectors: {exc}") from exc
    if x.shape == (0,):
        return np.zeros((0, 0))
    if x.ndim != 2:
        raise ShapeMismatchError(f"expected 2-D stack of vectors, got {x.shape}")
    if not np.isfinite(x).all():
        raise ShapeMismatchError("non-finite entries in input rows")
    return x


def as_ndim(x, ndim, dtype=None) -> np.ndarray:
    """np.asarray(x, dtype) with leading unit axes up to `ndim` (1 or 2), as
    np.atleast_1d/np.atleast_2d add them; an array that deep passes as is."""
    x = np.asarray(x, dtype=dtype)
    return x if x.ndim >= ndim else (np.atleast_1d if ndim == 1 else np.atleast_2d)(x)


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
    axis of a (d, rows, cols) block of squared differences, so each step of
    it is one vectorized `np.add` over whole planes.

    The matrix is symmetric bit for bit, as fl(a - b) = -fl(b - a): each
    row block is summed from its diagonal column on, then mirrored.

    Scratch: one transposed copy of the rows, 8*d*n bytes, and one block, at
    most max(DISTANCE_BLOCK_BYTES, 8*d*n) bytes, beside the 8*n*n output.
    Every entry gets the same operations in the same order at any block size.
    """
    planes = _planes(_as_rows(rows))
    out = _squared_distances(planes, planes, symmetric=True)
    return np.sqrt(out, out)


# Within each whole group of eight coordinates, plane p holds coordinate
# _BIT_REVERSED[p].  Eight accumulators r0..r7 then sit in the order
# r0 r4 r2 r6 r1 r5 r3 r7, so each level of numpy's tree
# ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) adds the first half of the planes to
# the second: one contiguous, non-overlapping np.add per level.
_BIT_REVERSED = np.array([0, 4, 2, 6, 1, 5, 3, 7])


def _planes(x) -> np.ndarray:
    """x's columns as the (d, n) planes the kernel sums, the coordinates of
    each whole group of eight in bit-reversed order, the rest in order."""
    return x.T[_plane_order(x.shape[1])]


@functools.lru_cache(maxsize=64)  # one entry per embedding width in use
def _plane_order(d):
    whole = d - d % 8
    order = np.concatenate([(np.arange(0, whole, 8)[:, None] + _BIT_REVERSED).ravel(),
                            np.arange(whole, d)])
    order.flags.writeable = False  # shared by every call at this width
    return order


def _squared_distances(xp, yp, symmetric=False) -> np.ndarray:
    """The n x m squared kernel distances between the points whose `_planes`
    are xp (d, n) and yp (d, m), summed as `pairwise_distances` describes;
    for callers that validate their points and reuse one plane copy.
    `symmetric` (xp is yp) sums each row block from its diagonal column on
    and mirrors the rest.

    Scratch: one block, at most max(DISTANCE_BLOCK_BYTES, 8*d*m) bytes,
    beside the 8*n*m output; a caller that copies both stacks into planes
    adds 8*d*(n + m) bytes."""
    (d, n), m = xp.shape, yp.shape[1]
    out = np.empty((n, m))
    block = max(1, DISTANCE_BLOCK_BYTES // max(1, 8 * m * d))
    scratch = np.empty(d * min(block, n) * m)
    for start in range(0, n, block):
        stop, first = min(start + block, n), start if symmetric else 0
        # a contiguous (d, rows, cols) block at the front of the scratch
        buf = scratch[: d * (stop - start) * (m - first)].reshape(d, stop - start, m - first)
        np.subtract(xp[:, start:stop, None], yp[:, None, first:], buf)
        np.multiply(buf, buf, buf)
        _sum_leading(buf, out[start:stop, first:])
        if symmetric:
            out[stop:, start:stop] = out[start:stop, stop:].T
    return out


def _pair_distances(planes, rows, cols) -> np.ndarray:
    """Squared kernel distances of the pairs (rows[i], cols[i]) of the points
    whose `_planes` are `planes`: entry i has the bits of entry
    (rows[i], cols[i]) of `_squared_distances(planes, planes)`.
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
