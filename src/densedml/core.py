"""Deterministic vector/matrix primitives shared by every other module.

All functions operate on float64 numpy arrays and are pure; the RNG below is
the single source of randomness for the whole package.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ShapeMismatchError

ZERO_NORM_EPS = 1e-12

# Byte budget of the row-block difference tensor in pairwise_distances.  A
# training step's block stays below 512 KiB: glibc serves such a block by
# mmap, and freeing one moves its threshold for every later allocation
# (perfbench/hostspeed.py's reference kernel included).
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


_WORD = 1 << 32  # bounds at or above it take a whole word, not a 32-bit half
_LOW, _SHIFT = np.uint64(_WORD - 1), np.uint64(32)
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53


def replay_draws(rng, bounds, tables=(), highs=None):
    """What the scalar calls

        for i in range(len(bounds)):
            v = rng.integers(bounds[i])
            for table in tables:
                rng.integers(table[v])
            rng.uniform(0.0, highs[i])    # when highs is given

    return: an (n, 1 + len(tables)) int64 array of the integers, round by
    round, and the n uniforms (None without highs).  `rng` is left in the
    state those calls leave, its `bit_generator.state` dict included.

    The replay rests on how numpy's Generator consumes a Philox stream (as
    of numpy 2.4, the version tests/golden.json records; the tests compare
    the replay with the scalar calls, so a numpy that draws otherwise fails
    them):
    - `uniform(0, hi)` takes one uint64 word w and returns
      0.0 + hi * ((w >> 11) * 2**-53); it leaves the buffered half alone.
    - `integers(b)` with 2 <= b < 2**32 takes one 32-bit half x and returns
      x*b >> 32 (Lemire's method), unless the low 32 bits of x*b fall below
      (2**32 - b) % b; then it rejects x and takes another half.
      `integers(1)` takes nothing.
    - Halves pass through a buffer in the state (`has_uint32`, `uinteger`).
      An empty buffer takes a fresh word, returns its low half and keeps the
      high one; a full buffer hands its half over and leaves `uinteger`
      stale.
    - `bit_generator.random_raw(k)` returns the next k words and leaves the
      buffer alone.
    So the buffer at the start fixes which calls take a fresh word.  The
    words come from one `random_raw` call, each integer resolves by Lemire's
    method, and the buffer those calls would leave is written into the
    state.  When no call takes a half (every bound 1, as with one positive
    per anchor) the state is neither read nor written.

    It makes the scalar calls themselves when it cannot replay them: an
    `rng` that is not a numpy Generator over Philox (a test stub, say),
    a bound outside [1, 2**32), a table entry outside [2, 2**32), or a
    non-finite high, where numpy raises its own error.  After a Lemire
    rejection it restores the state and makes them too.
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    tables = [np.asarray(t, dtype=np.int64) for t in tables]
    highs = None if highs is None else np.asarray(highs, dtype=np.float64)
    if not _replayable(rng, bounds, tables, highs):
        return _scalar_draws(rng, bounds, tables, highs)
    n, k = bounds.size, 1 + len(tables)
    bg = rng.bit_generator
    if n == 0 or not (tables or bounds.max() >= 2):
        ints = np.zeros((n, k), dtype=np.int64)
        return ints, None if highs is None else _uniforms(highs, bg.random_raw(n))
    state = bg.state
    buffered = state["has_uint32"]
    # the call stream, round-major: k integer calls, then the uniform
    width = k + (highs is not None)
    takes_half = np.zeros(n * width, dtype=bool)
    takes_half[0::width] = bounds >= 2
    for j in range(1, k):
        takes_half[j::width] = True
    takes_word = np.zeros(n * width, dtype=bool)
    if highs is not None:
        takes_word[k::width] = True
    at = np.flatnonzero(takes_half)
    takes_word[at[buffered::2]] = True  # the calls that find the buffer empty
    words = bg.random_raw(np.count_nonzero(takes_word))
    fresh = takes_half[takes_word]
    # in call order, the halves are the buffered one, then the low and the
    # high half of each fresh word
    halves = np.empty(buffered + 2 * np.count_nonzero(fresh), dtype=np.uint64)
    halves[:buffered] = state["uinteger"]
    halves[buffered:] = words[fresh].astype("<u8").view("<u4")
    x = np.zeros(n * width, dtype=np.uint64)
    x[at] = halves[: at.size]
    x = x.reshape(n, width)
    ints = np.zeros((n, k), dtype=np.int64)
    rejected = False
    for j in range(k):
        b = (bounds if j == 0 else tables[j - 1][ints[:, 0]]).astype(np.uint64)
        m = x[:, j] * b
        ints[:, j] = m >> _SHIFT
        rejected = rejected or bool(((m & _LOW) < (np.uint64(_WORD) - b) % b).any())
    if rejected:
        bg.state = state
        return _scalar_draws(rng, bounds, tables, highs)
    # a buffer left full holds the last fresh word's high half; one left
    # empty keeps the half taken last as its stale value
    end = bg.state
    end["has_uint32"] = (buffered + at.size) % 2
    end["uinteger"] = int(halves[at.size - 1 + end["has_uint32"]])
    bg.state = end
    return ints, None if highs is None else _uniforms(highs, words[~fresh])


def _replayable(rng, bounds, tables, highs) -> bool:
    if not (isinstance(rng, np.random.Generator) and type(rng.bit_generator) is np.random.Philox):
        return False
    if bounds.size and not (bounds.min() >= 1 and bounds.max() < _WORD):
        return False
    if not all(t.min() >= 2 and t.max() < _WORD for t in tables if t.size):
        return False
    return highs is None or bool(np.isfinite(highs).all())


def _uniforms(highs, words):
    """numpy's `uniform(0.0, hi)` from the words it takes."""
    return 0.0 + highs * ((words >> np.uint64(11)).astype(np.float64) * _DOUBLE_UNIT)


def _scalar_draws(rng, bounds, tables, highs):
    ints = np.zeros((bounds.size, 1 + len(tables)), dtype=np.int64)
    uniforms = None if highs is None else np.empty(bounds.size)
    for i, b in enumerate(bounds.tolist()):
        v = ints[i, 0] = rng.integers(b)
        for j, table in enumerate(tables, start=1):
            ints[i, j] = rng.integers(int(table[v]))
        if highs is not None:
            uniforms[i] = rng.uniform(0.0, highs[i])
    return ints, uniforms


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
    """A 2-D array, or a sequence of equal-length rows, as finite float64."""
    if not (isinstance(rows, np.ndarray) and rows.ndim == 2):
        rows = list(rows)
        if len(rows) == 0:
            return np.zeros((0, 0))
        lengths = {np.asarray(r).shape for r in rows}
        if len(lengths) > 1:
            raise ShapeMismatchError(f"ragged input rows: shapes {sorted(lengths)}")
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeMismatchError(f"expected 2-D stack of vectors, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ShapeMismatchError("non-finite entries in input rows")
    return x


def pairwise_distances(rows, others=None, squared=False) -> np.ndarray:
    """len(rows) x len(others) l2 distances, or their squares if `squared`;
    `others` defaults to `rows`: symmetric, with an exactly-zero diagonal.

    Inputs are 2-D arrays or sequences of equal-length rows.  This is the one
    distance kernel: coordinate differences, never the Gram identity, so
    duplicate rows measure exactly 0.  When `others` is the shorter stack the
    kernel computes the transpose and returns a transposed view; every entry
    is the same either way, since (x - y)**2 == (y - x)**2 bit for bit.

    Each entry sums its d squares in numpy's pairwise-sum order, the order
    `np.sum` over a contiguous last axis takes: a running sum from 0.0 when
    d < 8; for 8 <= d <= 128, eight accumulators over strides of 8, combined
    as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the leftover terms in order;
    above 128, the sums of the first h and the last d - h squares, h the
    largest multiple of 8 not above d/2.  That order is numpy-internal (as of
    numpy 2.4, the version tests/golden.json records), the same kind of
    dependency `replay_draws` has on the Generator: tests/test_core.py
    compares the kernel with the `np.sum` form bit for bit, and the golden
    hashes catch a numpy that sums otherwise.  The sum runs over the leading
    axis of a (d, rows, cols) block of squared differences, so each step of
    it is one vectorized `np.add` over whole planes.

    Scratch, for n the shorter and m the longer stack: the transposed copies
    of both, 8*d*(n + m) bytes (one copy when `others` is omitted), and one
    block, at most max(DISTANCE_BLOCK_BYTES, 8*d*m) bytes, beside the 8*n*m
    output.  Every entry gets the same operations in the same order at any
    block size.
    """
    x = _as_rows(rows)
    y = x if others is None else _as_rows(others)
    if y.shape[1] != x.shape[1]:
        raise ShapeMismatchError(f"rows have {x.shape[1]} columns, others {y.shape[1]}")
    return _distances(x, y, squared)


def _distances(x, y, squared=False) -> np.ndarray:
    """The kernel behind pairwise_distances, for finite float64 row stacks
    of one width that the caller has validated."""
    if len(y) < len(x):  # keep the longer stack innermost
        return _distances(y, x, squared).T
    xp = _planes(x)
    return _distances_planes(xp, xp if y is x else _planes(y), squared)


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


def _distances_planes(xp, yp, squared=False) -> np.ndarray:
    """_distances from the planes xp (d, n) and yp (d, m) of `_planes`, for a
    caller that reuses one copy across calls."""
    (d, n), m = xp.shape, yp.shape[1]
    out = np.empty((n, m))
    block = max(1, DISTANCE_BLOCK_BYTES // max(1, 8 * m * d))
    scratch = np.empty((d, min(block, n), m))
    for start in range(0, n, block):
        stop = min(start + block, n)
        buf = scratch
        if stop - start < scratch.shape[1]:  # a short last block, contiguous
            buf = scratch.ravel()[: d * (stop - start) * m].reshape(d, stop - start, m)
        np.subtract(xp[:, start:stop, None], yp[:, None, :], buf)
        np.multiply(buf, buf, buf)
        _sum_leading(buf, out[start:stop])
    return out if squared else np.sqrt(out, out)


def _pair_distances(planes, rows, cols) -> np.ndarray:
    """Squared kernel distances of the pairs (rows[i], cols[i]) of the points
    whose `_planes` are `planes`: entry i has the bits of entry
    (rows[i], cols[i]) of `_distances_planes(planes, planes, squared=True)`.
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
