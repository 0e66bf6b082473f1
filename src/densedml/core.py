"""Deterministic vector/matrix primitives shared by every other module.

All functions operate on float64 numpy arrays and are pure; the RNG below is
the single source of randomness for the whole package.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError

ZERO_NORM_EPS = 1e-12

# Byte budget of the row-block difference tensor in pairwise_distances.
DISTANCE_BLOCK_BYTES = 128 * 1024

# Named sub-streams derived from one run seed.  Keeping concerns on separate
# streams means toggling one component (e.g. embedding production) cannot
# perturb the draws seen by another (e.g. triplet sampling).
STREAMS = {"init": 0, "data": 1, "das": 2, "sampler": 3, "eval": 4}


class SeededRng:
    """Counter-based deterministic RNG.

    Thin wrapper over numpy's Philox-4x64-10 bit generator keyed through
    ``SeedSequence([seed, stream])``.  Same (seed, stream) gives a
    bit-identical draw sequence on every run and platform for a fixed numpy
    version; streams with different ids are statistically independent.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        self._gen = np.random.Generator(
            np.random.Philox(np.random.SeedSequence([self.seed, self.stream]))
        )

    def derive(self, name: str) -> "SeededRng":
        """Child stream for a named concern (see STREAMS)."""
        return SeededRng(self.seed, STREAMS[name])

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def normal(self, size=None):
        return self._gen.standard_normal(size)

    def integers(self, n, size=None):
        """Uniform integers in [0, n)."""
        return self._gen.integers(0, n, size=size)

    def choice(self, candidates, p=None):
        """One element of `candidates`, optionally weighted by `p`."""
        candidates = np.asarray(candidates)
        idx = self._gen.choice(len(candidates), p=p)
        return candidates[idx]

    def permutation(self, n):
        return self._gen.permutation(n)


def label_masks(labels):
    """n x n masks: same-label partners (self excluded) and other-label rows.

    Every sampler and the multi-similarity loss mine from this one pair.
    """
    labels = np.asarray(labels)
    other = labels[:, None] != labels[None, :]
    same = ~other
    np.fill_diagonal(same, False)
    return same, other


def pairwise_distances(rows) -> np.ndarray:
    """n x n matrix of l2 distances between the given vectors.

    Takes a 2-D array as it is, or any sequence of equal-length rows.
    Symmetric with an exactly-zero diagonal; entry (i, j) matches the scalar
    loop sum over squared coordinate differences to float64 rounding.
    Distances come from coordinate differences, never the Gram identity, so
    duplicate rows measure exactly 0.  Rows are done in blocks whose
    difference tensor fits DISTANCE_BLOCK_BYTES, or one row per block when a
    single row's n x d slab is larger, so besides the n x n output the
    scratch buffer holds max(DISTANCE_BLOCK_BYTES, 8*n*d) bytes, never an
    n x n x d intermediate; each entry is reduced over the same d numbers in
    the same order at any block size.
    """
    if not (isinstance(rows, np.ndarray) and rows.ndim == 2):
        rows = list(rows)
        if len(rows) == 0:
            return np.zeros((0, 0))
        lengths = {np.asarray(r).shape for r in rows}
        if len(lengths) > 1:
            raise DimensionMismatchError(f"ragged input rows: shapes {sorted(lengths)}")
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionMismatchError(f"expected 2-D stack of vectors, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DimensionMismatchError("non-finite entries in input rows")
    n, d = x.shape
    out = np.empty((n, n))
    block = max(1, DISTANCE_BLOCK_BYTES // max(1, 8 * n * d))
    diff = np.empty((min(block, n), n, d))
    for start in range(0, n, block):
        stop = min(start + block, n)
        buf = diff[: stop - start]
        np.subtract(x[start:stop, None, :], x[None, :, :], out=buf)
        np.multiply(buf, buf, out=buf)
        np.sum(buf, axis=-1, out=out[start:stop])
    return np.sqrt(out, out=out)
