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
    """A 2-D array, or a sequence of equal-length rows, as finite float64."""
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
    return x


def pairwise_distances(rows, others=None, squared=False) -> np.ndarray:
    """len(rows) x len(others) l2 distances, or their squares if `squared`;
    `others` defaults to `rows`: symmetric, with an exactly-zero diagonal.

    Inputs are 2-D arrays or sequences of equal-length rows.  This is the one
    distance kernel: coordinate differences, never the Gram identity, so
    duplicate rows measure exactly 0; row blocks bound its scratch to
    max(DISTANCE_BLOCK_BYTES, 8*len(others)*d) bytes, and each entry sums the
    same d squares in the same order at any block size.
    """
    x = _as_rows(rows)
    y = x if others is None else _as_rows(others)
    (n, d), m = x.shape, y.shape[0]
    if y.shape[1] != d:
        raise DimensionMismatchError(f"rows have {d} columns, others {y.shape[1]}")
    out = np.empty((n, m))
    block = max(1, DISTANCE_BLOCK_BYTES // max(1, 8 * m * d))
    diff = np.empty((min(block, n), m, d))
    for start in range(0, n, block):
        stop = min(start + block, n)
        buf = diff[: stop - start]
        np.subtract(x[start:stop, None, :], y[None, :, :], out=buf)
        np.multiply(buf, buf, out=buf)
        np.sum(buf, axis=-1, out=out[start:stop])
    return out if squared else np.sqrt(out, out=out)
