"""Synthetic point-cloud generation and CSV ingestion with disjoint-class splits.

The retrieval protocol trains on one half of the classes and evaluates on the
other half, so test-time metrics measure generalization to unseen classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import SeededRng
from .errors import ConfigError, ParseError


@dataclass
class Dataset:
    """Immutable labeled point cloud with a disjoint train/test class split."""

    features: np.ndarray  # (n, d_in) float64
    labels: np.ndarray  # (n,) int64, dense in [0, C)
    train_classes: tuple
    test_classes: tuple
    class_index: dict = field(init=False)  # label -> np.ndarray of point indices

    def __post_init__(self):
        classes = np.unique(self.labels, return_inverse=True)[0]  # a bare unique imports numpy.ma
        self.class_index = {int(c): np.flatnonzero(self.labels == c) for c in classes}

    @property
    def n_points(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_index)

    def subset(self, classes) -> tuple[np.ndarray, np.ndarray]:
        """(features, labels) restricted to the given classes, in file order."""
        mask = np.isin(self.labels, np.asarray(list(classes)))
        return self.features[mask], self.labels[mask]


def _split_classes(n_classes: int) -> tuple[tuple, tuple]:
    cut = math.ceil(n_classes / 2)
    return tuple(range(cut)), tuple(range(cut, n_classes))


def generate_gaussian_clusters(
    classes: int,
    per_class: int,
    input_dim: int,
    center_scale: float,
    noise_sigma: float,
    rng: SeededRng,
) -> Dataset:
    """Isotropic Gaussian blobs around uniformly drawn centers.

    First ceil(C/2) class ids become the train split, the rest the test split.
    """
    if classes < 2 or per_class < 2 or input_dim < 2:
        raise ConfigError(
            f"need classes>=2, per_class>=2, input_dim>=2; got "
            f"({classes}, {per_class}, {input_dim})"
        )
    if noise_sigma <= 0:
        raise ConfigError(f"noise_sigma must be positive, got {noise_sigma}")
    if not 0 <= center_scale < 2.0**1023:  # so the centers' range, twice it, is finite
        raise ConfigError(f"center_scale must be >= 0 and below 2**1023, got {center_scale}")
    centers = rng.uniform(-center_scale, center_scale, size=(classes, input_dim))
    # one call, class-major: the same draws as one call per class
    feats = rng.standard_normal((classes, per_class, input_dim))
    feats *= noise_sigma
    feats += centers[:, None, :]
    feats = feats.reshape(classes * per_class, input_dim)
    labels = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    train, test = _split_classes(classes)
    return Dataset(feats, labels, train, test)


def load_csv(path, label_column: int, header: bool = False) -> Dataset:
    """Read a comma-separated dataset; labels are re-indexed densely from 0.

    Rows must share one arity of at least two, the label and one feature;
    the label column must parse as an integer and every other cell as a
    finite float.  A negative `label_column` counts from the end of the
    first data row (-1 is the last column).  Blank
    lines are skipped; `header` also skips the first non-blank line.
    The first half of the distinct labels (sorted ascending by original
    value) becomes the train split.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = [(i + 1, line) for i, line in enumerate(lines) if line.strip()]
    if header:
        rows = rows[1:]  # the header is the first non-blank line
    if not rows:
        raise ParseError(f"{path}: no data rows")

    feats, raw_labels = [], []
    arity = len(rows[0][1].split(","))
    if not -arity <= label_column < arity:
        raise ParseError(
            f"{path}: label column {label_column} outside row of arity {arity}",
            row=rows[0][0],
            col=label_column,
        )
    if arity < 2:
        raise ParseError(
            f"{path}: row {rows[0][0]} has no feature column, only a label", row=rows[0][0]
        )
    label_column %= arity
    for row_no, line in rows:
        cells = line.split(",")
        if len(cells) != arity:
            raise ParseError(
                f"{path}: row {row_no} has {len(cells)} columns, expected {arity}",
                row=row_no,
            )
        try:
            label = int(cells[label_column].strip())
        except ValueError as exc:
            raise ParseError(
                f"{path}: row {row_no}, column {label_column}: bad label "
                f"{cells[label_column]!r}",
                row=row_no,
                col=label_column,
            ) from exc
        vals = []
        for col, cell in enumerate(cells):
            if col == label_column:
                continue
            try:
                val = float(cell)
            except ValueError as exc:
                raise ParseError(
                    f"{path}: row {row_no}, column {col}: bad value {cell!r}",
                    row=row_no,
                    col=col,
                ) from exc
            if not math.isfinite(val):
                raise ParseError(
                    f"{path}: row {row_no}, column {col}: non-finite value {cell!r}",
                    row=row_no,
                    col=col,
                )
            vals.append(val)
        feats.append(vals)
        raw_labels.append(label)

    distinct = sorted(set(raw_labels))
    remap = {lab: i for i, lab in enumerate(distinct)}
    labels = np.array([remap[lab] for lab in raw_labels], dtype=np.int64)
    train, test = _split_classes(len(distinct))
    return Dataset(np.asarray(feats, dtype=np.float64), labels, train, test)


def save_csv(dataset: Dataset, path) -> None:
    """Write features followed by the label column; floats use repr so a
    save/load cycle round-trips bit-exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        for x, y in zip(dataset.features, dataset.labels):
            fh.write(",".join(repr(float(v)) for v in x))
            fh.write(f",{int(y)}\n")
