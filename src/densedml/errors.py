"""Exception types shared across the package."""


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(EngineError):
    """A run configuration or generator parameter is malformed or
    self-contradictory (CLI exit code 2)."""


class ZeroNormError(EngineError):
    """A vector with (near-)zero norm reached an operation that must normalize it."""


class ShapeMismatchError(EngineError):
    """Array shapes or lengths do not line up: ragged, non-2-D or out-of-bound
    rows, mismatched widths, per-point sequences of different lengths."""


class KOutOfRangeError(EngineError):
    """A K or k outside what the data supports: top-K channels, retrieval
    ranks, cluster counts."""


class ParseError(EngineError):
    """CSV parsing failure, an empty file included; carries the 1-based row
    and 0-based column when known, else None."""

    def __init__(self, message, row=None, col=None):
        super().__init__(message)
        self.row = row
        self.col = col


class NotEnoughClassesError(EngineError):
    """Batch construction asked for more classes than the split provides."""


class NoValidTripletError(EngineError):
    """No anchor in the batch admits a (positive, negative) pair."""


class LabelOutOfRangeError(EngineError):
    """A class label that is not an integer, or outside [0, C) (int64's
    range where no class count C applies)."""


class CorruptCheckpointError(EngineError):
    """A checkpoint file is unreadable or structurally invalid."""


class TrainingAbortError(EngineError):
    """The training loop aborted (e.g. non-finite loss); CLI exit code 3."""
