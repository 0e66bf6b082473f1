import base64
import os
import sys

# this checkout's package goes after every PYTHONPATH entry: a bare `pytest`
# tests it, and `PYTHONPATH=<other tree>/src pytest` tests the other tree
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if SRC not in sys.path:
    sys.path.append(SRC)

import numpy as np
import pytest

import densedml
from densedml.core import SeededRng


def pytest_report_header(config):
    return f"densedml: {os.path.dirname(densedml.__file__)}"


def finite_difference(f, x, h=1e-5):
    """Central-difference gradient of a scalar function at a flat float array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (f(xp) - f(xm)) / (2.0 * h)
    return grad


def max_rel_error(analytic, numeric):
    """Elementwise |a-b| / max(1, |a|, |b|), reduced to the worst entry."""
    a = np.asarray(analytic, dtype=np.float64).ravel()
    b = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def pack_floats(values) -> str:
    """A checkpoint's vector field: base64 of the little-endian float64 bytes."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def unpack_floats(text) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text, validate=True), dtype="<f8").copy()


def as_version_two(doc) -> dict:
    """A checkpoint document in version 2's form: float lists and a top-level
    `step`."""
    opt = dict(doc["optimizer"], slots={k: unpack_floats(v).tolist()
                                        for k, v in doc["optimizer"]["slots"].items()})
    return {**doc, "version": 2, "params": unpack_floats(doc["params"]).tolist(),
            "optimizer": opt, "step": opt["step_count"]}


def random_unit_rows(rng: SeededRng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


@pytest.fixture
def rng():
    return SeededRng(12345)
