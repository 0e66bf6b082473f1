"""Small feed-forward embedding network with hand-derived backprop.

The forward pass ends in l2 normalization, so the backward pass carries the
normalization Jacobian (I - v v^T) / ||u||.  Everything is float64 numpy; no
autograd framework is involved, which keeps gradients exactly reproducible.

All parameters live in one vector `EncoderParams.theta`: every weight matrix
layer by layer, then every bias.  `backward` returns its gradient in that
layout, the optimizer's accumulators share it, and the checkpoint stores it.
"""

from __future__ import annotations

import base64
import itertools
import json
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .core import SeededRng, ZERO_NORM_EPS, as_ndim
from .errors import ConfigError, CorruptCheckpointError, ShapeMismatchError, ZeroNormError

ACTIVATIONS = ("identity", "relu", "tanh")
CHECKPOINT_VERSION = 3


class EncoderParams:
    """An MLP's per-layer weights (in x out) and biases, packed into one
    float64 vector `theta`, plus the activation tag.

    `theta`'s layout follows from `layer_sizes`: every weight matrix layer by
    layer, then every bias.  The constructor is the one place an MLP's shape
    and values are checked.  `weights` and `biases` are shaped views of
    `theta`, built on each access, so a copy (`copy.deepcopy`, pickle) never
    detaches them from its vector.
    """

    def __init__(self, layer_sizes, activation: str, theta):
        sizes = layer_sizes
        if not (isinstance(sizes, (list, tuple)) and len(sizes) >= 2
                and all(type(v) is int and v > 0 for v in sizes)):
            raise ShapeMismatchError(f"layer_sizes must list at least two positive "
                                     f"integers, got {sizes!r}")
        if activation not in ACTIVATIONS:
            raise ShapeMismatchError(f"unknown activation {activation!r}")
        self.activation = activation
        self.layer_sizes = tuple(sizes)
        shapes = [*zip(sizes[:-1], sizes[1:]), *((n,) for n in sizes[1:])]
        stops = list(itertools.accumulate(math.prod(shape) for shape in shapes))
        self._layout = tuple(zip([0, *stops[:-1]], stops, shapes))
        self.theta = as_ndim(theta, 1, np.float64, (stops[-1],), "theta").copy()
        if not np.isfinite(self.theta).all():
            raise ShapeMismatchError("theta holds non-finite values")

    def split(self, vec) -> tuple[list, list]:
        """(weights, biases): shaped views of `vec`, a vector in `theta`'s layout."""
        views = [vec[start:stop].reshape(shape) for start, stop, shape in self._layout]
        return views[: len(views) // 2], views[len(views) // 2 :]

    @property
    def weights(self) -> list:
        return self.split(self.theta)[0]

    @property
    def biases(self) -> list:
        return self.split(self.theta)[1]

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]


def init_params(layer_sizes, activation: str, rng: SeededRng) -> EncoderParams:
    """Glorot-uniform weights, zero biases; deterministic given the rng."""
    weights = []
    for d_in, d_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = np.sqrt(6.0 / (d_in + d_out))
        weights.append(rng.uniform(-bound, bound, size=d_in * d_out))
    biases = np.zeros(sum(layer_sizes[1:]))
    return EncoderParams(layer_sizes, activation, np.concatenate([*weights, biases]))


def _act(z, tag):
    if tag == "relu":
        return np.maximum(z, 0.0)
    if tag == "tanh":
        return np.tanh(z)
    return z


def _act_grad(z, tag):
    if tag == "relu":
        return (z > 0).astype(np.float64)
    if tag == "tanh":
        return 1.0 - np.tanh(z) ** 2
    return np.ones(z.shape)


@dataclass
class ForwardTape:
    """Cached intermediates for one batch: layer inputs, pre-activations, norms."""

    inputs: list  # a_{l-1} for each layer
    pre_acts: list  # z_l for each layer
    norms: np.ndarray  # ||u|| per row of the final layer output u
    embeddings: np.ndarray  # v = u / ||u||


def encode(params: EncoderParams, inputs) -> tuple[np.ndarray, ForwardTape]:
    """Batch forward pass; outputs are rows on the unit sphere."""
    x = as_ndim(inputs, 2, np.float64, (None, params.input_dim), "inputs")
    if x.shape[0] == 0:
        raise ShapeMismatchError("empty batch")
    layer_inputs, pre_acts = [], []
    a = x
    weights, biases = params.split(params.theta)
    n_layers = len(weights)
    for l, (w, b) in enumerate(zip(weights, biases)):
        layer_inputs.append(a)
        z = a @ w + b
        pre_acts.append(z)
        a = _act(z, params.activation) if l < n_layers - 1 else z
    norms = np.sqrt(np.add.reduce(a * a, axis=1))  # np.linalg.norm's own form
    if (norms <= ZERO_NORM_EPS).any():
        bad = int(np.argmin(norms))
        raise ZeroNormError(f"pre-normalization output {bad} has norm {norms[bad]:.3e}")
    v = a / norms[:, None]
    return v, ForwardTape(layer_inputs, pre_acts, norms, v)


def backward(params: EncoderParams, tape: ForwardTape, grad_embeddings) -> np.ndarray:
    """Exact gradient of the (layers o normalization) composition, one vector
    in `params.theta`'s layout."""
    g = as_ndim(grad_embeddings, 2, np.float64, tape.embeddings.shape, "gradient")
    v = tape.embeddings
    # through v = u/||u||:  dL/du = (g - (g.v) v) / ||u||
    upstream = (g - np.add.reduce(g * v, axis=1, keepdims=True) * v) / tape.norms[:, None]

    grad = np.empty(params.theta.shape)
    w_grads, b_grads = params.split(grad)
    weights = params.split(params.theta)[0]
    n_layers = len(weights)
    for l in range(n_layers - 1, -1, -1):
        dz = upstream if l == n_layers - 1 else upstream * _act_grad(
            tape.pre_acts[l], params.activation
        )
        np.matmul(tape.inputs[l].T, dz, out=w_grads[l])
        np.add.reduce(dz, axis=0, out=b_grads[l])
        if l > 0:
            upstream = dz @ weights[l].T
    return grad


OPTIMIZER_RULES = ("adam", "sgd")


@dataclass
class OptimizerState:
    """SGD (optionally with momentum) or bias-corrected Adam."""

    rule: str = "adam"
    lr: float = 1e-3
    momentum: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    slots: dict = field(default_factory=dict)  # "m" (and "v" for Adam), in theta's layout


def optimizer_step(params: EncoderParams, grad, state: OptimizerState) -> EncoderParams:
    """One in-place update of `params.theta` by the gradient vector `grad`;
    returns `params` for convenience.  A rejected update changes nothing."""
    theta = params.theta
    g = as_ndim(grad, 1, np.float64, theta.shape, "gradient")
    if state.rule not in OPTIMIZER_RULES:
        raise ConfigError(f"unknown optimizer rule {state.rule!r}")
    slots = state.slots
    for slot in slots.values():
        if slot.shape != theta.shape:
            raise ShapeMismatchError(f"an optimizer slot does not match parameter shape "
                                     f"{theta.shape}")
    # a slot is made, zeroed, on the first step that needs it
    for name in ("m", "v") if state.rule == "adam" else ("m",) if state.momentum > 0 else ():
        if name not in slots:
            slots[name] = np.zeros(theta.shape)
    state.step_count += 1
    t = state.step_count
    if state.rule == "adam":
        m, v = slots["m"], slots["v"]
        m *= state.beta1
        m += (1 - state.beta1) * g
        v *= state.beta2
        v += (1 - state.beta2) * g * g  # ((1 - beta2) g) g
        step = m / (1 - state.beta1**t)  # m_hat, then (lr m_hat) / (sqrt(v_hat) + eps)
        step *= state.lr
        v_hat = v / (1 - state.beta2**t)
        np.sqrt(v_hat, v_hat)
        v_hat += state.eps
        step /= v_hat
        theta -= step
    elif state.momentum > 0:
        buf = slots["m"]
        buf *= state.momentum
        buf += g
        theta -= state.lr * buf
    else:
        theta -= state.lr * g
    return params


def _pack(vec) -> str:
    """A checkpoint's float vector: base64 of its little-endian float64 bytes."""
    return base64.b64encode(np.asarray(vec, dtype="<f8").tobytes()).decode("ascii")


def _unpack(text, name: str) -> np.ndarray:
    """The vector `_pack` wrote, as a writable native float64 copy; `name`
    says which field it is in an error."""
    if not isinstance(text, str):
        raise CorruptCheckpointError(f"{name} must be a base64 string, got {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        raise CorruptCheckpointError(f"{name} is not base64: {exc}") from None
    if len(raw) % 8:
        raise CorruptCheckpointError(f"{name} holds {len(raw)} bytes, not a whole number "
                                     f"of float64 values")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)


def save_checkpoint(path, params: EncoderParams, state: OptimizerState, seed: int) -> None:
    """One JSON document: the scalars as numbers, `params` and each optimizer
    slot packed by `_pack`."""
    optimizer = {f.name: getattr(state, f.name) for f in fields(OptimizerState)}
    optimizer["slots"] = {k: _pack(v) for k, v in sorted(state.slots.items())}
    doc = {
        "version": CHECKPOINT_VERSION,
        "layer_sizes": params.layer_sizes,
        "activation": params.activation,
        "params": _pack(params.theta),
        "optimizer": optimizer,
        "seed": seed,
    }
    # write beside the target, then rename: an interrupted write leaves the old file
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path) -> tuple[EncoderParams, OptimizerState, int]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc["version"] != CHECKPOINT_VERSION:
            raise CorruptCheckpointError(f"unsupported checkpoint version {doc['version']}")
        seed = doc["seed"]
        if type(seed) is not int or seed < 0:  # a bool is not a seed
            raise CorruptCheckpointError(f"seed must be an integer >= 0, got {seed!r}")
        params = EncoderParams(doc["layer_sizes"], doc["activation"],
                               _unpack(doc["params"], "params"))
        opt = doc["optimizer"]
        state = OptimizerState(**{f.name: opt[f.name] for f in fields(OptimizerState)})
        if state.rule not in OPTIMIZER_RULES:
            raise CorruptCheckpointError(f"unknown optimizer rule {state.rule!r}")
        for name in ("lr", "momentum", "beta1", "beta2", "eps"):
            value = getattr(state, name)
            if not (type(value) is int or isinstance(value, float) and math.isfinite(value)):
                raise CorruptCheckpointError(f"optimizer {name} must be a finite number, "
                                             f"got {value!r}")
        count = state.step_count
        if type(count) is not int or count < 0:  # a bool is not a count
            raise CorruptCheckpointError(f"optimizer step_count must be an integer >= 0, "
                                         f"got {count!r}")
        slots = {}
        for name, text in state.slots.items():
            if name not in ("m", "v"):
                raise CorruptCheckpointError(f"unknown optimizer slot {name!r}")
            slot = slots[name] = _unpack(text, f"optimizer slot {name!r}")
            if slot.shape != params.theta.shape:
                raise CorruptCheckpointError(f"optimizer slot {name!r} is {slot.shape}, "
                                             f"parameters are {params.theta.shape}")
            if not np.isfinite(slot).all():
                raise CorruptCheckpointError(f"optimizer slot {name!r} holds non-finite values")
        state.slots = slots
        return params, state, seed
    except (OSError, ValueError, OverflowError, KeyError, TypeError, AttributeError,
            ShapeMismatchError, CorruptCheckpointError) as exc:  # every rejection names the file
        raise CorruptCheckpointError(f"{path}: {exc}") from exc
