"""Small feed-forward embedding network with hand-derived backprop.

The forward pass ends in l2 normalization, so the backward pass carries the
normalization Jacobian (I - v v^T) / ||u||.  Everything is float64 numpy; no
autograd framework is involved, which keeps gradients exactly reproducible.

All parameters live in one vector `EncoderParams.theta`: every weight matrix
layer by layer, then every bias.  `backward` returns its gradient in that
layout, the optimizer's accumulators share it, and the checkpoint stores it.
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .core import SeededRng, ZERO_NORM_EPS
from .errors import ConfigError, CorruptCheckpointError, ShapeMismatchError, ZeroNormError

ACTIVATIONS = ("identity", "relu", "tanh")
CHECKPOINT_VERSION = 2


class EncoderParams:
    """Per-layer weights (in x out) and biases, packed into one float64 vector
    `theta`, plus the activation tag.

    `weights` and `biases` are shaped views of `theta`, built on each access,
    so a copy (`copy.deepcopy`, pickle) never detaches them from its vector.
    """

    def __init__(self, weights, biases, activation: str = "relu"):
        if activation not in ACTIVATIONS:
            raise ShapeMismatchError(f"unknown activation {activation!r}")
        if len(weights) != len(biases):
            raise ShapeMismatchError(f"{len(weights)} weight layers vs {len(biases)} biases")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.shape[1] != b.shape[0]:
                raise ShapeMismatchError(f"layer {i}: W {w.shape} vs b {b.shape}")
            if i > 0 and weights[i - 1].shape[1] != w.shape[0]:
                raise ShapeMismatchError(f"layer {i} input dim breaks the chain")
        self.activation = activation
        self.layer_sizes = (weights[0].shape[0], *(w.shape[1] for w in weights))
        shapes = [w.shape for w in weights] + [b.shape for b in biases]
        stops = np.cumsum([np.prod(shape) for shape in shapes]).tolist()
        self._layout = tuple(zip([0] + stops[:-1], stops, shapes))
        self.theta = np.concatenate([np.ravel(a) for a in [*weights, *biases]], dtype=np.float64)

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

    @property
    def embed_dim(self) -> int:
        return self.layer_sizes[-1]

    def copy(self) -> "EncoderParams":
        return self.with_flat(self.theta)

    def flat(self) -> np.ndarray:
        return self.theta.copy()

    def with_flat(self, theta) -> "EncoderParams":
        """A copy of these parameters holding `theta` instead."""
        out = copy.copy(self)
        out.theta = np.array(theta, dtype=np.float64)
        if out.theta.shape != self.theta.shape:
            raise ShapeMismatchError(f"flat vector {out.theta.shape} != {self.theta.shape}")
        return out


def init_params(layer_sizes, activation: str, rng: SeededRng) -> EncoderParams:
    """Glorot-uniform weights, zero biases; deterministic given the rng."""
    weights, biases = [], []
    for d_in, d_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = np.sqrt(6.0 / (d_in + d_out))
        weights.append(rng.uniform(-bound, bound, size=(d_in, d_out)))
        biases.append(np.zeros(d_out))
    return EncoderParams(weights, biases, activation)


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
    return np.ones_like(z)


@dataclass
class ForwardTape:
    """Cached intermediates for one batch: layer inputs, pre-activations, norms."""

    inputs: list  # a_{l-1} for each layer
    pre_acts: list  # z_l for each layer
    norms: np.ndarray  # ||u|| per row of the final layer output u
    embeddings: np.ndarray  # v = u / ||u||


def encode(params: EncoderParams, inputs) -> tuple[np.ndarray, ForwardTape]:
    """Batch forward pass; outputs are rows on the unit sphere."""
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if x.shape[0] == 0:
        raise ShapeMismatchError("empty batch")
    if x.shape[1] != params.input_dim:
        raise ShapeMismatchError(
            f"input dim {x.shape[1]} != encoder d_in {params.input_dim}"
        )
    layer_inputs, pre_acts = [], []
    a = x
    weights, biases = params.split(params.theta)
    n_layers = len(weights)
    for l, (w, b) in enumerate(zip(weights, biases)):
        layer_inputs.append(a)
        z = a @ w + b
        pre_acts.append(z)
        a = _act(z, params.activation) if l < n_layers - 1 else z
    norms = np.linalg.norm(a, axis=1)
    if np.any(norms <= ZERO_NORM_EPS):
        bad = int(np.argmin(norms))
        raise ZeroNormError(f"pre-normalization output {bad} has norm {norms[bad]:.3e}")
    v = a / norms[:, None]
    return v, ForwardTape(layer_inputs, pre_acts, norms, v)


def backward(params: EncoderParams, tape: ForwardTape, grad_embeddings) -> np.ndarray:
    """Exact gradient of the (layers o normalization) composition, one vector
    in `params.theta`'s layout."""
    g = np.asarray(grad_embeddings, dtype=np.float64)
    if g.shape != tape.embeddings.shape:
        raise ShapeMismatchError(
            f"gradient batch {g.shape} != embedding batch {tape.embeddings.shape}"
        )
    v = tape.embeddings
    # through v = u/||u||:  dL/du = (g - (g.v) v) / ||u||
    upstream = (g - np.sum(g * v, axis=1, keepdims=True) * v) / tape.norms[:, None]

    grad = np.empty_like(params.theta)
    w_grads, b_grads = params.split(grad)
    weights = params.weights
    n_layers = len(weights)
    for l in range(n_layers - 1, -1, -1):
        dz = upstream if l == n_layers - 1 else upstream * _act_grad(
            tape.pre_acts[l], params.activation
        )
        np.matmul(tape.inputs[l].T, dz, out=w_grads[l])
        np.sum(dz, axis=0, out=b_grads[l])
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
    g = np.asarray(grad, dtype=np.float64)
    if g.shape != theta.shape:
        raise ShapeMismatchError(f"gradient shape {g.shape} != parameter shape {theta.shape}")
    if state.rule not in OPTIMIZER_RULES:
        raise ConfigError(f"unknown optimizer rule {state.rule!r}")
    if any(slot.shape != theta.shape for slot in state.slots.values()):
        raise ShapeMismatchError(f"an optimizer slot does not match parameter shape {theta.shape}")
    state.step_count += 1
    t = state.step_count
    if state.rule == "adam":
        m = state.slots.setdefault("m", np.zeros_like(theta))
        v = state.slots.setdefault("v", np.zeros_like(theta))
        m *= state.beta1
        m += (1 - state.beta1) * g
        v *= state.beta2
        v += (1 - state.beta2) * g * g
        m_hat = m / (1 - state.beta1**t)
        v_hat = v / (1 - state.beta2**t)
        theta -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    elif state.momentum > 0:
        buf = state.slots.setdefault("m", np.zeros_like(theta))
        buf *= state.momentum
        buf += g
        theta -= state.lr * buf
    else:
        theta -= state.lr * g
    return params


def save_checkpoint(path, params: EncoderParams, state: OptimizerState, seed: int) -> None:
    optimizer = {f.name: getattr(state, f.name) for f in fields(OptimizerState)}
    optimizer["slots"] = {k: v.tolist() for k, v in sorted(state.slots.items())}
    doc = {
        "version": CHECKPOINT_VERSION,
        "layer_sizes": params.layer_sizes,
        "activation": params.activation,
        "params": params.theta.tolist(),
        "optimizer": optimizer,
        "seed": seed,
        "step": state.step_count,
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
        sizes = doc["layer_sizes"]
        if not (isinstance(sizes, list) and len(sizes) >= 2
                and all(type(v) is int and v > 0 for v in sizes)):
            raise CorruptCheckpointError(f"layer_sizes must list at least two positive "
                                         f"integers, got {sizes!r}")
        seed = doc["seed"]
        if type(seed) is not int or seed < 0:  # a bool is not a seed
            raise CorruptCheckpointError(f"seed must be an integer >= 0, got {seed!r}")
        params = EncoderParams(
            [np.zeros((a, b)) for a, b in zip(sizes[:-1], sizes[1:])],
            [np.zeros(b) for b in sizes[1:]],
            doc["activation"],
        ).with_flat(doc["params"])
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
        state.slots = {k: np.asarray(v, dtype=np.float64) for k, v in state.slots.items()}
        for name, slot in state.slots.items():
            if name not in ("m", "v"):
                raise CorruptCheckpointError(f"unknown optimizer slot {name!r}")
            if slot.shape != params.theta.shape:
                raise CorruptCheckpointError(f"optimizer slot {name!r} is {slot.shape}, "
                                             f"parameters are {params.theta.shape}")
        return params, state, seed
    except CorruptCheckpointError:
        raise
    except (OSError, ValueError, KeyError, TypeError, AttributeError, ShapeMismatchError) as exc:
        raise CorruptCheckpointError(f"{path}: {exc}") from exc
