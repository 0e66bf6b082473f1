"""Small feed-forward embedding network with hand-derived backprop.

The forward pass ends in l2 normalization, so the backward pass carries the
normalization Jacobian (I - v v^T) / ||u||.  Everything is float64 numpy; no
autograd framework is involved, which keeps gradients exactly reproducible.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .core import SeededRng, ZERO_NORM_EPS
from .errors import CorruptCheckpointError, ShapeMismatchError, ZeroNormError

ACTIVATIONS = ("identity", "relu", "tanh")
CHECKPOINT_VERSION = 1


@dataclass
class EncoderParams:
    """Per-layer weights (in x out) and biases, plus the activation tag."""

    weights: list  # list of (d_prev, d_next) float64 arrays
    biases: list  # list of (d_next,) float64 arrays
    activation: str = "relu"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ShapeMismatchError(f"unknown activation {self.activation!r}")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape[1] != b.shape[0]:
                raise ShapeMismatchError(f"layer {i}: W {w.shape} vs b {b.shape}")
            if i > 0 and self.weights[i - 1].shape[1] != w.shape[0]:
                raise ShapeMismatchError(f"layer {i} input dim breaks the chain")

    @property
    def layer_sizes(self) -> list:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def embed_dim(self) -> int:
        return self.weights[-1].shape[1]

    def copy(self) -> "EncoderParams":
        return EncoderParams(
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.activation,
        )

    def flat(self) -> np.ndarray:
        return np.concatenate(
            [w.ravel() for w in self.weights] + [b.ravel() for b in self.biases]
        )

    def with_flat(self, theta: np.ndarray) -> "EncoderParams":
        out = self.copy()
        pos = 0
        for w in out.weights:
            w[...] = theta[pos : pos + w.size].reshape(w.shape)
            pos += w.size
        for b in out.biases:
            b[...] = theta[pos : pos + b.size].reshape(b.shape)
            pos += b.size
        if pos != theta.size:
            raise ShapeMismatchError("flat parameter vector has wrong length")
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
    n_layers = len(params.weights)
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
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


def backward(
    params: EncoderParams, tape: ForwardTape, grad_embeddings
) -> tuple[list, list]:
    """Exact gradients of the (layers o normalization) composition.

    Returns (weight_grads, bias_grads) matching the parameter shapes.
    """
    g = np.asarray(grad_embeddings, dtype=np.float64)
    if g.shape != tape.embeddings.shape:
        raise ShapeMismatchError(
            f"gradient batch {g.shape} != embedding batch {tape.embeddings.shape}"
        )
    v = tape.embeddings
    # through v = u/||u||:  dL/du = (g - (g.v) v) / ||u||
    upstream = (g - np.sum(g * v, axis=1, keepdims=True) * v) / tape.norms[:, None]

    w_grads = [None] * len(params.weights)
    b_grads = [None] * len(params.biases)
    n_layers = len(params.weights)
    for l in range(n_layers - 1, -1, -1):
        dz = upstream if l == n_layers - 1 else upstream * _act_grad(
            tape.pre_acts[l], params.activation
        )
        w_grads[l] = tape.inputs[l].T @ dz
        b_grads[l] = dz.sum(axis=0)
        if l > 0:
            upstream = dz @ params.weights[l].T
    return w_grads, b_grads


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
    slots: dict = field(default_factory=dict)  # name -> accumulator array

    def _slot(self, name, like):
        if name not in self.slots:
            self.slots[name] = np.zeros_like(like)
        if self.slots[name].shape != like.shape:
            raise ShapeMismatchError(f"accumulator {name} shape drifted")
        return self.slots[name]


def optimizer_step(
    params: EncoderParams, w_grads, b_grads, state: OptimizerState
) -> EncoderParams:
    """One in-place update; returns `params` for convenience."""
    flats = list(zip(params.weights, w_grads, ["w"] * len(w_grads))) + list(
        zip(params.biases, b_grads, ["b"] * len(b_grads))
    )
    state.step_count += 1
    t = state.step_count
    for idx, (p, g, kind) in enumerate(flats):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.shape:
            raise ShapeMismatchError(f"grad shape {g.shape} != param shape {p.shape}")
        name = f"{kind}{idx}"
        if state.rule == "sgd":
            if state.momentum > 0:
                buf = state._slot(f"m_{name}", p)
                buf *= state.momentum
                buf += g
                p -= state.lr * buf
            else:
                p -= state.lr * g
        elif state.rule == "adam":
            m = state._slot(f"m_{name}", p)
            v = state._slot(f"v_{name}", p)
            m *= state.beta1
            m += (1 - state.beta1) * g
            v *= state.beta2
            v += (1 - state.beta2) * g * g
            m_hat = m / (1 - state.beta1**t)
            v_hat = v / (1 - state.beta2**t)
            p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
        else:
            raise ShapeMismatchError(f"unknown optimizer rule {state.rule!r}")
    return params


def save_checkpoint(path, params: EncoderParams, state: OptimizerState, seed: int) -> None:
    doc = {
        "version": CHECKPOINT_VERSION,
        "layer_sizes": params.layer_sizes,
        "activation": params.activation,
        "params": params.flat().tolist(),
        "optimizer": {
            "rule": state.rule,
            "lr": state.lr,
            "momentum": state.momentum,
            "step_count": state.step_count,
            "slots": {k: v.tolist() for k, v in sorted(state.slots.items())},
        },
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
        params = EncoderParams(
            [np.zeros((a, b)) for a, b in zip(sizes[:-1], sizes[1:])],
            [np.zeros(b) for b in sizes[1:]],
            doc["activation"],
        )
        params = params.with_flat(np.asarray(doc["params"], dtype=np.float64))
        opt = doc["optimizer"]
        state = OptimizerState(
            rule=opt["rule"],
            lr=opt["lr"],
            momentum=opt["momentum"],
            step_count=opt["step_count"],
            slots={k: np.asarray(v, dtype=np.float64) for k, v in opt["slots"].items()},
        )
        return params, state, int(doc["seed"])
    except CorruptCheckpointError:
        raise
    except (OSError, ValueError, KeyError, TypeError, ShapeMismatchError) as exc:
        raise CorruptCheckpointError(f"{path}: {exc}") from exc
