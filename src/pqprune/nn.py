"""Minimal dense network: Glorot init, masked SGD training, evaluation.

Networks are lists of dense layers with ReLU on hidden layers and raw
logits at the output. Training is mini-batch SGD with momentum, optional
Nesterov, weight decay, and a per-epoch cosine-annealed learning rate.
A pruning mask freezes entries: their gradients are zeroed before every
update and the weights themselves stay exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


@dataclass(frozen=True)
class LayerSpec:
    in_size: int
    out_size: int
    activation: str = "relu"  # "relu" or "none"; final layer must be "none"

    def __post_init__(self):
        if self.in_size < 1 or self.out_size < 1:
            raise ValueError("layer sizes must be positive")
        if self.activation not in ("relu", "none"):
            raise ValueError(f"unknown activation {self.activation!r}")


def linear_spec(in_size: int, n_classes: int) -> list[LayerSpec]:
    """Single dense layer (logistic-regression shape)."""
    return [LayerSpec(in_size, n_classes, "none")]


def mlp_spec(in_size: int, n_classes: int) -> list[LayerSpec]:
    """Dense(in, 128)-ReLU, Dense(128, 256)-ReLU, Dense(256, K)."""
    return [
        LayerSpec(in_size, 128, "relu"),
        LayerSpec(128, 256, "relu"),
        LayerSpec(256, n_classes, "none"),
    ]


@dataclass(frozen=True)
class TrainConfig:
    """Training hyper-parameters; defaults are the full-scale settings."""

    epochs: int = 200
    batch_size: int = 250
    learning_rate: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    nesterov: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must be in [0, 1)")


@dataclass
class Dataset:
    inputs: np.ndarray  # (n, features)
    labels: np.ndarray  # (n,) int class ids

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.inputs.ndim != 2 or self.inputs.shape[0] < 1:
            raise ValueError("inputs must be a non-empty (n, features) matrix")
        if self.labels.shape != (self.inputs.shape[0],):
            raise ValueError("labels must align with inputs")
        if self.labels.min() < 0:
            raise ValueError("negative class id")

    def __len__(self) -> int:
        return self.inputs.shape[0]


class NetworkParams:
    """Every weight, layer-major and row-major within each (out x in)
    matrix, then every bias, held in one float vector `flat`.

    `weights` and `biases` are per-layer views into `flat`, so a write
    through either shows in the other. The first `n_weights` entries are
    the prunable ones, in the order of a `PruningMask`.
    """

    def __init__(self, specs, weights, biases):
        self.specs = list(specs)
        arrays = [*weights, *biases]
        shapes = [(s.out_size, s.in_size) for s in self.specs]
        shapes += [(s.out_size,) for s in self.specs]
        if [np.shape(a) for a in arrays] != shapes:
            raise ValueError("parameter shapes do not match the layer specs")
        self.flat = np.concatenate([np.ravel(a) for a in arrays], dtype=float)
        views, offset = [], 0
        for shape in shapes:
            size = math.prod(shape)
            views.append(self.flat[offset : offset + size].reshape(shape))
            offset += size
        self.weights = views[: len(self.specs)]
        self.biases = views[len(self.specs) :]
        self.n_weights = sum(w.size for w in self.weights)

    def copy(self) -> "NetworkParams":
        return NetworkParams(self.specs, self.weights, self.biases)


def init_network(specs: list[LayerSpec], seed: int) -> NetworkParams:
    """Glorot-uniform weights, zero biases; deterministic for a given seed."""
    if not specs:
        raise ValueError("empty layer spec")
    for a, b in zip(specs, specs[1:]):
        if a.out_size != b.in_size:
            raise ValueError(f"layer sizes do not chain: {a} -> {b}")
    if specs[-1].activation != "none":
        raise ValueError("final layer must emit logits (activation 'none')")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for spec in specs:
        bound = math.sqrt(6.0 / (spec.in_size + spec.out_size))
        weights.append(rng.uniform(-bound, bound, size=(spec.out_size, spec.in_size)))
        biases.append(np.zeros(spec.out_size))
    return NetworkParams(specs, weights, biases)


def _forward(params: NetworkParams, X: np.ndarray):
    """Activations per layer; returns (logits, pre-activation cache)."""
    acts = [X]
    a = X
    for spec, w, b in zip(params.specs, params.weights, params.biases):
        z = a @ w.T + b
        a = np.maximum(z, 0.0) if spec.activation == "relu" else z
        acts.append(a)
    return a, acts


def _softmax_xent(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and d(loss)/d(logits)."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    probs = expz / expz.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    logp = shifted - np.log(expz.sum(axis=1, keepdims=True))
    loss = -float(logp[np.arange(n), labels].mean())
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def loss_and_grads(params: NetworkParams, X: np.ndarray, labels: np.ndarray):
    """Cross-entropy loss and analytic gradients for every weight and bias."""
    logits, acts = _forward(params, X)
    loss, delta = _softmax_xent(logits, labels)
    grad_w = [None] * len(params.specs)
    grad_b = [None] * len(params.specs)
    for l in reversed(range(len(params.specs))):
        if params.specs[l].activation == "relu":
            delta = delta * (acts[l + 1] > 0.0)
        grad_w[l] = delta.T @ acts[l]
        grad_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = delta @ params.weights[l]
    return loss, grad_w, grad_b


def cosine_lr(base_lr: float, epoch: int, total_epochs: int) -> float:
    """Cosine annealing: base_lr at epoch 0, 0 at epoch == total_epochs."""
    return base_lr * (1.0 + math.cos(math.pi * epoch / total_epochs)) / 2.0


def _masked_copy(params: NetworkParams, mask) -> NetworkParams:
    """A copy of `params` with the weights that `mask.flat` drops zeroed."""
    if mask.flat.shape != (params.n_weights,):
        raise ValueError("mask length does not match the network's weights")
    out = params.copy()
    out.flat[: out.n_weights] *= mask.flat
    return out


def train(params: NetworkParams, mask, data: Dataset, cfg: TrainConfig) -> NetworkParams:
    """SGD with momentum/Nesterov/weight-decay under a frozen pruning mask.

    Training starts from `params` with the masked weights zeroed; `params`
    itself is untouched. Masked gradients are zeroed before each update,
    so the masked gradient, velocity and weight entries all stay exactly
    zero. The shuffle order for epoch e is drawn from a generator keyed on
    (seed, e), making runs reproducible.
    """
    net = _masked_copy(params, mask)
    vel = np.zeros_like(net.flat)
    n = len(data)
    batch = min(cfg.batch_size, n)
    for epoch in range(cfg.epochs):
        lr = cosine_lr(cfg.learning_rate, epoch, cfg.epochs)
        order = np.random.default_rng([cfg.seed, epoch]).permutation(n)
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            loss, grad_w, grad_b = loss_and_grads(net, data.inputs[idx], data.labels[idx])
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch offset {start}"
                )
            grad = np.concatenate([*(g.ravel() for g in grad_w), *grad_b])
            grad += cfg.weight_decay * net.flat
            grad[: net.n_weights] *= mask.flat
            vel *= cfg.momentum
            vel += grad
            step = grad + cfg.momentum * vel if cfg.nesterov else vel
            net.flat -= lr * step
    return net


def evaluate(params: NetworkParams, mask, data: Dataset) -> tuple[float, float]:
    """(accuracy, mean cross-entropy) with the mask applied.

    Argmax ties resolve to the lowest class id.
    """
    if len(data) == 0:
        raise ValueError("empty dataset")
    logits, _ = _forward(_masked_copy(params, mask), data.inputs)
    loss, _ = _softmax_xent(logits, data.labels)
    pred = logits.argmax(axis=1)
    return float((pred == data.labels).mean()), loss


def flatten_prunable(params: NetworkParams) -> np.ndarray:
    """Absolute values of all weights as one flat vector, in the order of
    `params.flat` and of a `PruningMask`."""
    return np.abs(params.flat[: params.n_weights])
