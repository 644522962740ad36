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
    """Per-layer weight matrices (out x in) and bias vectors.

    Keeps an immutable snapshot of the parameters taken at construction,
    used for rewinding surviving weights to their initial values.
    """

    def __init__(self, specs, weights, biases, _snapshot=None):
        self.specs = list(specs)
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        for spec, w, b in zip(self.specs, self.weights, self.biases):
            if w.shape != (spec.out_size, spec.in_size) or b.shape != (spec.out_size,):
                raise ValueError(f"parameter shape mismatch for {spec}")
        if _snapshot is None:
            _snapshot = (
                [w.copy() for w in self.weights],
                [b.copy() for b in self.biases],
            )
            for arr in _snapshot[0] + _snapshot[1]:
                arr.setflags(write=False)
        self._snapshot = _snapshot

    @property
    def init_weights(self):
        return self._snapshot[0]

    @property
    def init_biases(self):
        return self._snapshot[1]

    @property
    def weight_shapes(self):
        return [w.shape for w in self.weights]

    def num_weights(self) -> int:
        return sum(w.size for w in self.weights)

    def copy(self) -> "NetworkParams":
        return NetworkParams(
            self.specs,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            _snapshot=self._snapshot,
        )


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


def rewind(params: NetworkParams, mask) -> NetworkParams:
    """Initial snapshot with masked entries zeroed; the input is untouched."""
    layers = mask.layers
    if [m.shape for m in layers] != params.weight_shapes:
        raise ValueError("mask shape does not match parameters")
    weights = [w0 * m for w0, m in zip(params.init_weights, layers)]
    biases = [b0.copy() for b0 in params.init_biases]
    return NetworkParams(params.specs, weights, biases, _snapshot=params._snapshot)


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


def train(params: NetworkParams, mask, data: Dataset, cfg: TrainConfig) -> NetworkParams:
    """SGD with momentum/Nesterov/weight-decay under a frozen pruning mask.

    Masked gradients are zeroed before each update and masked weights are
    re-zeroed after it, so pruned entries stay exactly zero. The shuffle
    order for epoch e is drawn from a generator keyed on (seed, e), making
    runs reproducible.
    """
    net = params.copy()
    mlayers = mask.layers
    if [m.shape for m in mlayers] != net.weight_shapes:
        raise ValueError("mask shape does not match parameters")
    for w, m in zip(net.weights, mlayers):
        w *= m
    vel_w = [np.zeros_like(w) for w in net.weights]
    vel_b = [np.zeros_like(b) for b in net.biases]
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
            for l in range(len(net.specs)):
                gw = grad_w[l] + cfg.weight_decay * net.weights[l]
                gw *= mlayers[l]
                vel_w[l] = cfg.momentum * vel_w[l] + gw
                step = gw + cfg.momentum * vel_w[l] if cfg.nesterov else vel_w[l]
                net.weights[l] -= lr * step
                net.weights[l] *= mlayers[l]

                gb = grad_b[l] + cfg.weight_decay * net.biases[l]
                vel_b[l] = cfg.momentum * vel_b[l] + gb
                step = gb + cfg.momentum * vel_b[l] if cfg.nesterov else vel_b[l]
                net.biases[l] -= lr * step
    return net


def evaluate(params: NetworkParams, mask, data: Dataset) -> tuple[float, float]:
    """(accuracy, mean cross-entropy) with the mask applied.

    Argmax ties resolve to the lowest class id.
    """
    if len(data) == 0:
        raise ValueError("empty dataset")
    masked = params.copy()
    for w, m in zip(masked.weights, mask.layers):
        w *= m
    logits, _ = _forward(masked, data.inputs)
    loss, _ = _softmax_xent(logits, data.labels)
    pred = logits.argmax(axis=1)
    return float((pred == data.labels).mean()), loss


class WeightIndexMap:
    """Layout of the flat prunable-weight vector: each layer's slice of it.

    Flat order is layer-major, then row-major within each weight matrix.
    Biases are not prunable and do not appear.
    """

    def __init__(self, shapes):
        self.shapes = [tuple(s) for s in shapes]
        sizes = [r * c for r, c in self.shapes]
        self.offsets = np.concatenate([[0], np.cumsum(sizes)])
        self.total = int(self.offsets[-1])

    def layer_slice(self, layer: int) -> slice:
        return slice(int(self.offsets[layer]), int(self.offsets[layer + 1]))


def flatten_prunable(params: NetworkParams) -> np.ndarray:
    """Absolute values of all weights as one flat vector, in the order of
    `WeightIndexMap(params.weight_shapes)`."""
    return np.concatenate([np.abs(w).ravel() for w in params.weights])
