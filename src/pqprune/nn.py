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

    def __post_init__(self):
        if self.in_size < 1 or self.out_size < 1:
            raise ValueError("layer sizes must be positive")


# Each model's hidden widths; every layer but the last is followed by a ReLU.
MODELS = {"Linear": (), "MLP": (128, 256)}


def model_specs(model: str, in_size: int, n_classes: int) -> list[LayerSpec]:
    """The dense layers of `model`, from `in_size` inputs to `n_classes` logits."""
    sizes = (in_size, *MODELS[model], n_classes)
    return [LayerSpec(a, b) for a, b in zip(sizes, sizes[1:])]


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
    matrix, then every bias, held in the float vector `flat` it is given.

    `weights` and `biases` are per-layer views into `flat`, so a write
    through either shows in the other. The first `n_weights` entries are
    the prunable ones, in the order of a `PruningMask`.
    """

    def __init__(self, specs, flat: np.ndarray):
        self.specs = list(specs)
        self.flat = flat
        shapes = [(s.out_size, s.in_size) for s in specs] + [(s.out_size,) for s in specs]
        sizes = [math.prod(shape) for shape in shapes]
        if flat.shape != (sum(sizes),):
            raise ValueError("parameter vector length does not match the layer specs")
        views, offset = [], 0
        for shape, size in zip(shapes, sizes):
            views.append(flat[offset : offset + size].reshape(shape))
            offset += size
        self.weights, self.biases = views[: len(self.specs)], views[len(self.specs) :]
        self.n_weights = sum(w.size for w in self.weights)

    def copy(self) -> "NetworkParams":
        return NetworkParams(self.specs, self.flat.copy())


def init_network(specs: list[LayerSpec], seed: int) -> NetworkParams:
    """Glorot-uniform weights, zero biases; deterministic for a given seed."""
    if not specs:
        raise ValueError("empty layer spec")
    for a, b in zip(specs, specs[1:]):
        if a.out_size != b.in_size:
            raise ValueError(f"layer sizes do not chain: {a} -> {b}")
    rng = np.random.default_rng(seed)
    params = NetworkParams(specs, np.zeros(sum(s.out_size * (s.in_size + 1) for s in specs)))
    for spec, w in zip(specs, params.weights):
        bound = math.sqrt(6.0 / (spec.in_size + spec.out_size))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


def _forward(params: NetworkParams, X: np.ndarray):
    """Returns (logits, activations): the input, then each layer's output."""
    acts = [X]
    a = X
    last = len(params.specs) - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = a @ w.T
        a += b
        if l < last:
            np.maximum(a, 0.0, out=a)
        acts.append(a)
    return a, acts


def _softmax_xent(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and d(loss)/d(logits)."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    grad = np.exp(shifted)
    total = grad.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    rows = np.arange(n)
    loss = -float((shifted[rows, labels] - np.log(total[:, 0])).mean())
    grad /= total
    grad[rows, labels] -= 1.0
    grad /= n
    return loss, grad


def loss_and_grads(
    params: NetworkParams, X: np.ndarray, labels: np.ndarray, grads: NetworkParams
) -> float:
    """Cross-entropy loss; the analytic gradient of every weight and bias is
    written into the matching view of `grads`, in the layout of `params`."""
    logits, acts = _forward(params, X)
    loss, delta = _softmax_xent(logits, labels)
    last = len(params.specs) - 1
    for l in reversed(range(last + 1)):
        if l < last:
            delta *= acts[l + 1] > 0.0
        np.matmul(delta.T, acts[l], out=grads.weights[l])
        np.add.reduce(delta, axis=0, out=grads.biases[l])
        if l > 0:
            delta = delta @ params.weights[l]
    return loss


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


@np.errstate(over="ignore", invalid="ignore")  # the finite-loss check reports divergence
def train(params: NetworkParams, mask, data: Dataset, cfg: TrainConfig) -> NetworkParams:
    """SGD with momentum/Nesterov/weight-decay under a frozen pruning mask.

    Training starts from `params` with the masked weights zeroed; `params`
    itself is untouched. Masked gradients are zeroed before each update,
    so the masked gradient, velocity and weight entries all stay exactly
    zero. The shuffle order for epoch e is drawn from a generator keyed on
    (seed, e), making runs reproducible.
    """
    net = _masked_copy(params, mask)
    keep = mask.flat.astype(float)
    grads = NetworkParams(net.specs, np.empty_like(net.flat))
    grad, grad_prunable = grads.flat, grads.flat[: net.n_weights]
    vel = np.zeros_like(net.flat)
    scratch = np.empty_like(net.flat)
    n = len(data)
    batch = min(cfg.batch_size, n)
    for epoch in range(cfg.epochs):
        lr = cosine_lr(cfg.learning_rate, epoch, cfg.epochs)
        order = np.random.default_rng([cfg.seed, epoch]).permutation(n)
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            loss = loss_and_grads(net, data.inputs[idx], data.labels[idx], grads)
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch offset {start}"
                )
            # The operations, in order, of grad += wd * flat; grad *= mask;
            # vel = m * vel + grad; flat -= lr * (grad + m * vel if nesterov
            # else vel): any other order rounds differently.
            np.multiply(net.flat, cfg.weight_decay, out=scratch)
            grad += scratch
            grad_prunable *= keep
            vel *= cfg.momentum
            vel += grad
            if cfg.nesterov:
                np.multiply(vel, cfg.momentum, out=scratch)
                scratch += grad
                scratch *= lr
            else:
                np.multiply(vel, lr, out=scratch)
            net.flat -= scratch
    return net


def evaluate(params: NetworkParams, mask, data: Dataset) -> tuple[float, float]:
    """(accuracy, mean cross-entropy) with the mask applied.

    Argmax ties resolve to the lowest class id.
    """
    logits, _ = _forward(_masked_copy(params, mask), data.inputs)
    loss, _ = _softmax_xent(logits, data.labels)
    pred = logits.argmax(axis=1)
    return float((pred == data.labels).mean()), loss


def flatten_prunable(params: NetworkParams) -> np.ndarray:
    """Absolute values of all weights as one flat vector, in the order of
    `params.flat` and of a `PruningMask`."""
    return np.abs(params.flat[: params.n_weights])
