"""Minimal dense network: Glorot init, masked SGD training, evaluation.

Networks are lists of dense layers with ReLU on hidden layers and raw
logits at the output. Training is mini-batch SGD with momentum, optional
Nesterov, weight decay, and a per-epoch cosine-annealed learning rate.
A pruning mask freezes entries: their gradients are zeroed before every
update, and the network stands pruned, its dropped weights exactly zero.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np


def _pin_blas_to_one_thread() -> None:
    """Set the OpenBLAS that numpy loaded to one thread. Its thread count
    changes the last bits of a product, and so a run's bytes, and two threads
    per cell oversubscribe the CPUs when cells run in parallel. Forked
    children inherit the pin. Any other BLAS is left as it is."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(None, 5)[5].strip() for line in maps if "openblas" in line}
    except OSError:  # no /proc: not Linux
        return
    for path in sorted(paths):
        lib = ctypes.CDLL(path)  # the loaded library's own handle
        setter = (getattr(lib, "scipy_openblas_set_num_threads64_", None)
                  or getattr(lib, "openblas_set_num_threads", None))
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)


_pin_blas_to_one_thread()


class TrainingDivergedError(RuntimeError):
    """A training or test loss became non-finite."""


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
    """Training hyper-parameters. The defaults are desk-scale: few epochs,
    small batches, and a strong weight decay so magnitudes differentiate
    within 5 epochs."""

    epochs: int = 5
    batch_size: int = 50
    learning_rate: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.05
    nesterov: bool = True

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


# Test rows per forward pass in `evaluate`.
EVAL_ROWS = 250


def _layer_buffers(specs: list[LayerSpec], rows: int) -> list[np.ndarray]:
    """One (rows, out) block per layer, for `_forward` to write that layer's
    output into."""
    return [np.empty((rows, s.out_size)) for s in specs]


def _forward(params: NetworkParams, X: np.ndarray, bufs: list[np.ndarray]):
    """[X, then each layer's output], each layer's written into the first
    rows of its block of `bufs`; the last is the logits."""
    acts = [X]
    last = len(params.specs) - 1
    for l, (w, b, buf) in enumerate(zip(params.weights, params.biases, bufs)):
        a = np.matmul(acts[-1], w.T, out=buf[: X.shape[0]])
        a += b
        if l < last:
            np.maximum(a, 0.0, out=a)
        acts.append(a)
    return acts


def _log_softmax_parts(logits: np.ndarray, labels: np.ndarray):
    """(each row's log-softmax at its label, exp(logits - row max), its row sums)."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    loglik = shifted[np.arange(logits.shape[0]), labels] - np.log(total[:, 0])
    return loglik, exp, total


def _softmax_xent(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and d(loss)/d(logits)."""
    loglik, grad, total = _log_softmax_parts(logits, labels)
    n = logits.shape[0]
    loss = -float(loglik.mean())
    grad /= total
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad


def loss_and_grads(
    params: NetworkParams, X: np.ndarray, labels: np.ndarray, grads: NetworkParams,
    bufs: list[np.ndarray] | None = None,
) -> float:
    """Cross-entropy loss; the analytic gradient of every weight and bias is
    written into the matching view of `grads`, in the layout of `params`.

    `bufs`, `_layer_buffers` of at least X's rows (allocated here if not
    given), hold each layer's activations and then the deltas: once a hidden
    layer's activations have given their weight gradient and ReLU mask, the
    delta propagated back to that layer is written over them.
    """
    if bufs is None:
        bufs = _layer_buffers(params.specs, X.shape[0])
    acts = _forward(params, X, bufs)
    loss, delta = _softmax_xent(acts[-1], labels)
    for l in reversed(range(len(params.specs))):
        np.matmul(delta.T, acts[l], out=grads.weights[l])
        np.add.reduce(delta, axis=0, out=grads.biases[l])
        if l > 0:
            live = acts[l] > 0.0
            delta = np.matmul(delta, params.weights[l], out=acts[l])
            delta *= live
    return loss


def cosine_lr(base_lr: float, epoch: int, total_epochs: int) -> float:
    """Cosine annealing: base_lr at epoch 0, 0 at epoch == total_epochs."""
    return base_lr * (1.0 + math.cos(math.pi * epoch / total_epochs)) / 2.0


def apply_mask(net: NetworkParams, mask) -> NetworkParams:
    """Zeroes in place the weights of `net` that `mask.flat` drops, each
    to a zero with its sign, and returns `net`."""
    if mask.flat.shape != (net.n_weights,):
        raise ValueError("mask length does not match the network's weights")
    net.flat[: net.n_weights] *= mask.flat
    return net


@np.errstate(over="ignore", invalid="ignore")  # the finite-loss check reports divergence
def train(net: NetworkParams, mask, data: Dataset, cfg: TrainConfig, seed: int) -> NetworkParams:
    """SGD with momentum/Nesterov/weight-decay under a frozen pruning mask.

    Trains `net` itself in place and returns it pruned to `mask`: it is
    pruned first (`apply_mask`), so a caller that rewinds hands over a
    freshly built initial network. Masked gradients are zeroed before each
    update, by multiplying with the boolean `mask.flat` itself, not a float
    copy of it, so the masked gradient, velocity and weight entries all stay
    exactly zero. The shuffle order for epoch e is drawn from a generator
    keyed on (`seed`, e), making runs reproducible.

    Besides `net`, the call holds the gradient, the velocity, one work
    vector and one set of `_layer_buffers` for a batch, all allocated once:
    each step's batch is gathered into the work vector, `loss_and_grads`
    writes the activations and deltas into the layer buffers, and once the
    gradient is taken, the update is built in the work vector.
    """
    apply_mask(net, mask)
    grads = NetworkParams(net.specs, np.empty_like(net.flat))
    grad, grad_prunable = grads.flat, grads.flat[: net.n_weights]
    vel = np.zeros_like(net.flat)
    n, features = data.inputs.shape
    batch = min(cfg.batch_size, n)
    work = np.empty(max(batch * features, net.flat.size))
    rows = work[: batch * features].reshape(batch, features)
    update = work[: net.flat.size]
    bufs = _layer_buffers(net.specs, batch)
    for epoch in range(cfg.epochs):
        lr = cosine_lr(cfg.learning_rate, epoch, cfg.epochs)
        order = np.random.default_rng([seed, epoch]).permutation(n)
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            # `order` is a permutation, so no index is clipped; "raise" would
            # gather into a temporary batch first.
            X = np.take(data.inputs, idx, axis=0, out=rows[: idx.size], mode="clip")
            loss = loss_and_grads(net, X, data.labels[idx], grads, bufs)
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch offset {start}"
                )
            # The batch is spent: `update` may overwrite it. The operations,
            # in order, of grad += wd * flat; grad *= mask; vel = m * vel +
            # grad; flat -= lr * (grad + m * vel if nesterov else vel): any
            # other order rounds differently.
            np.multiply(net.flat, cfg.weight_decay, out=update)
            grad += update
            grad_prunable *= mask.flat
            vel *= cfg.momentum
            vel += grad
            if cfg.nesterov:
                np.multiply(vel, cfg.momentum, out=update)
                update += grad
                update *= lr
            else:
                np.multiply(vel, lr, out=update)
            net.flat -= update
    return net


@np.errstate(over="ignore", invalid="ignore")  # a non-finite test loss raises below
def evaluate(net: NetworkParams, data: Dataset) -> tuple[float, float]:
    """(accuracy, mean cross-entropy) of `net` as it stands, pruned to its
    current mask. The call holds no copy of the network.

    The rows pass through the network `EVAL_ROWS` at a time, each block's
    activations written into one set of `_layer_buffers` allocated once per
    call, so the call holds one block's activations, never the whole
    split's. Each row's log-likelihood and correctness land in one vector
    each, reduced once, so the results equal those of one pass over every
    row bit for bit. Argmax ties resolve to the lowest class id. A
    non-finite loss raises TrainingDivergedError, with no numpy warning:
    training checks its loss only before each update, so its last update
    can leave finite weights that overflow on the test split.
    """
    n = len(data)
    loglik = np.empty(n)
    correct = np.empty(n, dtype=bool)
    bufs = _layer_buffers(net.specs, min(n, EVAL_ROWS))
    for start in range(0, n, EVAL_ROWS):
        rows = slice(start, start + EVAL_ROWS)
        logits = _forward(net, data.inputs[rows], bufs)[-1]
        labels = data.labels[rows]
        loglik[rows] = _log_softmax_parts(logits, labels)[0]
        correct[rows] = logits.argmax(axis=1) == labels
    loss = -float(loglik.mean())
    if not math.isfinite(loss):
        raise TrainingDivergedError("non-finite test loss")
    return float(correct.mean()), loss


def flatten_prunable(params: NetworkParams) -> np.ndarray:
    """Absolute values of all weights as one flat vector, in the order of
    `params.flat` and of a `PruningMask`."""
    return np.abs(params.flat[: params.n_weights])
