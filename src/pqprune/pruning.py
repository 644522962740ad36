"""Mask lifecycle, pruning scopes, magnitude pruning, and the run loops.

Three iterative algorithms operate over a shared loop: `lottery_ticket`
(retrain from the initial weights under the current mask each iteration,
fixed ratio), `sap` (the same retraining, adaptive count from the
sparsity-index retention bound), and `one_shot` (train once, iteratively
mask the same trained weights).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from . import nn
from .records import IterationMetrics, RunRecord
from .sparsity import (
    NormPair,
    UndefinedIndexError,
    gini_index,
    pq_index,
    pqi_lower_bound,
)


class Scope(str, Enum):
    GLOBAL = "global"
    LAYER_WISE = "layer_wise"
    NEURON_WISE = "neuron_wise"


class PruningMask:
    """Keep/drop mask over a network's weights: a bool vector `flat` in the
    order of `NetworkParams.flat[:n_weights]`, True where a weight is kept."""

    def __init__(self, flat):
        self.flat = np.asarray(flat, dtype=bool)

    @classmethod
    def all_ones(cls, params: nn.NetworkParams) -> "PruningMask":
        return cls(np.ones(params.n_weights, dtype=bool))

    def ones_count(self) -> int:
        return int(np.count_nonzero(self.flat))


@dataclass(frozen=True)
class SapHyperParams:
    """Adaptive-count knobs: norm pair, assumed tail ratio, scale, and cap."""

    norms: NormPair = field(default_factory=lambda: NormPair(0.5, 1.0))
    eta: float = 0.0
    gamma: float = 1.0
    beta: float = 0.9

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError("eta must be >= 0")
        if self.gamma <= 0:
            raise ValueError("gamma must be > 0")
        if not (0.0 < self.beta <= 1.0):
            raise ValueError("beta must be in (0, 1]")


@dataclass(frozen=True)
class AlgorithmSpec:
    """Which pruning algorithm to run and for how many iterations."""

    kind: str  # "one_shot", "lottery_ticket", or "sap"
    iterations: int = 30
    ratio: float = 0.2  # fixed per-iteration ratio for the baselines
    sap: SapHyperParams | None = None

    def __post_init__(self):
        if self.kind not in ("one_shot", "lottery_ticket", "sap"):
            raise ValueError(f"unknown algorithm kind {self.kind!r}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not (0.0 < self.ratio < 1.0):
            raise ValueError("ratio must be in (0, 1)")
        if self.kind == "sap" and self.sap is None:
            object.__setattr__(self, "sap", SapHyperParams())


def partition(params: nn.NetworkParams, scope: Scope) -> list[tuple[list[str], int, int, int]]:
    """The scope's blocks `(row labels, offset, rows, cols)`: each block is
    the (rows, cols) matrix at `offset` of the flat weights, and each of its
    rows is one pruning group. Together the blocks cover each weight once.

    Global: one 1 x n block. Layer-wise: one 1 x size block per weight
    matrix. Neuron-wise: each weight matrix, one row per output unit's fan-in.
    """
    if scope == Scope.GLOBAL:
        return [(["global"], 0, 1, params.n_weights)]
    if scope not in (Scope.LAYER_WISE, Scope.NEURON_WISE):
        raise ValueError(f"unknown scope {scope!r}")
    blocks = []
    offset = 0
    for l, w in enumerate(params.weights):
        if scope == Scope.LAYER_WISE:
            blocks.append(([f"layer{l}"], offset, 1, w.size))
        else:
            rows, cols = w.shape
            blocks.append(([f"layer{l}/neuron{r}" for r in range(rows)], offset, rows, cols))
        offset += w.size
    return blocks


def magnitude_prune(mags: np.ndarray, keep: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Row-major positions, within the (rows, cols) block `mags`, of the
    `counts[r]` smallest magnitudes that `keep` marks in each row r.

    Ties break toward the lowest position. Each count must lie in
    [0, survivors of its row].
    """
    counts = np.asarray(counts)
    if np.any(counts < 0) or np.any(counts > np.count_nonzero(keep, axis=1)):
        raise ValueError("each count must be in [0, survivors of its row]")
    # Dropped entries sort after every survivor; the stable sort keeps equal
    # magnitudes in position order.
    order = np.argsort(np.where(keep, mags, np.inf), axis=1, kind="stable")
    first = np.arange(mags.shape[1]) < counts[:, None]
    return np.nonzero(first)[0] * mags.shape[1] + order[first]


def sap_decision(d: int, pqi: float, hp: SapHyperParams) -> dict:
    """The logged decision for a group of `d` survivors with sparsity index
    `pqi`: `pqi`, the retention bound `r`, and the prune count
    `c` = floor(d * min(gamma * (1 - r/d), beta)), clamped below at zero.

    Negative gamma*(1 - r/d) only arises from floating-point noise since
    the bound satisfies r <= d for eta >= 0.
    """
    r = pqi_lower_bound(d, pqi, hp.eta, hp.norms)
    # gamma * (d - r) == d * gamma * (1 - r/d) exactly, but keeps integer
    # cases (e.g. d=1000, r=900) free of 1 - r/d rounding.
    c = max(int(math.floor(min(hp.gamma * (d - r), hp.beta * d))), 0)
    return {"pqi": pqi, "r": r, "c": c}


def sap_count(survivors: np.ndarray, hp: SapHyperParams) -> dict:
    """`sap_decision` for a group's surviving magnitudes. Raises
    UndefinedIndexError when every one is zero; the run loop skips such a
    group for the iteration."""
    return sap_decision(survivors.size, pq_index(survivors, hp.norms), hp)


def _surviving_index(mags: np.ndarray, mask: PruningMask, norms: NormPair):
    """(pq_index, gini) of the surviving entries of the flat weight
    magnitudes `mags`; NaN if undefined."""
    surv = mags[mask.flat]
    try:
        return pq_index(surv, norms), gini_index(surv)
    except ValueError:
        return float("nan"), float("nan")


def run_pruning(
    alg: AlgorithmSpec,
    scope: Scope,
    layer_specs: list[nn.LayerSpec],
    cfg: nn.TrainConfig,
    train_data: nn.Dataset,
    test_data: nn.Dataset,
) -> RunRecord:
    """Run one pruning experiment and return its full iteration record.

    Produces iterations t = 0..T inclusive; row t holds metrics of the model
    under mask m_t ("retrained") and under m_{t+1} ("pruned", no retraining).
    The reported sparsity indices use the SAP norm pair, or the default
    pair (0.5, 1.0) for the baselines.
    """
    index_norms = (alg.sap or SapHyperParams()).norms
    params = nn.init_network(layer_specs, cfg.seed)
    mask = PruningMask.all_ones(params)
    d0 = mask.ones_count()
    blocks = partition(params, scope)
    record = RunRecord(
        config={
            "algorithm": alg.kind,
            "iterations": alg.iterations,
            "ratio": alg.ratio,
            "sap": None
            if alg.sap is None
            else {
                "p": alg.sap.norms.p,
                "q": alg.sap.norms.q,
                "eta": alg.sap.eta,
                "gamma": alg.sap.gamma,
                "beta": alg.sap.beta,
            },
            "scope": scope.value,
            "index_p": index_norms.p,
            "index_q": index_norms.q,
            "seed": cfg.seed,
            "train": {k: v for k, v in asdict(cfg).items() if k != "seed"},
            "layers": [  # a ReLU follows every layer but the last, which emits logits
                {"in": s.in_size, "out": s.out_size,
                 "activation": "relu" if l < len(layer_specs) - 1 else "none"}
                for l, s in enumerate(layer_specs)
            ],
        }
    )

    for t in range(alg.iterations + 1):
        if alg.kind != "one_shot" or t == 0:
            try:
                model = nn.train(params, mask, train_data, cfg)
            except nn.TrainingDivergedError as exc:
                record.events.append(f"iteration {t}: training diverged: {exc}")
                record.completed = False
                return record
            mags = nn.flatten_prunable(model)
            acc_r, loss_r = nn.evaluate(model, mask, test_data)
            pqi_r, gini_r = _surviving_index(mags, mask, index_norms)
        else:
            # One shot never retrains: this round's weights and mask are the
            # ones last round's pruned metrics were taken under.
            acc_r, loss_r, pqi_r, gini_r = acc_p, loss_p, pqi_p, gini_p
        d_t = mask.ones_count()

        next_mask = PruningMask(mask.flat.copy())
        group_logs = []
        for labels, offset, rows, cols in blocks:
            keep = mask.flat[offset : offset + rows * cols].reshape(rows, cols)
            block = mags[offset : offset + rows * cols].reshape(rows, cols)
            survivors = np.count_nonzero(keep, axis=1)
            counts = np.zeros(rows, dtype=int)
            for r in np.flatnonzero(survivors).tolist():  # exhausted rows log nothing
                entry = {"label": labels[r], "d": int(survivors[r])}
                try:
                    if alg.kind == "sap":
                        entry.update(sap_count(block[r][keep[r]], alg.sap))
                    else:
                        entry["c"] = math.floor(entry["d"] * alg.ratio)
                except UndefinedIndexError:
                    record.events.append(
                        f"iteration {t}: group {labels[r]} all-zero survivors; skipped"
                    )
                    continue
                counts[r] = entry["c"]
                group_logs.append(entry)
            next_mask.flat[offset + magnitude_prune(block, keep, counts)] = False

        acc_p, loss_p = nn.evaluate(model, next_mask, test_data)
        pqi_p, gini_p = _surviving_index(mags, next_mask, index_norms)

        record.iterations.append(
            IterationMetrics(
                t=t,
                d_t=d_t,
                percent_remaining=d_t / d0,
                acc_retrained=acc_r,
                loss_retrained=loss_r,
                acc_pruned=acc_p,
                loss_pruned=loss_p,
                pqi_retrained=pqi_r,
                pqi_pruned=pqi_p,
                gini_retrained=gini_r,
                delta_acc=acc_r - acc_p,
                delta_pqi=pqi_r - pqi_p,
                c_total=sum(entry["c"] for entry in group_logs),
                groups=group_logs,
            )
        )
        mask = next_mask
    return record


def replay_count(entry: dict, hp: SapHyperParams) -> int:
    """Recompute a logged group's prune count from its logged (d, pqi)."""
    return sap_decision(entry["d"], entry["pqi"], hp)["c"]
