"""Mask lifecycle, pruning scopes, magnitude pruning, and the run loops.

Three iterative algorithms operate over a shared loop: `lottery_ticket`
(retrain from the initial weights under the current mask each iteration,
fixed ratio), `sap` (the same retraining, adaptive count from the
sparsity-index retention bound), and `one_shot` (train once, iteratively
mask the same trained weights).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import nn
from .records import IterationMetrics, RunRecord
from .sparsity import (
    DEFAULT_NORMS,
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
    order of `NetworkParams.flat[:n_weights]`, True where a weight is kept.
    It remains only for perfbench's density probe; ROADMAP item 12 removes it."""

    def __init__(self, flat):
        self.flat = np.asarray(flat, dtype=bool)


@dataclass(frozen=True)
class SapHyperParams:
    """Adaptive-count knobs: norm pair, assumed tail ratio, scale, and cap."""

    norms: NormPair = DEFAULT_NORMS
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
    iterations: int = 10
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

    @property
    def index_norms(self) -> NormPair:
        """The reported indices' norm pair: SAP's, or DEFAULT_NORMS for the baselines."""
        return DEFAULT_NORMS if self.sap is None else self.sap.norms


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
    [0, survivors of its row]. A one-row block (global and layer_wise
    scopes) is pruned by selection rather than a sort of the whole row.
    """
    counts = np.asarray(counts)
    if np.any(counts < 0) or np.any(counts > np.count_nonzero(keep, axis=1)):
        raise ValueError("each count must be in [0, survivors of its row]")
    if mags.shape[0] == 1:
        return _select_smallest(mags[0], keep[0], int(counts[0]))
    # Dropped entries sort after every survivor; the stable sort keeps equal
    # magnitudes in position order.
    order = np.argsort(np.where(keep, mags, np.inf), axis=1, kind="stable")
    first = np.arange(mags.shape[1]) < counts[:, None]
    return np.nonzero(first)[0] * mags.shape[1] + order[first]


def _select_smallest(mags: np.ndarray, keep: np.ndarray, count: int) -> np.ndarray:
    """`magnitude_prune` of one row by selection: the work scales with the
    row's survivors, and only the `count` picked ones are sorted."""
    survivors = np.flatnonzero(keep)
    if count == 0:
        return survivors[:0]
    values = mags[keep]
    kth = np.partition(values, count - 1)[count - 1]
    picked = values < kth
    # Of the survivors equal to the count-th smallest, the first in position.
    tied = np.flatnonzero(values == kth)[: count - np.count_nonzero(picked)]
    picked[tied] = True
    chosen = np.flatnonzero(picked)
    return survivors[chosen[np.argsort(values[chosen], kind="stable")]]


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
    seed: int,
    train_data: nn.Dataset,
    test_data: nn.Dataset,
) -> RunRecord:
    """Run one pruning experiment and return its iteration record; its
    `config` is left empty, for the caller's `experiment.cell_echo`.

    Produces iterations t = 0..T inclusive; row t holds metrics of the model
    under mask m_t ("retrained") and under m_{t+1} ("pruned", no retraining).
    The reported sparsity indices use `alg.index_norms`. `d_t` follows the
    recurrence d_{t+1} = d_t - c_total; the mask is never recounted.

    `seed` draws the initial network and each training's shuffle order.
    Each training round trains, in place, the one network it is handed.
    Rewinding to the initial weights rebuilds them with `nn.init_network`
    from `seed`, bit for bit, once the last round's network and magnitudes
    have gone, so no copy of the initial network is held while a round
    trains. One shot hands over its only network at t=0. The cell holds
    one mask, which `_prune` shrinks to m_{t+1} in place. The network
    stands pruned to it: masks only shrink, so `nn.apply_mask` prunes it
    to m_{t+1} in place before the pruned evaluation. A non-finite
    training or test loss ends the cell as diverged.
    """
    model = nn.init_network(layer_specs, seed)
    mask = PruningMask(np.ones(model.n_weights, dtype=bool))
    d0 = d_t = model.n_weights
    blocks = partition(model, scope)
    record = RunRecord(config={})

    try:
        for t in range(alg.iterations + 1):
            if t == 0 or alg.kind != "one_shot":
                if t > 0:
                    # Rewind: the last round's network and magnitudes go before
                    # the initial network is rebuilt, so a round holds one.
                    model = mags = None
                    model = nn.init_network(layer_specs, seed)
                model = nn.train(model, mask, train_data, cfg, seed)
                mags = nn.flatten_prunable(model)
                acc_r, loss_r = nn.evaluate(model, test_data)
                pqi_r, gini_r = _surviving_index(mags, mask, alg.index_norms)
            else:
                # One shot never retrains: this round's weights and mask are the
                # ones last round's pruned metrics were taken under.
                acc_r, loss_r, pqi_r, gini_r = acc_p, loss_p, pqi_p, gini_p

            group_logs, skipped, counts = _decide(alg, blocks, mags, mask)
            record.events.extend(f"iteration {t}: {event}" for event in skipped)
            c_total = sum(entry["c"] for entry in group_logs)
            if c_total > 0:
                _prune(blocks, mags, mask, counts)
                acc_p, loss_p = nn.evaluate(nn.apply_mask(model, mask), test_data)
                pqi_p, gini_p = _surviving_index(mags, mask, alg.index_norms)
            else:  # the mask stays as it is, and so does every metric
                acc_p, loss_p, pqi_p, gini_p = acc_r, loss_r, pqi_r, gini_r

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
                    c_total=c_total,
                    groups=group_logs,
                )
            )
            d_t -= c_total
            if c_total == 0:
                # Every later round has this round's network and mask, so it
                # would make the same decisions: repeat this round under each t.
                for later in range(t + 1, alg.iterations + 1):
                    record.events.extend(f"iteration {later}: {event}" for event in skipped)
                    record.iterations.append(replace(record.iterations[t], t=later))
                break
    except nn.TrainingDivergedError as exc:
        record.events.append(f"iteration {t}: training diverged: {exc}")
        record.completed = False
    return record


def _block_view(flat: np.ndarray, offset: int, rows: int, cols: int) -> np.ndarray:
    return flat[offset : offset + rows * cols].reshape(rows, cols)


def _decide(alg: AlgorithmSpec, blocks, mags: np.ndarray, mask: PruningMask):
    """One round's decisions over the flat magnitudes `mags` under `mask`:
    the group log entries, the events of the groups skipped for all-zero
    survivors, and each block's per-row prune counts."""
    group_logs, skipped, counts = [], [], []
    for labels, offset, rows, cols in blocks:
        keep = _block_view(mask.flat, offset, rows, cols)
        block = _block_view(mags, offset, rows, cols)
        survivors = np.count_nonzero(keep, axis=1)
        block_counts = np.zeros(rows, dtype=int)
        for r in np.flatnonzero(survivors).tolist():  # exhausted rows log nothing
            entry = {"label": labels[r], "d": int(survivors[r])}
            try:
                if alg.kind == "sap":
                    entry.update(sap_count(block[r][keep[r]], alg.sap))
                else:
                    entry["c"] = math.floor(entry["d"] * alg.ratio)
            except UndefinedIndexError:
                skipped.append(f"group {labels[r]} all-zero survivors; skipped")
                continue
            block_counts[r] = entry["c"]
            group_logs.append(entry)
        counts.append(block_counts)
    return group_logs, skipped, counts


def _prune(blocks, mags: np.ndarray, mask: PruningMask, counts) -> None:
    """Clear from `mask`, in place, the weights that each block's `counts` prune."""
    for (_, offset, rows, cols), block_counts in zip(blocks, counts):
        drop = magnitude_prune(
            _block_view(mags, offset, rows, cols),
            _block_view(mask.flat, offset, rows, cols),
            block_counts,
        )
        mask.flat[offset + drop] = False


def replay_count(entry: dict, hp: SapHyperParams) -> int:
    """Recompute a logged group's prune count from its logged (d, pqi)."""
    return sap_decision(entry["d"], entry["pqi"], hp)["c"]
