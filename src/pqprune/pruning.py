"""Mask lifecycle, pruning scopes, magnitude pruning, and the run loops.

Three iterative algorithms operate over a shared loop: `lottery_ticket`
(retrain from the initial weights under the current mask each iteration,
fixed ratio), `sap` (the same retraining, adaptive count from the
sparsity-index retention bound), and `one_shot` (train once, iteratively
mask the same trained weights).
"""

from __future__ import annotations

import logging
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

log = logging.getLogger(__name__)


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

    def without(self, drops) -> "PruningMask":
        """One copy with the flat indices in every array of `drops` cleared."""
        flat = self.flat.copy()
        for indices in drops:
            flat[indices] = False
        return PruningMask(flat)


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


@dataclass
class Group:
    """Surviving entries of one pruning scope unit.

    `indices` are flat positions (into the global prunable vector) where the
    mask is 1; `magnitudes` are the matching |weight| values.
    """

    label: str
    indices: np.ndarray
    magnitudes: np.ndarray

    @property
    def survivors(self) -> int:
        return self.indices.size


def partition(
    params: nn.NetworkParams,
    mask: PruningMask,
    scope: Scope,
    mags: np.ndarray | None = None,
) -> list[Group]:
    """Split surviving weights into scope groups covering each entry once.

    Global: one group. Layer-wise: one group per weight matrix. Neuron-wise:
    one group per row of each weight matrix (fan-in of one output unit).
    `mags` may pass in `nn.flatten_prunable(params)` already computed.
    """
    if mags is None:
        mags = nn.flatten_prunable(params)
    groups = []

    def make(label, lo, hi):
        idx = np.nonzero(mask.flat[lo:hi])[0] + lo
        groups.append(Group(label=label, indices=idx, magnitudes=mags[idx]))

    if scope == Scope.GLOBAL:
        make("global", 0, params.n_weights)
    elif scope in (Scope.LAYER_WISE, Scope.NEURON_WISE):
        base = 0
        for l, w in enumerate(params.weights):
            rows, cols = w.shape
            if scope == Scope.LAYER_WISE:
                make(f"layer{l}", base, base + w.size)
            else:
                for r in range(rows):
                    make(f"layer{l}/neuron{r}", base + r * cols, base + (r + 1) * cols)
            base += w.size
    else:
        raise ValueError(f"unknown scope {scope!r}")
    return groups


def magnitude_prune(group: Group, count: int) -> np.ndarray:
    """Flat indices of the `count` smallest surviving magnitudes in `group`.

    Ties break toward the lowest flat index. A count above the survivor
    total is clamped with a warning.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if count > group.survivors:
        log.warning(
            "prune count %d exceeds %d survivors in %s; clamping",
            count,
            group.survivors,
            group.label,
        )
        count = group.survivors
    order = np.argsort(group.magnitudes, kind="stable")
    return group.indices[order[:count]]


def sap_prune_count(d: int, r: float, gamma: float, beta: float) -> int:
    """floor(d * min(gamma * (1 - r/d), beta)), clamped below at zero.

    Negative gamma*(1 - r/d) only arises from floating-point noise since
    the bound satisfies r <= d for eta >= 0.
    """
    # gamma * (d - r) == d * gamma * (1 - r/d) exactly, but keeps integer
    # cases (e.g. d=1000, r=900) free of 1 - r/d rounding.
    value = min(gamma * (d - r), beta * d)
    return max(int(math.floor(value)), 0)


@dataclass(frozen=True)
class SapDecision:
    index: float  # sparsity index of the surviving magnitudes
    bound: float  # retention lower bound r
    count: int  # entries to prune this iteration


def sap_count(group: Group, hp: SapHyperParams) -> SapDecision:
    """Adaptive prune count for one group from its sparsity index.

    Raises UndefinedIndexError when every surviving magnitude is zero; the
    run loop skips such a group for the iteration.
    """
    if group.survivors < 1:
        raise ValueError("group has no survivors")
    index = pq_index(group.magnitudes, hp.norms)
    bound = pqi_lower_bound(group.survivors, index, hp.eta, hp.norms)
    return SapDecision(
        index=index,
        bound=bound,
        count=sap_prune_count(group.survivors, bound, hp.gamma, hp.beta),
    )


def _surviving_index(mags: np.ndarray, mask: PruningMask, norms: NormPair):
    """(pq_index, gini) of the surviving entries of the flat weight
    magnitudes `mags`; NaN if undefined."""
    surv = mags[mask.flat]
    try:
        return pq_index(surv, norms), gini_index(surv)
    except (UndefinedIndexError, ValueError):
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
            "layers": [
                {"in": s.in_size, "out": s.out_size, "activation": s.activation}
                for s in layer_specs
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

        drops = []
        group_logs = []
        c_total = 0
        for group in partition(model, mask, scope, mags):
            if group.survivors == 0:
                continue  # exhausted in an earlier iteration
            entry = {"label": group.label, "d": group.survivors}
            if alg.kind == "sap":
                try:
                    decision = sap_count(group, alg.sap)
                except UndefinedIndexError:
                    record.events.append(
                        f"iteration {t}: group {group.label} all-zero survivors; skipped"
                    )
                    continue
                count = decision.count
                entry.update(pqi=decision.index, r=decision.bound)
            else:
                count = int(math.floor(group.survivors * alg.ratio))
            entry["c"] = count
            group_logs.append(entry)
            c_total += count
            drops.append(magnitude_prune(group, count))
        next_mask = mask.without(drops)

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
                c_total=c_total,
                groups=group_logs,
            )
        )
        mask = next_mask
    return record


def replay_count(entry: dict, hp: SapHyperParams) -> int:
    """Recompute a logged group's prune count from its logged (d, pqi)."""
    bound = pqi_lower_bound(entry["d"], entry["pqi"], hp.eta, hp.norms)
    return sap_prune_count(entry["d"], bound, hp.gamma, hp.beta)
