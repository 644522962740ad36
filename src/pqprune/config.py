"""Flat key-value experiment configuration (dotted sections).

Example:

    model = MLP
    scope = global
    dataset.kind = synthetic
    dataset.n_samples = 1000
    algorithm.kinds = sap,lottery_ticket
    algorithm.iterations = 10
    sap.p = 0.5
    seeds = 0,1,2,3
    output_dir = runs
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .data_io import SyntheticSpec
from .nn import TrainConfig
from .pruning import AlgorithmSpec, SapHyperParams, Scope
from .sparsity import NormPair


@dataclass(frozen=True)
class IdxPaths:
    train_images: str
    train_labels: str
    test_images: str
    test_labels: str


@dataclass
class ExperimentConfig:
    """One experiment grid: (seed x algorithm) cells over a shared setup."""

    model: str = "MLP"  # "Linear" or "MLP"
    scope: Scope = Scope.GLOBAL
    dataset: SyntheticSpec | IdxPaths = field(default_factory=SyntheticSpec)
    algorithm_kinds: list[str] = field(default_factory=lambda: ["sap"])
    iterations: int = 10
    ratio: float = 0.2
    sap: SapHyperParams = field(default_factory=SapHyperParams)
    # Desk-scale defaults: few epochs, small batches, and a strong weight
    # decay so magnitudes differentiate within E=5. TrainConfig's own
    # defaults keep the full-scale values.
    train: TrainConfig = field(
        default_factory=lambda: TrainConfig(epochs=5, batch_size=50, weight_decay=0.05)
    )
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2, 3])
    output_dir: str = "runs"
    workers: int = 1

    def algorithms(self) -> list[AlgorithmSpec]:
        return [
            AlgorithmSpec(
                kind=kind,
                iterations=self.iterations,
                ratio=self.ratio,
                sap=self.sap if kind == "sap" else None,
            )
            for kind in self.algorithm_kinds
        ]


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "1", "yes", "on"):
        return True
    if s.lower() in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _unique(key: str, items: list) -> list:
    """`items`, if no entry repeats: two cells of one name would share a directory."""
    repeated = sorted({str(x) for x in items if items.count(x) > 1})
    if repeated:
        raise ValueError(f"{key}: duplicate entries {', '.join(repeated)}")
    return items


def parse_config(text: str) -> ExperimentConfig:
    kv: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in kv:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        kv[key] = value

    def take(key, default=None):
        return kv.pop(key, default)

    cfg = ExperimentConfig()
    cfg.model = take("model", cfg.model)
    if cfg.model not in ("Linear", "MLP"):
        raise ValueError(f"model must be Linear or MLP, got {cfg.model!r}")
    cfg.scope = Scope(take("scope", cfg.scope.value))

    ds_kind = take("dataset.kind", "synthetic")
    if ds_kind == "synthetic":
        cfg.dataset = SyntheticSpec(
            n_samples=int(take("dataset.n_samples", 1000)),
            n_features=int(take("dataset.n_features", 20)),
            n_classes=int(take("dataset.n_classes", 2)),
            class_separation=float(take("dataset.class_separation", 5.0)),
            seed=int(take("dataset.seed", 0)),
        )
    elif ds_kind == "idx":
        try:
            cfg.dataset = IdxPaths(
                train_images=kv.pop("dataset.train_images"),
                train_labels=kv.pop("dataset.train_labels"),
                test_images=kv.pop("dataset.test_images"),
                test_labels=kv.pop("dataset.test_labels"),
            )
        except KeyError as exc:
            raise ValueError(f"idx dataset requires key dataset.{exc.args[0]}") from exc
    else:
        raise ValueError(f"unknown dataset.kind {ds_kind!r}")

    kinds = take("algorithm.kinds")
    if kinds is not None:
        cfg.algorithm_kinds = _unique(
            "algorithm.kinds", [k.strip() for k in kinds.split(",") if k.strip()]
        )
    cfg.iterations = int(take("algorithm.iterations", cfg.iterations))
    cfg.ratio = float(take("algorithm.ratio", cfg.ratio))
    cfg.sap = SapHyperParams(
        norms=NormPair(float(take("sap.p", 0.5)), float(take("sap.q", 1.0))),
        eta=float(take("sap.eta", 0.0)),
        gamma=float(take("sap.gamma", 1.0)),
        beta=float(take("sap.beta", 0.9)),
    )
    cfg.train = TrainConfig(
        epochs=int(take("train.epochs", 5)),
        batch_size=int(take("train.batch_size", 50)),
        learning_rate=float(take("train.learning_rate", 0.1)),
        momentum=float(take("train.momentum", 0.9)),
        weight_decay=float(take("train.weight_decay", 0.05)),
        nesterov=_parse_bool(take("train.nesterov", "true")),
    )
    seeds = take("seeds")
    if seeds is not None:
        cfg.seeds = _unique("seeds", [int(s) for s in seeds.split(",") if s.strip()])
    cfg.output_dir = take("output_dir", cfg.output_dir)
    cfg.workers = int(take("workers", cfg.workers))
    if kv:
        raise ValueError(f"unknown config keys: {sorted(kv)}")
    return cfg


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())
