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

import dataclasses
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .data_io import SyntheticSpec
from .nn import TrainConfig
from .pruning import AlgorithmSpec, SapHyperParams, Scope


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


_PARSERS = {int: int, float: float, bool: _parse_bool}


def _replace_fields(kv: dict[str, str], prefix: str, obj, skip=(), **changes):
    """`obj` with each `<prefix>.<field>` key of `kv` popped and applied to its
    int, float or bool field, parsed by the field's declared type. Fields in
    `skip` or of any other type take no key; `changes` are applied as given."""
    types = typing.get_type_hints(type(obj))
    for f in dataclasses.fields(obj):
        key = f"{prefix}.{f.name}"
        parse = _PARSERS.get(types[f.name])
        if parse is not None and f.name not in skip and key in kv:
            changes[f.name] = parse(kv.pop(key))
    return dataclasses.replace(obj, **changes)


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

    cfg = ExperimentConfig()
    cfg.model = kv.pop("model", cfg.model)
    if cfg.model not in ("Linear", "MLP"):
        raise ValueError(f"model must be Linear or MLP, got {cfg.model!r}")
    cfg.scope = Scope(kv.pop("scope", cfg.scope.value))

    ds_kind = kv.pop("dataset.kind", "synthetic")
    if ds_kind == "synthetic":
        cfg.dataset = _replace_fields(kv, "dataset", cfg.dataset)
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

    kinds = kv.pop("algorithm.kinds", None)
    if kinds is not None:
        cfg.algorithm_kinds = _unique(
            "algorithm.kinds", [k.strip() for k in kinds.split(",") if k.strip()]
        )
    cfg.iterations = int(kv.pop("algorithm.iterations", cfg.iterations))
    cfg.ratio = float(kv.pop("algorithm.ratio", cfg.ratio))
    # sap.p and sap.q set the norm pair; a config cannot relax its regime.
    norms = _replace_fields(kv, "sap", cfg.sap.norms, skip={"relaxed"})
    cfg.sap = _replace_fields(kv, "sap", cfg.sap, norms=norms)
    # Each cell's seed comes from `seeds`, not from the train section.
    cfg.train = _replace_fields(kv, "train", cfg.train, skip={"seed"})
    seeds = kv.pop("seeds", None)
    if seeds is not None:
        cfg.seeds = _unique("seeds", [int(s) for s in seeds.split(",") if s.strip()])
    cfg.output_dir = kv.pop("output_dir", cfg.output_dir)
    cfg.workers = int(kv.pop("workers", cfg.workers))
    if cfg.workers < 1:
        raise ValueError("workers must be >= 1")
    if kv:
        raise ValueError(f"unknown config keys: {sorted(kv)}")
    cfg.algorithms()  # rejects bad algorithm settings before any output is made
    return cfg


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())
