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
import math
import typing
from dataclasses import dataclass, field

from .data_io import SyntheticSpec
from .nn import MODELS, TrainConfig
from .pruning import AlgorithmSpec, Scope


@dataclass(frozen=True)
class IdxPaths:
    train_images: str
    train_labels: str
    test_images: str
    test_labels: str


@dataclass
class ExperimentConfig:
    """One experiment grid: (seed x algorithm) cells over a shared setup."""

    model: str = "MLP"  # a key of nn.MODELS
    scope: Scope = Scope.GLOBAL
    dataset: SyntheticSpec | IdxPaths = field(default_factory=SyntheticSpec)
    algorithms: list[AlgorithmSpec] = field(
        default_factory=lambda: [AlgorithmSpec("sap", iterations=10)]
    )
    # Desk-scale defaults: few epochs, small batches, and a strong weight
    # decay so magnitudes differentiate within E=5. TrainConfig's own
    # defaults keep the full-scale values.
    train: TrainConfig = field(
        default_factory=lambda: TrainConfig(epochs=5, batch_size=50, weight_decay=0.05)
    )
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2, 3])
    output_dir: str = "runs"
    workers: int = 1


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "1", "yes", "on"):
        return True
    if s.lower() in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_float(s: str) -> float:
    x = float(s)
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: {s!r}")
    return x


_PARSERS = {int: int, float: _parse_float, bool: _parse_bool}


def _pop(kv: dict[str, str], key: str, parse, default):
    """`kv[key]` popped and parsed, or `default` if absent; a parse error names the key."""
    try:
        return parse(kv.pop(key)) if key in kv else default
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from exc


def _replace_fields(kv: dict[str, str], prefix: str, obj, skip=(), **changes):
    """`obj` with each `<prefix>.<field>` key of `kv` popped and applied to its
    int, float or bool field, parsed by the field's declared type. Fields in
    `skip` or of any other type take no key; `changes` are applied as given."""
    types = typing.get_type_hints(type(obj))
    for f in dataclasses.fields(obj):
        parse = _PARSERS.get(types[f.name])
        if parse is not None and f.name not in skip:
            changes[f.name] = _pop(kv, f"{prefix}.{f.name}", parse, getattr(obj, f.name))
    return dataclasses.replace(obj, **changes)


def _entries(kv: dict[str, str], key: str, parse, default: list) -> list:
    """The comma-separated entries of `kv[key]`, each parsed, or `default` if
    absent. An empty list would run no cell, and a repeated entry would give
    two cells one directory; both are rejected."""
    items = _pop(kv, key, lambda text: [parse(x) for x in text.split(",") if x.strip()], default)
    if not items:
        raise ValueError(f"{key}: no entries")
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
    if cfg.model not in MODELS:
        raise ValueError(f"model must be {' or '.join(MODELS)}, got {cfg.model!r}")
    cfg.scope = _pop(kv, "scope", Scope, cfg.scope)

    ds_kind = kv.pop("dataset.kind", "synthetic")
    if ds_kind == "synthetic":
        cfg.dataset = _replace_fields(kv, "dataset", cfg.dataset)
    elif ds_kind == "idx":
        keys = [f"dataset.{f.name}" for f in dataclasses.fields(IdxPaths)]
        missing = [key for key in keys if key not in kv]
        if missing:
            raise ValueError(f"idx dataset requires key {missing[0]}")
        cfg.dataset = IdxPaths(*(kv.pop(key) for key in keys))
    else:
        raise ValueError(f"unknown dataset.kind {ds_kind!r}")

    kinds = _entries(kv, "algorithm.kinds", str.strip, [alg.kind for alg in cfg.algorithms])
    # Every algorithm shares the iteration count and ratio; SAP alone takes
    # the sap keys. sap.p and sap.q set the norm pair; a config cannot relax
    # its regime.
    template = _replace_fields(kv, "algorithm", cfg.algorithms[0])
    norms = _replace_fields(kv, "sap", template.sap.norms, skip={"relaxed"})
    sap = _replace_fields(kv, "sap", template.sap, norms=norms)
    # Each cell's seed comes from `seeds`, not from the train section.
    cfg.train = _replace_fields(kv, "train", cfg.train, skip={"seed"})
    cfg.seeds = _entries(kv, "seeds", int, cfg.seeds)
    if min(cfg.seeds) < 0:
        raise ValueError(f"seeds: negative entry {min(cfg.seeds)}")
    cfg.output_dir = kv.pop("output_dir", cfg.output_dir)
    cfg.workers = _pop(kv, "workers", int, cfg.workers)
    if cfg.workers < 1:
        raise ValueError("workers must be >= 1")
    if kv:
        raise ValueError(f"unknown config keys: {sorted(kv)}")
    cfg.algorithms = [
        dataclasses.replace(template, kind=kind, sap=sap if kind == "sap" else None)
        for kind in kinds
    ]
    return cfg
