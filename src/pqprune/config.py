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
    workers = 2

`workers` defaults to the number of CPUs this process may use; `workers = 1`
runs every cell in this process.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field

from .data_io import SyntheticSpec
from .nn import MODELS, TrainConfig
from .pruning import AlgorithmSpec, Scope
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

    model: str = "MLP"  # a key of nn.MODELS
    scope: Scope = Scope.GLOBAL
    dataset: SyntheticSpec | IdxPaths = field(default_factory=SyntheticSpec)
    algorithms: list[AlgorithmSpec] = field(default_factory=lambda: [AlgorithmSpec("sap")])
    train: TrainConfig = TrainConfig()
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2, 3])
    workers: int = field(default_factory=lambda: len(os.sched_getaffinity(0)))


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


# Keyed by a field's declared type, a string in modules that defer annotations.
_PARSERS = {"int": int, "float": _parse_float, "bool": _parse_bool}


def _pop(kv: dict[str, str], key: str, parse, default):
    """`kv[key]` popped and parsed, or `default` if absent; a parse error names the key."""
    try:
        return parse(kv.pop(key)) if key in kv else default
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from exc


def _replace_fields(kv: dict[str, str], prefix: str, obj):
    """`obj` with each `<prefix>.<field>` key of `kv` popped and applied, in
    field order, to its int, float or bool field, parsed by the field's
    declared type. The settings class's own check runs inside `_pop`, so its
    error names the key; a cross-field check names the key applied last.
    Fields of any other type take no key."""
    for f in dataclasses.fields(obj):
        parse = _PARSERS.get(f.type)
        if parse is not None:
            obj = _pop(kv, f"{prefix}.{f.name}",
                       lambda text: dataclasses.replace(obj, **{f.name: parse(text)}), obj)
    return obj


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
    p, q = (_pop(kv, f"sap.{name}", _parse_float, getattr(template.sap.norms, name))
            for name in ("p", "q"))
    try:
        norms = NormPair(p, q)
    except ValueError as exc:
        raise ValueError(f"sap.p, sap.q: {exc}") from None
    sap = _replace_fields(kv, "sap", dataclasses.replace(template.sap, norms=norms))
    cfg.train = _replace_fields(kv, "train", cfg.train)
    cfg.seeds = _entries(kv, "seeds", int, cfg.seeds)
    if min(cfg.seeds) < 0:
        raise ValueError(f"seeds: negative entry {min(cfg.seeds)}")
    cfg.workers = _pop(kv, "workers", int, cfg.workers)
    if cfg.workers < 1:
        raise ValueError("workers must be >= 1")
    if kv:
        raise ValueError(f"unknown config keys: {sorted(kv)}")
    try:
        cfg.algorithms = [
            dataclasses.replace(template, kind=kind, sap=sap if kind == "sap" else None)
            for kind in kinds
        ]
    except ValueError as exc:
        raise ValueError(f"algorithm.kinds: {exc}") from None
    return cfg
