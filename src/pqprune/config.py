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

`workers` defaults to the CPUs this process may use (all of them where the
platform cannot tell); `workers = 1` runs every cell in this process.
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
    workers: int = field(default_factory=lambda: len(os.sched_getaffinity(0))
                         if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)

    def check(self) -> None:
        """Raise ValueError, as `<key>: <reason>`, if the grid breaks a rule
        that no single setting checks: an unknown model, an empty or repeated
        `algorithm.kinds` or `seeds` (a repeat would give two cells one
        `Cell.name`), a negative seed, or workers below 1. `parse_config` and
        `run_experiment` both call it, so a grid built in code meets the
        same rules before anything is written."""
        if self.model not in MODELS:
            raise ValueError(f"model: model must be {' or '.join(MODELS)}, got {self.model!r}")
        for key, items in (("algorithm.kinds", [alg.kind for alg in self.algorithms]),
                           ("seeds", self.seeds)):
            if not items:
                raise ValueError(f"{key}: no entries")
            repeated = sorted({str(x) for x in items if items.count(x) > 1})
            if repeated:
                raise ValueError(f"{key}: duplicate entries {', '.join(repeated)}")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds: negative entry {min(self.seeds)}")
        if self.workers < 1:
            raise ValueError("workers: workers must be >= 1")


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
    absent; `ExperimentConfig.check` judges the list."""
    return _pop(kv, key, lambda text: [parse(x) for x in text.split(",") if x.strip()], default)


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
    cfg.scope = _pop(kv, "scope", Scope, cfg.scope)

    ds_kind = kv.pop("dataset.kind", "synthetic")
    if ds_kind == "synthetic":
        cfg.dataset = _replace_fields(kv, "dataset", cfg.dataset)
    elif ds_kind == "idx":
        keys = [f"dataset.{f.name}" for f in dataclasses.fields(IdxPaths)]
        missing = [key for key in keys if key not in kv]
        if missing:
            raise ValueError(f"{missing[0]}: required when dataset.kind = idx")
        cfg.dataset = IdxPaths(*(kv.pop(key) for key in keys))
    else:
        raise ValueError(f"dataset.kind: unknown dataset kind {ds_kind!r}")

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
    cfg.workers = _pop(kv, "workers", int, cfg.workers)
    if kv:
        raise ValueError(f"unknown config keys: {sorted(kv)}")
    try:
        cfg.algorithms = [
            dataclasses.replace(template, kind=kind, sap=sap if kind == "sap" else None)
            for kind in kinds
        ]
    except ValueError as exc:
        raise ValueError(f"algorithm.kinds: {exc}") from None
    cfg.check()
    return cfg
