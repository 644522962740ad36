"""Batch orchestration: (seed x algorithm) cells, summaries, and reports."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import logging
import math
from collections.abc import Iterator
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import nn
from .config import ExperimentConfig, IdxPaths
from .data_io import (
    SyntheticSpec,
    gen_synthetic,
    load_idx,
    read_run_record,
    write_run_record,
    write_text_atomic,
)
from .pruning import AlgorithmSpec, run_pruning
from .records import RunRecord, csv_text

log = logging.getLogger(__name__)

SUMMARY_FIELDS = (
    "percent_remaining",
    "acc_retrained",
    "acc_pruned",
    "pqi_retrained",
    "gini_retrained",
)


def cell_name(kind: str, seed: int) -> str:
    return f"{kind}_seed{seed}"


# The (train, test) pair of the grid that `run_experiment` is running, keyed
# on its dataset spec. It is filled before any cell starts, so pooled workers,
# started by fork, inherit it, and emptied when the grid ends.
_loaded: dict[SyntheticSpec | IdxPaths, tuple[nn.Dataset, nn.Dataset]] = {}


def load_datasets(cfg: ExperimentConfig) -> tuple[nn.Dataset, nn.Dataset]:
    if cfg.dataset in _loaded:
        return _loaded[cfg.dataset]
    if isinstance(cfg.dataset, SyntheticSpec):
        return gen_synthetic(cfg.dataset)
    paths: IdxPaths = cfg.dataset
    return (
        load_idx(paths.train_images, paths.train_labels),
        load_idx(paths.test_images, paths.test_labels),
    )


def run_cell(cfg: ExperimentConfig, alg: AlgorithmSpec, seed: int) -> RunRecord:
    """Execute one (algorithm, seed) cell end to end."""
    train_data, test_data = load_datasets(cfg)
    n_classes = int(max(train_data.labels.max(), test_data.labels.max())) + 1
    specs = nn.model_specs(cfg.model, train_data.inputs.shape[1], n_classes)
    train_cfg = dataclasses.replace(cfg.train, seed=seed)
    return run_pruning(alg, cfg.scope, specs, train_cfg, train_data, test_data)


def run_experiment(cfg: ExperimentConfig, out_dir, workers=None) -> dict[str, RunRecord]:
    """Run every (seed x algorithm) cell, persist records, write summary.csv.

    `workers` None or 0 means the config's; above 1, the cells run in a
    pool of at most one worker per cell. A cell that raises, or whose worker
    died, is marked failed with its traceback logged and does not abort the
    others; failed cells are listed in failed_cells.txt, which a run without
    failures removes. A worker that dies (killed, or exiting without
    returning) breaks its pool: its own cell and every cell still pending in
    that pool fail, and summary.csv covers the cells that completed.

    The datasets are read once, before the output directory is created, so
    a bad dataset raises (IdxFormatError for a malformed IDX file) with
    nothing written.
    """
    out_dir = Path(out_dir)
    workers = workers or cfg.workers
    cells = [(alg, seed) for alg in cfg.algorithms for seed in cfg.seeds]
    results: dict[str, RunRecord] = {}
    failed: list[str] = []
    _loaded[cfg.dataset] = load_datasets(cfg)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        pool = None
        if workers > 1:  # imported here, so a run without a pool does not pay for it
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            fork = multiprocessing.get_context("fork")
            pool = ProcessPoolExecutor(min(workers, len(cells)), fork)
        with pool or nullcontext():
            calls = [  # each returns the cell's record or raises
                pool.submit(_persist_cell, cfg, alg, seed, out_dir).result if pool
                else functools.partial(_persist_cell, cfg, alg, seed, out_dir)
                for alg, seed in cells
            ]
            for (alg, seed), call in zip(cells, calls):
                name = cell_name(alg.kind, seed)
                try:
                    results[name] = call()
                except Exception:
                    log.exception("cell %s failed", name)
                    failed.append(name)
    finally:
        _loaded.clear()
    failed_path = out_dir / "failed_cells.txt"
    if failed:
        log.warning("failed cells: %s", ", ".join(failed))
        write_text_atomic(failed_path, "\n".join(failed) + "\n")
    else:
        failed_path.unlink(missing_ok=True)
    write_text_atomic(out_dir / "summary.csv", summarize_records(results))
    return results


def _persist_cell(cfg: ExperimentConfig, alg: AlgorithmSpec, seed: int, out_dir) -> RunRecord:
    """Run one cell and write its record under `out_dir`."""
    record = run_cell(cfg, alg, seed)
    write_run_record(record, out_dir / cell_name(alg.kind, seed))
    return record


def per_iteration(runs: list[RunRecord], fields) -> Iterator[tuple[int, list[float]]]:
    """For each iteration t, the number of runs that reached t and, field
    by field, the mean and sample std over them as one flat list; the std
    is 0 for one run."""
    for t in range(max(len(r.iterations) for r in runs)):
        rows = [r.iterations[t] for r in runs if t < len(r.iterations)]
        stats = []
        for f in fields:
            vals = np.array([getattr(it, f) for it in rows], dtype=float)
            std = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
            stats += [float(vals.mean()), std]
        yield len(rows), stats


def _stat_columns(fields) -> list[str]:
    return [f"{f}_{stat}" for f in fields for stat in ("mean", "std")]


def summarize_records(records: dict[str, RunRecord]) -> str:
    """Per-iteration mean and sample std across seeds, grouped by algorithm.

    Deterministic for a given set of records; used both after a run and to
    replay a summary from persisted records.
    """
    by_alg: dict[str, list[RunRecord]] = {}
    for name in sorted(records):
        rec = records[name]
        if rec.completed:
            by_alg.setdefault(rec.config["algorithm"], []).append(rec)
    rows = [
        [alg, t, n, *stats]
        for alg in sorted(by_alg)
        for t, (n, stats) in enumerate(per_iteration(by_alg[alg], SUMMARY_FIELDS))
    ]
    return csv_text(["algorithm", "t", "n_seeds", *_stat_columns(SUMMARY_FIELDS)], rows)


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks of `v`; tied values share their mean rank."""
    s = np.sort(v)
    return (np.searchsorted(s, v) + np.searchsorted(s, v, "right") + 1) / 2


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman's rho: Pearson's r of the average ranks. NaN when either
    series holds a NaN (a sort would give it a finite rank) or is constant,
    a single point included."""
    if x.size < 2 or np.isnan(x).any() or np.isnan(y).any():
        return math.nan
    ranks = np.column_stack([_average_ranks(x), _average_ranks(y)])
    with np.errstate(invalid="ignore", divide="ignore"):
        return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def trajectory_stats(records: list[RunRecord]) -> dict:
    """Location of the mean retrained-index extremes and its rank agreement
    with the Gini trajectory."""
    pqi, gini = np.array([
        stats[::2] for _, stats in per_iteration(records, ("pqi_retrained", "gini_retrained"))
    ]).T
    if np.isnan(pqi).all():
        raise ValueError("pqi_retrained is NaN at every iteration")
    return {
        "pqi_argmin": int(np.nanargmin(pqi)),
        "pqi_argmax": int(np.nanargmax(pqi)),
        "spearman_pqi_gini": _spearman(pqi, gini),
    }


def write_report(run_dirs, out_dir) -> dict:
    """Emit the four per-iteration panel CSVs and trajectory_stats.json, each
    replaced whole (`write_text_atomic`).

    All run dirs must share the same configuration apart from the seed, and
    no two may share the seed. As in summary.csv, only complete runs are
    aggregated; each incomplete one is named in a warning.
    """
    records = [read_run_record(d) for d in run_dirs]
    if not records:
        raise ValueError("no run directories given")
    keys = [{k: v for k, v in r.config.items() if k != "seed"} for r in records]
    if any(k != keys[0] for k in keys[1:]):
        raise ValueError("run directories have mixed configurations")
    for (a, rec), (b, other) in itertools.combinations(zip(run_dirs, records), 2):
        if rec.config == other.config:  # the same seed, so the same run
            raise ValueError(f"runs {a} and {b} repeat seed {rec.config.get('seed')}")
    for d, rec in zip(run_dirs, records):
        if not rec.completed:
            log.warning("left out incomplete run %s", d)
    records = [r for r in records if r.completed]
    if not records:
        raise ValueError("no complete runs")
    stats = trajectory_stats(records)  # before any write, so a failure writes nothing
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    panels = {
        "panel_performance.csv": ("acc_retrained", "acc_pruned"),
        "panel_remaining.csv": ("percent_remaining",),
        "panel_pqi.csv": ("pqi_retrained", "pqi_pruned"),
        "panel_gini.csv": ("gini_retrained",),
    }
    for filename, fields in panels.items():
        rows = [[t, *cells] for t, (_, cells) in enumerate(per_iteration(records, fields))]
        write_text_atomic(out_dir / filename, csv_text(["t", *_stat_columns(fields)], rows))
    write_text_atomic(out_dir / "trajectory_stats.json", json.dumps(stats, indent=2) + "\n")
    return stats
