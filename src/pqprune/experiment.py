"""Batch orchestration: (seed x algorithm) cells, summaries, and reports."""

from __future__ import annotations

import dataclasses
import json
import logging
from concurrent.futures import ProcessPoolExecutor
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
)
from .pruning import AlgorithmSpec, run_pruning
from .records import RunRecord, format_value

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


def load_datasets(cfg: ExperimentConfig) -> tuple[nn.Dataset, nn.Dataset]:
    if isinstance(cfg.dataset, SyntheticSpec):
        return gen_synthetic(cfg.dataset)
    paths: IdxPaths = cfg.dataset
    return (
        load_idx(paths.train_images, paths.train_labels),
        load_idx(paths.test_images, paths.test_labels),
    )


def model_spec(cfg: ExperimentConfig, n_features: int, n_classes: int):
    if cfg.model == "Linear":
        return nn.linear_spec(n_features, n_classes)
    return nn.mlp_spec(n_features, n_classes)


def run_cell(cfg: ExperimentConfig, alg: AlgorithmSpec, seed: int) -> RunRecord:
    """Execute one (algorithm, seed) cell end to end."""
    train_data, test_data = load_datasets(cfg)
    n_classes = int(max(train_data.labels.max(), test_data.labels.max())) + 1
    specs = model_spec(cfg, train_data.inputs.shape[1], n_classes)
    train_cfg = dataclasses.replace(cfg.train, seed=seed)
    return run_pruning(alg, cfg.scope, specs, train_cfg, train_data, test_data)


def _cell_worker(args):
    cfg, alg, seed, out_dir = args
    record = run_cell(cfg, alg, seed)
    write_run_record(record, Path(out_dir) / cell_name(alg.kind, seed))
    return cell_name(alg.kind, seed), record


def run_experiment(cfg: ExperimentConfig, out_dir=None, workers=None) -> dict[str, RunRecord]:
    """Run every (seed x algorithm) cell, persist records, write summary.csv.

    A cell that raises is marked failed and does not abort the others.
    """
    out_dir = Path(out_dir if out_dir is not None else cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    workers = workers if workers is not None else cfg.workers
    jobs = [
        (cfg, alg, seed, out_dir)
        for alg in cfg.algorithms()
        for seed in cfg.seeds
    ]
    results: dict[str, RunRecord] = {}
    failed: list[str] = []
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for (cfg_, alg, seed, _), outcome in zip(
                jobs, pool.map(_try_cell, jobs)
            ):
                name = cell_name(alg.kind, seed)
                if outcome is None:
                    failed.append(name)
                else:
                    results[name] = outcome[1]
    else:
        for job in jobs:
            outcome = _try_cell(job)
            name = cell_name(job[1].kind, job[2])
            if outcome is None:
                failed.append(name)
            else:
                results[name] = outcome[1]
    if failed:
        log.warning("failed cells: %s", ", ".join(failed))
        (out_dir / "failed_cells.txt").write_text("\n".join(failed) + "\n")
    (out_dir / "summary.csv").write_text(summarize_records(results))
    return results


def _try_cell(args):
    try:
        return _cell_worker(args)
    except Exception:
        log.exception("cell %s failed", cell_name(args[1].kind, args[2]))
        return None


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
    header = ["algorithm", "t", "n_seeds"]
    for f in SUMMARY_FIELDS:
        header += [f"{f}_mean", f"{f}_std"]
    lines = [",".join(header)]
    for alg in sorted(by_alg):
        runs = by_alg[alg]
        max_t = max(len(r.iterations) for r in runs)
        for t in range(max_t):
            rows = [r.iterations[t] for r in runs if t < len(r.iterations)]
            out = [alg, str(t), str(len(rows))]
            for f in SUMMARY_FIELDS:
                vals = np.array([getattr(it, f) for it in rows], dtype=float)
                std = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
                out += [format_value(float(vals.mean())), format_value(std)]
            lines.append(",".join(out))
    return "\n".join(lines) + "\n"


def _config_key(rec: RunRecord) -> dict:
    key = dict(rec.config)
    key.pop("seed", None)
    return key


def trajectory_stats(records: list[RunRecord]) -> dict:
    """Location of the mean retrained-index extremes and its rank agreement
    with the Gini trajectory."""
    # Imported here: scipy.stats takes most of a second to import, and only
    # `report` needs it.
    from scipy.stats import spearmanr

    pqi = _mean_trajectory(records, "pqi_retrained")
    gini = _mean_trajectory(records, "gini_retrained")
    rho = spearmanr(pqi, gini).statistic
    return {
        "pqi_argmin": int(np.nanargmin(pqi)),
        "pqi_argmax": int(np.nanargmax(pqi)),
        "spearman_pqi_gini": float(rho),
    }


def _mean_trajectory(records: list[RunRecord], field: str) -> np.ndarray:
    max_t = max(len(r.iterations) for r in records)
    out = []
    for t in range(max_t):
        vals = [
            getattr(r.iterations[t], field)
            for r in records
            if t < len(r.iterations)
        ]
        out.append(float(np.mean(vals)))
    return np.array(out)


def write_report(run_dirs, out_dir) -> dict:
    """Emit the four per-iteration panel CSVs and trajectory_stats.json.

    All run dirs must share the same configuration apart from the seed.
    """
    records = [read_run_record(d) for d in run_dirs]
    if not records:
        raise ValueError("no run directories given")
    keys = [_config_key(r) for r in records]
    if any(k != keys[0] for k in keys[1:]):
        raise ValueError("run directories have mixed configurations")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    panels = {
        "panel_performance.csv": ("acc_retrained", "acc_pruned"),
        "panel_remaining.csv": ("percent_remaining",),
        "panel_pqi.csv": ("pqi_retrained", "pqi_pruned"),
        "panel_gini.csv": ("gini_retrained",),
    }
    max_t = max(len(r.iterations) for r in records)
    for filename, fields in panels.items():
        header = ["t"]
        for f in fields:
            header += [f"{f}_mean", f"{f}_std"]
        lines = [",".join(header)]
        for t in range(max_t):
            rows = [r.iterations[t] for r in records if t < len(r.iterations)]
            out = [str(t)]
            for f in fields:
                vals = np.array([getattr(it, f) for it in rows], dtype=float)
                std = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
                out += [format_value(float(vals.mean())), format_value(std)]
            lines.append(",".join(out))
        (out_dir / filename).write_text("\n".join(lines) + "\n")

    stats = trajectory_stats(records)
    (out_dir / "trajectory_stats.json").write_text(json.dumps(stats, indent=2) + "\n")
    return stats
