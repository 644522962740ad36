"""Batch orchestration: (seed x algorithm) cells, summaries, and reports."""

from __future__ import annotations

import dataclasses
import json
import logging
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
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


# The (train, test) pair of the grid that `run_experiment` is running, keyed
# on its dataset spec. It is filled before any cell starts, so pooled workers
# inherit it through fork, and emptied when the grid ends.
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


def run_experiment(cfg: ExperimentConfig, out_dir=None, workers=None) -> dict[str, RunRecord]:
    """Run every (seed x algorithm) cell, persist records, write summary.csv.

    A cell that raises is marked failed and does not abort the others; the
    failed cells are listed in failed_cells.txt, which a run without
    failures removes. With workers > 1, a worker that dies (killed, or
    exiting without returning) breaks its pool: its own cell and every cell
    still pending in that pool fail, and summary.csv covers the cells that
    completed.

    The datasets are read once, before the output directory is created, so
    a bad dataset raises (IdxFormatError for a malformed IDX file) with
    nothing written.
    """
    out_dir = Path(out_dir if out_dir is not None else cfg.output_dir)
    workers = workers if workers is not None else cfg.workers
    jobs = [
        (cfg, alg, seed, out_dir)
        for alg in cfg.algorithms()
        for seed in cfg.seeds
    ]
    names = [cell_name(alg.kind, seed) for _, alg, seed, _ in jobs]
    results: dict[str, RunRecord] = {}
    failed: list[str] = []
    _loaded[cfg.dataset] = load_datasets(cfg)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
            if pool:
                futures = [pool.submit(_try_cell, job) for job in jobs]
                outcomes = map(_cell_result, names, futures)
            else:
                outcomes = map(_try_cell, jobs)
            for name, record in zip(names, outcomes):
                if record is None:
                    failed.append(name)
                else:
                    results[name] = record
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


def _try_cell(job) -> RunRecord | None:
    """Run and persist one cell; None, with the traceback logged, if it raises."""
    cfg, alg, seed, out_dir = job
    name = cell_name(alg.kind, seed)
    try:
        record = run_cell(cfg, alg, seed)
        write_run_record(record, Path(out_dir) / name)
    except Exception:
        log.exception("cell %s failed", name)
        return None
    return record


def _cell_result(name: str, future) -> RunRecord | None:
    """The pooled cell's record; None, with the traceback logged, if reading
    the result raises, as BrokenProcessPool does after a worker died."""
    try:
        return future.result()
    except Exception:
        log.exception("cell %s failed", name)
        return None


def per_iteration(
    runs: list[RunRecord], fields
) -> Iterator[tuple[int, list[tuple[float, float]]]]:
    """For each iteration t, the number of runs that reached t and the
    (mean, sample std) of each field over them; the std is 0 for one run."""
    for t in range(max(len(r.iterations) for r in runs)):
        rows = [r.iterations[t] for r in runs if t < len(r.iterations)]
        stats = []
        for f in fields:
            vals = np.array([getattr(it, f) for it in rows], dtype=float)
            std = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
            stats.append((float(vals.mean()), std))
        yield len(rows), stats


def _stat_columns(fields) -> list[str]:
    return [f"{f}_{stat}" for f in fields for stat in ("mean", "std")]


def _csv_cells(stats) -> list[str]:
    return [format_value(x) for pair in stats for x in pair]


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
    lines = [",".join(["algorithm", "t", "n_seeds", *_stat_columns(SUMMARY_FIELDS)])]
    for alg in sorted(by_alg):
        for t, (n, stats) in enumerate(per_iteration(by_alg[alg], SUMMARY_FIELDS)):
            lines.append(",".join([alg, str(t), str(n), *_csv_cells(stats)]))
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

    pqi, gini = np.array([
        [mean for mean, _ in stats]
        for _, stats in per_iteration(records, ("pqi_retrained", "gini_retrained"))
    ]).T
    rho = spearmanr(pqi, gini).statistic
    return {
        "pqi_argmin": int(np.nanargmin(pqi)),
        "pqi_argmax": int(np.nanargmax(pqi)),
        "spearman_pqi_gini": float(rho),
    }


def write_report(run_dirs, out_dir) -> dict:
    """Emit the four per-iteration panel CSVs and trajectory_stats.json, each
    replaced whole (`write_text_atomic`).

    All run dirs must share the same configuration apart from the seed.
    As in summary.csv, only complete runs are aggregated; each incomplete
    one is named in a warning.
    """
    records = [read_run_record(d) for d in run_dirs]
    if not records:
        raise ValueError("no run directories given")
    keys = [_config_key(r) for r in records]
    if any(k != keys[0] for k in keys[1:]):
        raise ValueError("run directories have mixed configurations")
    for d, rec in zip(run_dirs, records):
        if not rec.completed:
            log.warning("left out incomplete run %s", d)
    records = [r for r in records if r.completed]
    if not records:
        raise ValueError("no complete runs")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    panels = {
        "panel_performance.csv": ("acc_retrained", "acc_pruned"),
        "panel_remaining.csv": ("percent_remaining",),
        "panel_pqi.csv": ("pqi_retrained", "pqi_pruned"),
        "panel_gini.csv": ("gini_retrained",),
    }
    for filename, fields in panels.items():
        lines = [",".join(["t", *_stat_columns(fields)])]
        for t, (_, stats) in enumerate(per_iteration(records, fields)):
            lines.append(",".join([str(t), *_csv_cells(stats)]))
        write_text_atomic(out_dir / filename, "\n".join(lines) + "\n")

    stats = trajectory_stats(records)
    write_text_atomic(out_dir / "trajectory_stats.json", json.dumps(stats, indent=2) + "\n")
    return stats
