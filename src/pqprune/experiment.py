"""Batch orchestration: (seed x algorithm) cells, summaries, and reports."""

from __future__ import annotations

import itertools
import json
import logging
import math
import traceback
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import nn
from .config import ExperimentConfig
from .data_io import (
    SyntheticSpec,
    gen_synthetic,
    load_idx,
    read_run_record,
    write_run_record,
    write_text_atomic,
)
from .pruning import AlgorithmSpec, SapHyperParams, Scope, run_pruning
from .records import RunRecord, csv_text
from .sparsity import NormPair

log = logging.getLogger(__name__)

SUMMARY_FIELDS = (
    "percent_remaining",
    "acc_retrained",
    "acc_pruned",
    "pqi_retrained",
    "gini_retrained",
)


def cell_name(kind: str, seed: int) -> str:  # a cell's directory; `Cell.name` and perfbench call it
    return f"{kind}_seed{seed}"


@dataclass(frozen=True)
class Cell:
    """One (algorithm, seed) cell of a grid, with the grid's settings it runs under."""

    alg: AlgorithmSpec
    seed: int
    scope: Scope
    model: str  # a key of nn.MODELS
    train: nn.TrainConfig

    @property
    def name(self) -> str:
        """The cell's directory under the grid's output root."""
        return cell_name(self.alg.kind, self.seed)

    def echo(self, specs: list[nn.LayerSpec]) -> dict:
        """The `config` of run.json for this cell over the dense layers
        `specs`, in file order; it needs no run of the cell."""
        hp = self.alg.sap
        return {
            "algorithm": self.alg.kind,
            "iterations": self.alg.iterations,
            "ratio": self.alg.ratio,
            "sap": None if hp is None else {"p": hp.norms.p, "q": hp.norms.q, "eta": hp.eta,
                                            "gamma": hp.gamma, "beta": hp.beta},
            "scope": self.scope.value,
            "index_p": self.alg.index_norms.p,
            "index_q": self.alg.index_norms.q,
            "seed": self.seed,
            "train": asdict(self.train),
            "layers": [  # a ReLU follows every layer but the last, which emits logits
                {"in": s.in_size, "out": s.out_size,
                 "activation": "relu" if l < len(specs) - 1 else "none"}
                for l, s in enumerate(specs)
            ],
        }

    @classmethod
    def from_echo(cls, echo: dict) -> Cell:
        """The cell whose `echo` is `echo`; the model is the one whose hidden
        widths the echoed layers have."""
        hidden = tuple(layer["out"] for layer in echo["layers"][:-1])
        model = {widths: name for name, widths in nn.MODELS.items()}.get(hidden)
        if model is None:
            raise ValueError(f"layers: hidden widths {list(hidden)} match no model")
        sap = echo["sap"]
        hp = None if sap is None else SapHyperParams(
            NormPair(sap["p"], sap["q"]), eta=sap["eta"], gamma=sap["gamma"], beta=sap["beta"])
        alg = AlgorithmSpec(echo["algorithm"], echo["iterations"], echo["ratio"], hp)
        return cls(alg, echo["seed"], Scope(echo["scope"]), model, nn.TrainConfig(**echo["train"]))


def cells(cfg: ExperimentConfig) -> list[Cell]:
    """The cells of `cfg` in run order: algorithm outer, seed inner."""
    return [Cell(alg, seed, cfg.scope, cfg.model, cfg.train)
            for alg in cfg.algorithms for seed in cfg.seeds]


Datasets = tuple[nn.Dataset, nn.Dataset]  # a grid's (train, test) pair


def load_datasets(cfg: ExperimentConfig) -> Datasets:
    if isinstance(cfg.dataset, SyntheticSpec):
        return gen_synthetic(cfg.dataset)
    paths = cfg.dataset
    return (
        load_idx(paths.train_images, paths.train_labels),
        load_idx(paths.test_images, paths.test_labels),
    )


def run_cell(cell: Cell, data: Datasets) -> RunRecord:
    """Execute one cell end to end on the datasets `data`: the record of
    `run_pruning`, with `cell.echo` as its config."""
    train_data, test_data = data
    n_classes = int(max(train_data.labels.max(), test_data.labels.max())) + 1
    specs = nn.model_specs(cell.model, train_data.inputs.shape[1], n_classes)
    record = run_pruning(cell.alg, cell.scope, specs, cell.train, cell.seed, train_data, test_data)
    record.config = cell.echo(specs)
    return record


def run_experiment(cfg: ExperimentConfig, out_dir) -> dict[str, RunRecord]:
    """Run every (seed x algorithm) cell, persist records, write summary.csv.

    When both `cfg.workers` (by default the number of usable CPUs) and the
    number of cells are above 1, each cell runs in its own forked child, at
    most `cfg.workers` at once; otherwise, a one-cell grid included, every
    cell runs in this process. Either way each cell computes with the one
    BLAS thread that `nn` pins, so the output bytes do not depend on
    `cfg.workers`. A cell that raises, or whose child dies (`worker died`;
    the cell is not run again), is marked failed with its traceback logged
    and does not abort the others; failed cells are listed in
    failed_cells.txt, which a run without failures removes, and summary.csv
    covers the cells that completed.

    The grid is checked (`ExperimentConfig.check`) and the datasets are read
    once, before the output directory is created, so a grid that breaks a
    rule raises ValueError, and a bad dataset raises (IdxFormatError for a
    malformed IDX file), with nothing written; every cell is handed the
    same pair.
    """
    out_dir = Path(out_dir)
    cfg.check()
    data = load_datasets(cfg)
    calls = [(cell, data, out_dir) for cell in cells(cfg)]
    results: dict[str, RunRecord] = {}
    failed: list[str] = []
    out_dir.mkdir(parents=True, exist_ok=True)
    workers = min(cfg.workers, len(calls))
    outcomes = _forked(calls, workers) if workers > 1 else itertools.starmap(_outcome, calls)
    for (cell, _, _), outcome in zip(calls, outcomes):
        if isinstance(outcome, RunRecord):
            results[cell.name] = outcome
        else:
            log.error("cell %s failed\n%s", cell.name, outcome)
            failed.append(cell.name)
    failed_path = out_dir / "failed_cells.txt"
    if failed:
        log.warning("failed cells: %s", ", ".join(failed))
        write_text_atomic(failed_path, "\n".join(failed) + "\n")
    else:
        failed_path.unlink(missing_ok=True)
    write_text_atomic(out_dir / "summary.csv", summarize_records(results))
    return results


def _outcome(cell: Cell, data: Datasets, out_dir) -> RunRecord | str:
    """Run one cell and persist its record: the record, or the traceback it raised."""
    try:
        record = run_cell(cell, data)
        write_run_record(record, out_dir / cell.name)
        return record
    except Exception:
        return traceback.format_exc().rstrip()


def _send_outcome(send, *args) -> None:
    send.send(_outcome(*args))


def _forked(calls: list[tuple], workers: int) -> list[RunRecord | str]:
    """`_outcome(*args)` for each of `calls`, in order, each in its own forked
    child, at most `workers` at once; a child that dies before it sends gives
    "RuntimeError: worker died". If the wait raises, the running children are
    terminated and joined first."""
    import multiprocessing.connection  # here, so a serial run does not load it

    fork = multiprocessing.get_context("fork")
    outcomes: list = [None] * len(calls)
    pending = list(enumerate(calls))[::-1]  # popped from the end, so in cell order
    running = {}  # the read end of each running child's pipe: (cell index, child)
    try:
        while pending or running:
            while pending and len(running) < workers:
                i, args = pending.pop()
                recv, send = fork.Pipe(duplex=False)
                child = fork.Process(target=_send_outcome, args=(send, *args))
                child.start()
                send.close()  # so the read end sees EOF once the child is gone
                running[recv] = i, child
            # One ready child at a time, so each one that ends starts the next cell.
            recv = multiprocessing.connection.wait(list(running))[0]
            i, child = running.pop(recv)
            with recv:
                try:
                    outcomes[i] = recv.recv()
                except EOFError:  # the child died before it sent its outcome
                    outcomes[i] = "RuntimeError: worker died"
            child.join()
    finally:
        for _, child in running.values():
            child.terminate()
            child.join()
    return outcomes


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
