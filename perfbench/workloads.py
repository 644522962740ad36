"""Workload definitions: the CLI invocations each workload makes, the inputs
they read (generated from the benchmark seed), and the checks on their output.

Every check function returns the operations it judged. An operation is one
CLI invocation or one grid cell; it fails on a nonzero exit, a missing or
incomplete cell, or any failed output check. Fingerprints are the sha256 of
every output file the ROADMAP treats as behaviour (`run.json`,
`iterations.csv`, `summary.csv`) and of the stdout of `measure` and `audit`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from pqprune.audit import PROPERTY_NAMES
from pqprune.data_io import read_run_record
from pqprune.experiment import cell_name, summarize_records
from pqprune.pruning import SapHyperParams, replay_count
from pqprune.sparsity import NormPair, gini_index, pq_index


@dataclass
class Op:
    """One judged operation: a CLI invocation or a grid cell."""

    name: str
    ok: bool
    why: str = ""


@dataclass
class Judgement:
    ops: list[Op] = field(default_factory=list)
    fingerprints: dict[str, str] = field(default_factory=dict)

    def add(self, name: str, problems: list[str]) -> None:
        self.ops.append(Op(name, not problems, "; ".join(problems)))


@dataclass
class Command:
    """One `pqprune` invocation and the check of what it left behind."""

    label: str
    argv: list[str]  # arguments after `pqprune`
    check: Callable[[int, str], Judgement]  # (exit code, stdout) -> judgement


@dataclass
class Workload:
    name: str
    why: str
    commands: list[Command]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- grids -----------------------------------------------------------------


@dataclass(frozen=True)
class Grid:
    scope: str
    kinds: tuple[str, ...]
    seeds: tuple[int, ...]
    iterations: int
    epochs: int
    batch_size: int
    n_samples: int
    n_features: int
    n_classes: int
    data_seed: int

    def config_text(self) -> str:
        return "\n".join(
            [
                "model = MLP",
                f"scope = {self.scope}",
                "dataset.kind = synthetic",
                f"dataset.n_samples = {self.n_samples}",
                f"dataset.n_features = {self.n_features}",
                f"dataset.n_classes = {self.n_classes}",
                f"dataset.seed = {self.data_seed}",
                f"algorithm.kinds = {','.join(self.kinds)}",
                f"algorithm.iterations = {self.iterations}",
                f"train.epochs = {self.epochs}",
                f"train.batch_size = {self.batch_size}",
                f"seeds = {','.join(map(str, self.seeds))}",
                "workers = 1",
            ]
        ) + "\n"


def run_command(label: str, grid: Grid, workdir: Path) -> Command:
    cfg_path = workdir / f"{label}.cfg"
    cfg_path.write_text(grid.config_text())
    out = workdir / label
    return Command(
        label=label,
        argv=["run", "--config", str(cfg_path), "--out", str(out)],
        check=lambda code, _stdout: check_run(label, grid, out, code),
    )


def check_run(label: str, grid: Grid, out: Path, exit_code: int) -> Judgement:
    """Exit code, every cell complete, summary.csv equal to the summary
    replayed from the persisted records, every SAP count equal to its replay."""
    j = Judgement()
    records = {}
    for kind in grid.kinds:
        for seed in grid.seeds:
            name = cell_name(kind, seed)
            problems = []
            try:
                rec = read_run_record(out / name)
                csv = (out / name / "iterations.csv").read_bytes()
            except (RuntimeError, OSError, ValueError, KeyError) as exc:
                j.add(f"{label}/{name}", [f"unreadable record: {exc}"])
                continue
            records[name] = rec
            if not rec.completed:
                problems.append(f"incomplete: {rec.events}")
            if len(rec.iterations) != grid.iterations + 1:
                problems.append(f"{len(rec.iterations)} iterations")
            if csv != rec.iterations_csv().encode():
                problems.append("iterations.csv disagrees with run.json")
            problems += _sap_replay_problems(rec)
            j.fingerprints[f"{label}/{name}/run.json"] = sha256(
                (out / name / "run.json").read_bytes()
            )
            j.fingerprints[f"{label}/{name}/iterations.csv"] = sha256(csv)
            j.add(f"{label}/{name}", problems)
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    if (out / "failed_cells.txt").exists():
        problems.append("failed_cells.txt written")
    summary = out / "summary.csv"
    if summary.exists():
        text = summary.read_text()
        j.fingerprints[f"{label}/summary.csv"] = sha256(text.encode())
        if text != summarize_records(records):
            problems.append("summary.csv differs from the replayed summary")
    else:
        problems.append("no summary.csv")
    j.add(label, problems)
    return j


def _sap_replay_problems(rec) -> list[str]:
    sap = rec.config.get("sap")
    if sap is None:
        return []
    hp = SapHyperParams(
        norms=NormPair(sap["p"], sap["q"]),
        eta=sap["eta"],
        gamma=sap["gamma"],
        beta=sap["beta"],
    )
    bad = sum(
        1
        for it in rec.iterations
        for entry in it.groups
        if entry["c"] != replay_count(entry, hp)
    )
    return [f"{bad} SAP counts differ from their replay"] if bad else []


# --- index commands --------------------------------------------------------


def measure_command(seed: int, d: int, workdir: Path) -> Command:
    values = np.random.default_rng(seed).laplace(size=d)
    path = workdir / "laplace.txt"
    path.write_text("".join(f"{x!r}\n" for x in values.tolist()))
    norms = NormPair(0.5, 1.0)
    expected_head = [
        f"pq_index = {format(pq_index(values, norms), '.9g')}",
        f"gini_index = {format(gini_index(values), '.9g')}",
        "r,eta_r,bound,satisfied",
    ]

    def check(exit_code: int, stdout: str) -> Judgement:
        j = Judgement()
        lines = stdout.splitlines()
        problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
        if len(lines) != d + 3:
            problems.append(f"{len(lines)} lines, expected {d + 3}")
        if lines[:3] != expected_head:
            problems.append(f"head {lines[:3]} != {expected_head}")
        for r, line in enumerate(lines[3:], 1):
            fields = line.split(",")
            if len(fields) != 4 or fields[0] != str(r) or fields[3] != "true":
                problems.append(f"row {r}: {line!r}")
                break
        j.fingerprints["measure/stdout"] = sha256(stdout.encode())
        j.add("measure", problems)
        return j

    return Command(
        label="measure",
        argv=["measure", str(path), "--p", "0.5", "--q", "1.0"],
        check=check,
    )


def audit_command(measure: str, seed: int, trials: int) -> Command:
    label = f"audit_{measure}"

    def check(exit_code: int, stdout: str) -> Judgement:
        j = Judgement()
        problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
        try:
            report = json.loads(stdout)
            results = report["results"]
            if [r["property"] for r in results] != list(PROPERTY_NAMES):
                problems.append("unexpected property list")
            for r in results:
                if r["trials"] != trials or r["violations"] != 0:
                    problems.append(f"{r['property']}: {r['violations']} violations")
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable report: {exc}")
        j.fingerprints[f"{label}/stdout"] = sha256(stdout.encode())
        j.add(label, problems)
        return j

    argv = ["audit", "--measure", measure, "--trials", str(trials), "--seed", str(seed)]
    if measure == "pq":
        argv += ["--p", "0.5", "--q", "1.0"]
    return Command(label=label, argv=argv, check=check)


# --- the workloads ---------------------------------------------------------

# Two workloads, each a mix of two parts, so that each gets a long run: the
# machine's speed drifts over minutes, and only runs of about a minute keep
# the spread between runs of the same code inside the bounds.
WHY = {
    "train_grid": "acceptance desk grid plus an MNIST-shaped SAP grid per scope: "
                  "training overhead, GEMMs, dataset regeneration; pruning a small share",
    "prune_index": "one_shot neuron_wise sweep over 31 rounds plus measure and both "
                   "audits: per-group pruning, evaluate, eta_r loop, axiom audit",
}

NAMES = tuple(WHY)


def build(name: str, seed: int, workdir: Path, small: bool = False) -> Workload:
    """The workload `name` with inputs generated from `seed` under `workdir`.

    `small` shrinks every size so the benchmark's own tests run in seconds.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    mnist = dict(n_samples=600 if small else 10_000, n_features=784, n_classes=10,
                 batch_size=250, data_seed=seed)
    if name == "train_grid":
        desk = Grid(scope="global", kinds=("sap", "lottery_ticket"),
                    seeds=(0,) if small else (0, 1, 2, 3), iterations=2 if small else 10,
                    epochs=1 if small else 5, batch_size=50,
                    n_samples=200 if small else 1000, n_features=20, n_classes=2,
                    data_seed=seed)
        commands = [run_command("desk_global", desk, workdir)] + [
            run_command(f"mnist_{scope}", Grid(scope=scope, kinds=("sap",), seeds=(0,),
                                               iterations=1 if small else 2, epochs=1, **mnist),
                        workdir)
            for scope in ("global", "layer_wise", "neuron_wise")
        ]
    elif name == "prune_index":
        sweep = Grid(scope="neuron_wise", kinds=("one_shot",), seeds=(0,),
                     iterations=3 if small else 30, epochs=1, **mnist)
        trials = 50 if small else 1500
        commands = [
            run_command("sweep_neuron_wise", sweep, workdir),
            measure_command(seed, 200 if small else 3000, workdir),
            audit_command("pq", seed, trials),
            audit_command("gini", seed, trials),
        ]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return Workload(name, WHY[name], commands)
