import ast
import dataclasses
import itertools
import json
import multiprocessing
import multiprocessing.connection
import multiprocessing.process
import os
import re
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from pqprune import cli, experiment
from pqprune.config import ExperimentConfig, IdxPaths, parse_config
from pqprune.data_io import (
    IDX_IMAGE_MAGIC,
    IDX_LABEL_MAGIC,
    SyntheticSpec,
    read_run_record,
    write_run_record,
)
from pqprune.experiment import trajectory_stats
from pqprune.nn import TrainConfig, model_specs
from pqprune.pruning import AlgorithmSpec, SapHyperParams, Scope
from pqprune.records import IterationMetrics, RunRecord
from pqprune.sparsity import NormPair, gini_index
from test_exit_codes import TINY_CONFIG, cases, check


def tiny_config(dataset) -> ExperimentConfig:
    """TINY_CONFIG built field by field; every other field at its default."""
    sap = SapHyperParams(norms=NormPair(0.5, 1.0), eta=0.0, gamma=1.0, beta=0.9)
    return ExperimentConfig(
        model="Linear",
        scope=Scope.GLOBAL,
        dataset=dataset,
        algorithms=[
            AlgorithmSpec("sap", iterations=3, ratio=0.2, sap=sap),
            AlgorithmSpec("lottery_ticket", iterations=3, ratio=0.2, sap=None),
        ],
        train=TrainConfig(epochs=2, batch_size=32, learning_rate=0.1, momentum=0.9,
                          weight_decay=0.05, nesterov=True),
        seeds=[0, 1],
    )


class TestConfig:
    def test_defaults_match_desk_analog(self):
        cfg = ExperimentConfig()
        assert cfg.model == "MLP"
        assert cfg.scope == Scope.GLOBAL
        [alg] = cfg.algorithms
        assert (alg.kind, alg.iterations, alg.ratio) == ("sap", 10, 0.2)
        assert (alg.sap.norms.p, alg.sap.norms.q) == (0.5, 1.0)
        assert (alg.sap.eta, alg.sap.gamma, alg.sap.beta) == (0.0, 1.0, 0.9)
        assert (cfg.train.epochs, cfg.train.batch_size, cfg.train.weight_decay) == (5, 50, 0.05)
        assert cfg.seeds == [0, 1, 2, 3]

    def test_workers_default_to_the_usable_cpus(self):
        assert ExperimentConfig().workers == len(os.sched_getaffinity(0))

    def test_parse_builds_expected_config(self):
        assert parse_config(TINY_CONFIG) == tiny_config(
            SyntheticSpec(n_samples=200, n_features=8, n_classes=2,
                          class_separation=5.0, seed=0)
        )

    def test_idx_dataset_parsed(self):
        text = TINY_CONFIG.replace(
            "dataset.kind = synthetic",
            "dataset.kind = idx\n"
            "dataset.train_images = a\ndataset.train_labels = b\n"
            "dataset.test_images = c\ndataset.test_labels = d",
        )
        for key in ("n_samples", "n_features", "n_classes", "class_separation", "seed"):
            text = "\n".join(
                l for l in text.splitlines() if not l.startswith(f"dataset.{key}")
            )
        assert parse_config(text) == tiny_config(IdxPaths("a", "b", "c", "d"))

    def test_idx_missing_key_named_once(self):
        with pytest.raises(ValueError) as info:
            parse_config("dataset.kind = idx\ndataset.train_images = a\n")
        assert str(info.value) == "idx dataset requires key dataset.train_labels"

    def test_empty_config_is_default(self):
        assert parse_config("") == ExperimentConfig()

    def test_defaults_are_the_settings_classes_own(self):
        # Each setting has one default: its settings class's own.
        cfg = parse_config("")
        assert cfg.train == TrainConfig()
        assert cfg.algorithms == [AlgorithmSpec("sap")]

    def test_readme_config_block_shows_the_defaults(self):
        # Every key in the README's block is at its default but algorithm.kinds.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        [block] = re.findall(r"```ini\n(.*?)```", readme, re.S)
        cfg, default = parse_config(block), ExperimentConfig()
        [sap] = default.algorithms
        assert cfg.algorithms == [
            dataclasses.replace(sap, kind=kind, sap=sap.sap if kind == "sap" else None)
            for kind in ("sap", "lottery_ticket", "one_shot")
        ]
        assert dataclasses.replace(cfg, algorithms=default.algorithms) == default

    def test_fields_parsed_by_declared_type(self):
        cfg = parse_config(
            "dataset.class_separation = 2.5\ntrain.nesterov = off\n"
            "train.epochs = 3\nsap.p = 0.25\nsap.q = 2\nsap.beta = 0.5\n"
        )
        assert cfg.dataset == SyntheticSpec(class_separation=2.5)
        assert cfg.train == TrainConfig(epochs=3, batch_size=50, weight_decay=0.05,
                                        nesterov=False)
        assert cfg.algorithms[0].sap == SapHyperParams(norms=NormPair(0.25, 2.0), beta=0.5)

    @pytest.mark.parametrize(
        "line",
        ["train.seed = 1", "sap.relaxed = true", "sap.norms = 1", "algorithm.kind = sap",
         "algorithm.sap = 1"],
    )
    def test_fields_without_key_rejected(self, line):
        with pytest.raises(ValueError, match="unknown config keys"):
            parse_config(line + "\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            parse_config("model = MLP\nbogus.key = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_config("model = MLP\nmodel = Linear\n")

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError, match="seeds: duplicate entries 0"):
            parse_config("seeds = 0,1,0\n")

    def test_duplicate_algorithm_kinds_rejected(self):
        with pytest.raises(ValueError, match="algorithm.kinds: duplicate entries sap"):
            parse_config("algorithm.kinds = sap, lottery_ticket, sap\n")

    @pytest.mark.parametrize("row", cases("test_run_with_bad_value_exits_2"))
    def test_run_with_bad_value_exits_2(self, row, tmp_path, monkeypatch, capsys):
        check(row, tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("row", cases("test_run_with_bad_algorithm_exits_2"))
    def test_run_with_bad_algorithm_exits_2(self, row, tmp_path, monkeypatch, capsys):
        check(row, tmp_path, monkeypatch, capsys)


def fail_writes_to(monkeypatch, name):
    """Make Path.write_text, for any file whose name contains `name`, write
    half the text and then raise, as a full disk would."""
    write_text = Path.write_text

    def write_half_then_fail(path, text, *args, **kwargs):
        if name not in path.name:
            return write_text(path, text, *args, **kwargs)
        write_text(path, text[: len(text) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", write_half_then_fail)


def dir_bytes(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


class TestMeasureCommand:
    def test_known_vector(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_text("1\n2\n3\n4\n")
        assert cli.main(["measure", str(path), "--p", "0.5", "--q", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "pq_index = 0.0555858574" in out
        assert "gini_index = 0.25" in out
        assert out.count("true") == 4  # the bound holds at every r

    def test_uniform_vector(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_text("2\n2\n2\n")
        assert cli.main(["measure", str(path)]) == 0
        out = capsys.readouterr().out
        values = {
            line.split(" = ")[0]: float(line.split(" = ")[1])
            for line in out.splitlines()
            if " = " in line
        }
        assert abs(values["pq_index"]) < 1e-12
        assert abs(values["gini_index"]) < 1e-12

    def test_one_hot(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_text("0\n0\n0\n1\n")
        assert cli.main(["measure", str(path)]) == 0
        assert "pq_index = 0.75" in capsys.readouterr().out

    def test_large_vector(self, tmp_path, capsys):
        d = 100_000
        values = np.random.default_rng(0).laplace(size=d)
        path = tmp_path / "w.txt"
        path.write_text("".join(f"{x!r}\n" for x in values.tolist()))
        assert cli.main(["measure", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == d + 3
        assert lines[2] == "r,eta_r,bound,satisfied"
        assert [line.split(",")[0] for line in lines[3:]] == [str(r) for r in range(1, d + 1)]
        assert all(line.endswith(",true") for line in lines[3:])
        assert lines[-1].startswith(f"{d},0,")


def run_python(code):
    """Run `code` in a new interpreter that imports this checkout's pqprune."""
    import pqprune

    src = str(Path(pqprune.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def test_report_runs_with_scipy_unimportable(run_root, tmp_path):
    argv = ["report", *(str(run_root / "out" / f"sap_seed{s}") for s in (0, 1)),
            "--out", str(tmp_path)]
    proc = run_python("import sys; sys.modules['scipy'] = None; from pqprune import cli; "
                      f"sys.exit(cli.main({argv!r}))")
    assert proc.returncode == 0, proc.stderr
    stats = json.loads((tmp_path / "trajectory_stats.json").read_text())
    assert set(stats) == {"pqi_argmin", "pqi_argmax", "spearman_pqi_gini"}


def test_package_imports_only_stdlib_and_numpy():
    import pqprune

    allowed = sys.stdlib_module_names | {"numpy"}
    outside = []
    for path in sorted(Path(pqprune.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):  # imports in functions too
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one
            outside += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in allowed]
    assert outside == []


def test_cli_import_loads_no_process_pool():
    proc = run_python("import sys, pqprune.cli; print(sorted("
                      "{'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


class TestAuditCommand:
    def test_pq_clean_exit_0(self, capsys):
        assert cli.main(["audit", "--measure", "pq", "--trials", "100"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert all(r["violations"] == 0 for r in data["results"])

    def test_gini_clean_exit_0(self, capsys):
        assert cli.main(["audit", "--measure", "gini", "--trials", "100"]) == 0

    def test_negative_search_reports_without_failing(self, capsys):
        assert cli.main(["audit", "--measure", "pq", "--p", "0.3", "--q", "0.7",
                         "--trials", "20", "--negative"]) == 0
        assert "negative robin_hood search: found" in capsys.readouterr().out

    def test_a_violation_of_the_last_axiom_exits_1(self, tmp_path, monkeypatch, capsys):
        # A measure that breaks babies alone: every drawn vector but the one
        # with a zero appended is all nonzero, and that one scores lower.
        def babies_broken(w):
            return gini_index(w) - 2.0 * (w == 0).any(axis=-1)

        monkeypatch.setattr(cli, "gini_measure", lambda: ("babies_broken", babies_broken))
        out = tmp_path / "audit.json"
        assert cli.main(["audit", "--measure", "gini", "--trials", "20", "--out", str(out)]) == 1
        text = capsys.readouterr().out
        assert out.read_text() == text
        report = json.loads(text)
        assert report["measure"] == "babies_broken"
        assert [r["violations"] for r in report["results"]] == [0, 0, 0, 0, 0, 20]

    def test_failed_out_write_keeps_previous_report(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "audit.json"
        argv = ["audit", "--trials", "20", "--out", str(out)]
        assert cli.main(argv) == 0
        before = dir_bytes(tmp_path)
        fail_writes_to(monkeypatch, out.name)
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == "error: disk full\n"
        monkeypatch.undo()
        assert dir_bytes(tmp_path) == before


def run_config(tmp_path, text):
    """Write `text` to tmp_path/exp.cfg; the argv that runs it into tmp_path/out, and that out."""
    (tmp_path / "exp.cfg").write_text(text)
    out = tmp_path / "out"
    return ["run", "--config", str(tmp_path / "exp.cfg"), "--out", str(out)], out


def fail_cells(monkeypatch, doomed, error=None):
    """Make each cell that `doomed(kind, seed)` names raise a RuntimeError of
    `error` or, if None, end its process without returning, as an OOM kill would."""
    run_cell = experiment.run_cell

    def run_or_fail(cfg, alg, seed, data):
        if not doomed(alg.kind, seed):
            return run_cell(cfg, alg, seed, data)
        if error is None:
            os._exit(1)
        raise RuntimeError(error)

    monkeypatch.setattr(experiment, "run_cell", run_or_fail)


@pytest.fixture
def child_starts(monkeypatch):
    """Records, for each child process started, its start method and the
    number of children started and not yet joined, itself included."""
    starts, live = [], set()
    base = multiprocessing.process.BaseProcess
    start, join = base.start, base.join

    def recording_start(self):
        live.add(self)
        starts.append((self._start_method, len(live)))
        start(self)

    def recording_join(self, timeout=None):
        join(self, timeout)
        if self.exitcode is not None:
            live.discard(self)

    monkeypatch.setattr(base, "start", recording_start)
    monkeypatch.setattr(base, "join", recording_join)
    return starts


class TestRunAndReport:

    def test_cell_directories_and_summary(self, run_root):
        out = run_root / "out"
        dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert dirs == [
            "lottery_ticket_seed0",
            "lottery_ticket_seed1",
            "sap_seed0",
            "sap_seed1",
        ]
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("algorithm,t,n_seeds")
        # 2 algorithms x (T+1) iterations
        assert len(summary) == 1 + 2 * 4

    def test_rerun_identical_bytes(self, run_root, tmp_path):
        cfg_path = run_root / "exp.cfg"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        for cell in ("sap_seed0", "lottery_ticket_seed1"):
            a = (run_root / "out" / cell / "iterations.csv").read_bytes()
            b = (tmp_path / cell / "iterations.csv").read_bytes()
            assert a == b

    def test_report_panels(self, run_root, tmp_path):
        dirs = [str(run_root / "out" / f"sap_seed{s}") for s in (0, 1)]
        assert cli.main(["report", *dirs, "--out", str(tmp_path)]) == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "panel_gini.csv",
            "panel_performance.csv",
            "panel_pqi.csv",
            "panel_remaining.csv",
            "trajectory_stats.json",
        ]
        stats = json.loads((tmp_path / "trajectory_stats.json").read_text())
        assert set(stats) == {"pqi_argmin", "pqi_argmax", "spearman_pqi_gini"}

    @pytest.mark.parametrize(
        "name",
        [
            "panel_performance.csv",
            "panel_remaining.csv",
            "panel_pqi.csv",
            "panel_gini.csv",
            "trajectory_stats.json",
        ],
    )
    def test_failed_report_write_keeps_previous_file(self, run_root, tmp_path, monkeypatch,
                                                     name):
        dirs = [run_root / "out" / f"sap_seed{s}" for s in (0, 1)]
        experiment.write_report(dirs, tmp_path)
        before = dir_bytes(tmp_path)
        fail_writes_to(monkeypatch, name)
        with pytest.raises(OSError, match="disk full"):
            experiment.write_report(dirs, tmp_path)
        monkeypatch.undo()
        assert dir_bytes(tmp_path) == before

    def test_report_default_out_ignores_env(self, run_root, tmp_path, monkeypatch):
        # report writes under ./report, whatever $PQI_PRUNE_OUT says.
        monkeypatch.setenv("PQI_PRUNE_OUT", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        dirs = [str(run_root / "out" / f"sap_seed{s}") for s in (0, 1)]
        assert cli.main(["report", *dirs]) == 0
        assert (tmp_path / "report" / "trajectory_stats.json").exists()
        assert not (tmp_path / "envout").exists()

    def test_report_of_no_run_directories_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="^no run directories given$"):
            experiment.write_report([], tmp_path)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("row", cases("test_report_damaged_record_exits_2"))
    def test_report_damaged_record_exits_2(self, row, run_root, tmp_path, monkeypatch, capsys):
        check(row, tmp_path, monkeypatch, capsys, run_root / "out")

    def test_report_leaves_out_incomplete_runs(self, run_root, tmp_path, caplog):
        out = run_root / "out"
        diverged = diverged_copy(out / "sap_seed1", tmp_path / "sap_seed1", at=2)
        alone, mixed = tmp_path / "alone", tmp_path / "mixed"
        assert cli.main(["report", str(out / "sap_seed0"), "--out", str(alone)]) == 0
        argv = ["report", str(out / "sap_seed0"), str(diverged), "--out", str(mixed)]
        assert cli.main(argv) == 0
        for panel in alone.iterdir():
            assert (mixed / panel.name).read_bytes() == panel.read_bytes()
        assert f"left out incomplete run {diverged}" in caplog.text

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_clean_rerun_removes_failed_cells(self, tmp_path, monkeypatch, caplog, workers):
        argv, out = run_config(tmp_path, TINY_CONFIG + f"workers = {workers}\n")
        fail_cells(monkeypatch, lambda kind, seed: seed == 1, "injected failure")
        assert cli.main(argv) == 1
        failed = (out / "failed_cells.txt").read_text()
        assert failed == "sap_seed1\nlottery_ticket_seed1\n"
        # The parent logs each failure, naming the cell, also when it ran in a child.
        assert "cell sap_seed1 failed" in caplog.text
        assert "injected failure" in caplog.text
        completed = {name: read_run_record(out / name)
                     for name in ("sap_seed0", "lottery_ticket_seed0")}
        summary = (out / "summary.csv").read_text()
        assert summary == experiment.summarize_records(completed)
        monkeypatch.undo()
        assert cli.main(argv) == 0
        assert not (out / "failed_cells.txt").exists()

    def test_dead_children_fail_only_their_cells(self, tmp_path, monkeypatch):
        # Each seed-1 child exits without returning.
        fail_cells(monkeypatch, lambda kind, seed: seed == 1)
        argv, out = run_config(tmp_path, TINY_CONFIG + "workers = 2\n")
        assert cli.main(argv) == 1
        failed = (out / "failed_cells.txt").read_text().splitlines()
        assert failed == ["sap_seed1", "lottery_ticket_seed1"]
        cells = {f"{kind}_seed{s}" for kind in ("sap", "lottery_ticket") for s in (0, 1)}
        completed = {name: read_run_record(out / name) for name in cells - set(failed)}
        assert all(rec.completed for rec in completed.values())
        summary = (out / "summary.csv").read_text()
        assert summary == experiment.summarize_records(completed)

    def test_dead_worker_fails_only_its_own_cell(self, tmp_path, monkeypatch, caplog):
        # Each cell has its own child, so sap_seed1's death reaches no other cell.
        fail_cells(monkeypatch, lambda kind, seed: (kind, seed) == ("sap", 1))
        argv, out = run_config(tmp_path, TINY_CONFIG.replace("seeds = 0,1", "seeds = 0,1,2,3")
                               + "workers = 2\n")  # 8 cells
        assert cli.main(argv) == 1
        assert (out / "failed_cells.txt").read_text() == "sap_seed1\n"
        assert "cell sap_seed1 failed" in caplog.text
        assert "RuntimeError: worker died" in caplog.text
        cells = {f"{kind}_seed{s}" for kind in ("sap", "lottery_ticket") for s in range(4)}
        assert {p.name for p in out.iterdir() if p.is_dir()} == cells - {"sap_seed1"}
        completed = {name: read_run_record(out / name) for name in cells - {"sap_seed1"}}
        assert all(rec.completed for rec in completed.values())
        assert (out / "summary.csv").read_text() == experiment.summarize_records(completed)

    def test_one_forked_child_per_cell_at_most_workers_alive(self, tmp_path, child_starts):
        # One forked child per cell, at most min(workers, cells) alive at
        # once; a one-cell grid runs in this process.
        for kinds, seeds, workers, live in [("sap", "0,1", 8, [1, 2]),
                                            ("sap,lottery_ticket", "0,1", 3, [1, 2, 3, 3]),
                                            ("sap", "0", 2, [])]:
            child_starts.clear()
            cfg_path = tmp_path / "exp.cfg"
            cfg_path.write_text(TINY_CONFIG.replace("sap,lottery_ticket", kinds)
                                .replace("seeds = 0,1", f"seeds = {seeds}")
                                + f"workers = {workers}\n")
            argv = ["run", "--config", str(cfg_path), "--out", str(tmp_path / f"{kinds}_{seeds}")]
            assert cli.main(argv) == 0
            assert child_starts == [("fork", n) for n in live]

    def test_dead_child_leaves_the_others_running_workers_at_once(self, tmp_path, monkeypatch,
                                                                  child_starts):
        # sap_seed1's child dies at once; it is not run again, and the other
        # 11 cells still run two at a time.
        fail_cells(monkeypatch, lambda kind, seed: (kind, seed) == ("sap", 1))
        argv, out = run_config(tmp_path, TINY_CONFIG
                               .replace("sap,lottery_ticket", "sap,lottery_ticket,one_shot")
                               .replace("seeds = 0,1", "seeds = 0,1,2,3")  # 12 cells
                               + "workers = 2\n")
        assert cli.main(argv) == 1
        assert (out / "failed_cells.txt").read_text() == "sap_seed1\n"
        assert child_starts == [("fork", 1)] + [("fork", 2)] * 11
        cells = {f"{kind}_seed{s}" for kind in ("sap", "lottery_ticket", "one_shot")
                 for s in range(4)}
        completed = {name: read_run_record(out / name) for name in cells - {"sap_seed1"}}
        assert (out / "summary.csv").read_text() == experiment.summarize_records(completed)

    def test_no_child_outlives_an_interrupted_run(self, tmp_path, monkeypatch, child_starts):
        def never_return(cfg, alg, seed, data):
            time.sleep(60)

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(experiment, "run_cell", never_return)
        monkeypatch.setattr(multiprocessing.connection, "wait", interrupted)
        try:
            with pytest.raises(KeyboardInterrupt):
                experiment.run_experiment(parse_config(TINY_CONFIG + "workers = 2\n"),
                                          tmp_path / "out")
            assert child_starts == [("fork", 1), ("fork", 2)]
            assert multiprocessing.active_children() == []
        finally:  # a child left running must not outlive the test either
            monkeypatch.undo()  # join's timeout calls wait
            for child in multiprocessing.active_children():
                child.kill()
                child.join(timeout=10)

    def test_diverged_cells_are_recorded(self, tmp_path):
        # The suite runs with warnings as errors; a diverged cell is still
        # recorded, not failed.
        argv, out = run_config(tmp_path, "train.learning_rate = 1e6\n"
                               "algorithm.kinds = sap,one_shot\nalgorithm.iterations = 3\n"
                               "seeds = 0\n")
        assert cli.main(argv) == 0
        for kind in ("sap", "one_shot"):
            rec = read_run_record(out / f"{kind}_seed0")
            assert not rec.completed
            assert rec.events == [
                "iteration 0: training diverged: non-finite loss at epoch 0, batch offset 300"
            ]
            assert rec.iterations == []
        assert (out / "summary.csv").read_text() == experiment.summarize_records({})
        assert not (out / "failed_cells.txt").exists()

    def test_cells_whose_test_loss_overflows_are_recorded_as_diverged(self, tmp_path):
        # Training's loss stays finite, but its last update leaves weights
        # whose forward pass overflows on the test split; under warnings as
        # errors, those cells are still recorded, not failed.
        argv, out = run_config(tmp_path, "model = MLP\nscope = global\ndataset.n_samples = 300\n"
                               "algorithm.kinds = sap,lottery_ticket,one_shot\n"
                               "algorithm.iterations = 3\ntrain.epochs = 2\n"
                               "train.learning_rate = 30\nseeds = 0,1,2\n")
        assert cli.main(argv) == 0
        diverged = {"sap_seed0": 0, "lottery_ticket_seed0": 0, "lottery_ticket_seed1": 1,
                    "lottery_ticket_seed2": 1, "one_shot_seed0": 0}
        for kind, seed in itertools.product(("sap", "lottery_ticket", "one_shot"), range(3)):
            rec = read_run_record(out / f"{kind}_seed{seed}")
            at = diverged.get(f"{kind}_seed{seed}")
            if at is None:
                assert rec.completed and rec.events == [] and len(rec.iterations) == 4
            else:
                assert not rec.completed
                assert rec.events == [f"iteration {at}: training diverged: non-finite test loss"]
                assert len(rec.iterations) == at
        for path in out.rglob("*.csv"):
            assert "nan" not in path.read_text() and "inf" not in path.read_text()
        assert not (out / "failed_cells.txt").exists()

    def test_default_out_is_runs_and_ignores_env(self, run_root, tmp_path, monkeypatch):
        # $PQI_PRUNE_OUT named run's output root once; --out alone names it now.
        monkeypatch.setenv("PQI_PRUNE_OUT", str(tmp_path / "envout"))
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        assert cli.main(["run", "--config", str(run_root / "exp.cfg")]) == 0
        assert (tmp_path / "cwd" / "runs" / "summary.csv").read_bytes() == (
            run_root / "out" / "summary.csv").read_bytes()
        assert not (tmp_path / "envout").exists()


class TestGridData:
    def test_idx_grid_reads_its_files_once(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(0)
        keys = []
        for split, n in (("train", 40), ("test", 10)):
            images, labels = tmp_path / f"{split}-images.idx", tmp_path / f"{split}-labels.idx"
            pixels = rng.integers(0, 256, n * 16, dtype=np.uint8).tobytes()
            images.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, 4, 4) + pixels)
            classes = bytes(i % 3 for i in range(n))
            labels.write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, n) + classes)
            keys += [f"dataset.{split}_images = {images}", f"dataset.{split}_labels = {labels}"]
        argv, out = run_config(tmp_path, "\n".join([
            "model = Linear", "dataset.kind = idx", *keys, "algorithm.kinds = sap,lottery_ticket",
            "algorithm.iterations = 2", "train.epochs = 1", "train.batch_size = 10", "seeds = 0,1",
            "workers = 1",  # cells in this process, where `calls` sees their reads
        ]) + "\n")
        calls = []
        load_idx = experiment.load_idx
        monkeypatch.setattr(
            experiment, "load_idx", lambda *paths: calls.append(paths) or load_idx(*paths)
        )
        assert cli.main(argv) == 0
        for kind in ("sap", "lottery_ticket"):
            for seed in (0, 1):
                rec = read_run_record(out / f"{kind}_seed{seed}")
                assert rec.completed
                assert rec.config["layers"][0]["in"] == 16
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "model, layers",
        [
            ("Linear", [{"in": 8, "out": 2, "activation": "none"}]),
            ("MLP", [
                {"in": 8, "out": 128, "activation": "relu"},
                {"in": 128, "out": 256, "activation": "relu"},
                {"in": 256, "out": 2, "activation": "none"},
            ]),
        ],
    )
    def test_layers_echo_follows_the_model(self, model, layers):
        cfg = ExperimentConfig(
            model=model,
            dataset=SyntheticSpec(n_samples=100, n_features=8, n_classes=2),
            train=TrainConfig(epochs=1, batch_size=50),
        )
        rec = experiment.run_cell(cfg, AlgorithmSpec("sap", iterations=1), 0,
                                  experiment.load_datasets(cfg))
        assert rec.config["layers"] == layers

    # The full config echo of real cells, key order included, since run.json
    # holds it in that order.
    DESK_TRAIN = {"epochs": 5, "batch_size": 50, "learning_rate": 0.1, "momentum": 0.9,
                  "weight_decay": 0.05, "nesterov": True}
    MLP_LAYERS = [{"in": 20, "out": 128, "activation": "relu"},
                  {"in": 128, "out": 256, "activation": "relu"},
                  {"in": 256, "out": 2, "activation": "none"}]

    @pytest.mark.parametrize(
        "kind, seed, echo",
        [
            ("sap", 0, {
                "algorithm": "sap", "iterations": 10, "ratio": 0.2,
                "sap": {"p": 0.5, "q": 1.0, "eta": 0.0, "gamma": 1.0, "beta": 0.9},
                "scope": "global", "index_p": 0.5, "index_q": 1.0, "seed": 0,
                "train": DESK_TRAIN, "layers": MLP_LAYERS,
            }),
            ("lottery_ticket", 3, {
                "algorithm": "lottery_ticket", "iterations": 10, "ratio": 0.2, "sap": None,
                "scope": "global", "index_p": 0.5, "index_q": 1.0, "seed": 3,
                "train": DESK_TRAIN, "layers": MLP_LAYERS,
            }),
        ],
    )
    def test_desk_cells_echo_their_config(self, kind, seed, echo):
        cfg = parse_config("algorithm.kinds = sap,lottery_ticket\n")
        [alg] = [alg for alg in cfg.algorithms if alg.kind == kind]
        rec = experiment.run_cell(cfg, alg, seed, experiment.load_datasets(cfg))
        assert rec.completed
        assert rec.config == echo
        assert json.dumps(rec.config) == json.dumps(echo)

    def test_linear_cell_echoes_its_config(self):
        cfg = parse_config(
            "model = Linear\nscope = neuron_wise\ndataset.n_features = 6\n"
            "dataset.n_classes = 3\nalgorithm.kinds = sap\nalgorithm.iterations = 2\n"
            "algorithm.ratio = 0.3\nsap.p = 0.7\nsap.q = 2\nsap.eta = 0.5\nsap.gamma = 2\n"
            "sap.beta = 0.8\ntrain.epochs = 1\ntrain.batch_size = 40\ntrain.nesterov = false\n"
        )
        rec = experiment.run_cell(cfg, cfg.algorithms[0], 2, experiment.load_datasets(cfg))
        echo = {
            "algorithm": "sap", "iterations": 2, "ratio": 0.3,
            "sap": {"p": 0.7, "q": 2.0, "eta": 0.5, "gamma": 2.0, "beta": 0.8},
            "scope": "neuron_wise", "index_p": 0.7, "index_q": 2.0, "seed": 2,
            "train": {"epochs": 1, "batch_size": 40, "learning_rate": 0.1, "momentum": 0.9,
                      "weight_decay": 0.05, "nesterov": False},
            "layers": [{"in": 6, "out": 3, "activation": "none"}],
        }
        assert rec.config == echo
        assert json.dumps(rec.config) == json.dumps(echo)

    @pytest.mark.parametrize("kind", ["sap", "lottery_ticket", "one_shot"])
    @pytest.mark.parametrize("scope", list(Scope))
    def test_echo_needs_no_run_of_the_cell(self, kind, scope):
        cfg = parse_config(
            f"scope = {scope.value}\ndataset.n_samples = 100\ndataset.n_features = 8\n"
            f"dataset.n_classes = 3\nalgorithm.kinds = {kind}\nalgorithm.iterations = 1\n"
            "train.epochs = 1\nseeds = 5\n"
        )
        [alg] = cfg.algorithms
        echo = experiment.cell_echo(cfg, alg, 5, model_specs(cfg.model, 8, 3))
        rec = experiment.run_cell(cfg, alg, 5, experiment.load_datasets(cfg))
        assert rec.completed
        assert json.dumps(rec.config) == json.dumps(echo)

    def test_desk_grid_generates_its_data_once(self, tmp_path, monkeypatch):
        calls = []
        gen_synthetic = experiment.gen_synthetic
        monkeypatch.setattr(
            experiment, "gen_synthetic", lambda spec: calls.append(spec) or gen_synthetic(spec)
        )
        monkeypatch.setattr(  # a record the reader accepts: an incomplete run
            experiment, "run_pruning",
            lambda alg, *_: RunRecord(config={"algorithm": alg.kind}, completed=False),
        )
        # Cells in this process, where `calls` sees their draws.
        cfg = parse_config("algorithm.kinds = sap,lottery_ticket\nworkers = 1\n")
        assert len(experiment.run_experiment(cfg, out_dir=tmp_path / "a")) == 8
        assert calls == [cfg.dataset]
        # No data outlives its grid: the next grid generates its own.
        experiment.run_experiment(cfg, out_dir=tmp_path / "b")
        assert calls == [cfg.dataset] * 2


def diverged_copy(src, dst, at):
    """A copy of the run in `src`, cut short as if training diverged at iteration `at`."""
    rec = read_run_record(src)
    rec.iterations = rec.iterations[:at]
    rec.events.append(f"iteration {at}: training diverged: non-finite loss")
    rec.completed = False
    write_run_record(rec, dst)
    return dst


def synthetic_record(pqi_traj, gini_traj):
    rec = RunRecord(config={"algorithm": "sap"})
    for t, (a, b) in enumerate(zip(pqi_traj, gini_traj)):
        rec.iterations.append(
            IterationMetrics(
                t=t, d_t=100, percent_remaining=1.0,
                acc_retrained=0.9, loss_retrained=0.1,
                acc_pruned=0.9, loss_pruned=0.1,
                pqi_retrained=a, pqi_pruned=a,
                gini_retrained=b, delta_acc=0.0, delta_pqi=0.0,
            )
        )
    return rec


class TestTrajectoryStats:
    def test_identical_trajectories_spearman_one(self):
        traj = [0.5, 0.3, 0.4, 0.6]
        stats = trajectory_stats([synthetic_record(traj, traj)])
        assert stats["spearman_pqi_gini"] == pytest.approx(1.0)
        assert stats["pqi_argmin"] == 1
        assert stats["pqi_argmax"] == 3

    def test_monotone_trajectory_boundary_argmin(self):
        traj = [0.5, 0.4, 0.3, 0.2]
        stats = trajectory_stats([synthetic_record(traj, traj)])
        assert stats["pqi_argmin"] == 3
        assert stats["pqi_argmax"] == 0

    # The suite turns warnings into errors, so each case also checks that
    # none is raised.
    @pytest.mark.parametrize(
        "pqi, gini, argmin, argmax, rho",
        [
            ([0.5, 0.3, 0.3, 0.6, 0.5], [0.2, 0.1, 0.4, 0.4, 0.3], 1, 3, 0.3514797457833188),
            ([0.5, np.nan, 0.2, 0.6], [0.2, 0.1, 0.4, 0.3], 2, 3, np.nan),
            ([0.5, 0.3, 0.4, 0.6], [0.2, 0.2, 0.2, 0.2], 1, 3, np.nan),
            ([0.5], [0.2], 0, 0, np.nan),
        ],
        ids=["ties", "nan", "constant", "one_point"],
    )
    def test_edge_cases(self, pqi, gini, argmin, argmax, rho):
        stats = trajectory_stats([synthetic_record(pqi, gini)])
        assert (stats["pqi_argmin"], stats["pqi_argmax"]) == (argmin, argmax)
        np.testing.assert_equal(stats["spearman_pqi_gini"], rho)  # NaN equals NaN

    def test_report_of_constant_gini_writes_nan(self, tmp_path, capsys):
        write_run_record(synthetic_record([0.5, 0.3, 0.4], [0.2, 0.2, 0.2]), tmp_path / "run")
        argv = ["report", str(tmp_path / "run"), "--out", str(tmp_path / "report")]
        assert cli.main(argv) == 0
        text = (tmp_path / "report" / "trajectory_stats.json").read_text()
        assert '"spearman_pqi_gini": NaN' in text
        assert capsys.readouterr().err == ""
