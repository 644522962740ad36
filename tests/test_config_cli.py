import ast
import dataclasses
import itertools
import json
import multiprocessing
import multiprocessing.connection
import multiprocessing.process
import os
import re
import shutil
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

TINY_CONFIG = """
# desk config for fast tests
model = Linear
scope = global
dataset.kind = synthetic
dataset.n_samples = 200
dataset.n_features = 8
dataset.n_classes = 2
dataset.class_separation = 5.0
dataset.seed = 0
algorithm.kinds = sap,lottery_ticket
algorithm.iterations = 3
train.epochs = 2
train.batch_size = 32
seeds = 0,1
"""


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

    def test_run_with_invalid_norm_pair_names_both_keys(self, tmp_path, capsys):
        # The pair's error pointed at a Python keyword that no config accepts.
        cfg_path = tmp_path / "pair.cfg"
        cfg_path.write_text(TINY_CONFIG + "sap.p = 1.5\nsap.q = 2\n")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: sap.p, sap.q: need 0 < p <= 1 <= q, got p=1.5, q=2.0\n"
        assert not out.exists()

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_config("model = MLP\nmodel = Linear\n")

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError, match="seeds: duplicate entries 0"):
            parse_config("seeds = 0,1,0\n")

    def test_duplicate_algorithm_kinds_rejected(self):
        with pytest.raises(ValueError, match="algorithm.kinds: duplicate entries sap"):
            parse_config("algorithm.kinds = sap, lottery_ticket, sap\n")

    def test_run_with_duplicate_seeds_exits_2(self, tmp_path, capsys):
        # Two cells of one name used to collapse into one directory and
        # exit 1 with no reason given.
        cfg_path = tmp_path / "dup.cfg"
        cfg_path.write_text(TINY_CONFIG.replace("seeds = 0,1", "seeds = 0,0") + "workers = 1\n")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "duplicate entries" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line",
        [
            "train.epochs = 0",
            "train.batch_size = -5",
            "train.batch_size = 0",
            "train.learning_rate = -1",
            "train.weight_decay = -0.5",
            "train.momentum = 1",
            "train.momentum = -0.1",
            "workers = -2",
            "workers = 0",
            "sap.eta = nan",
            "sap.gamma = inf",
            "train.learning_rate = nan",
            "train.weight_decay = inf",
            "dataset.class_separation = nan",
            "train.epochs = abc",
            "seeds = ",
            "algorithm.kinds = ,",
            "scope = bogus",
            "seeds = -1",
            "dataset.seed = -1",
            "dataset.n_samples = 2",  # an 80/20 split with no test rows
            "sap.eta = -1",
            "sap.gamma = 0",
            "sap.beta = 0",
            "sap.beta = 1.5",
            "dataset.n_features = 0",
            "dataset.n_classes = 1",
            "dataset.class_separation = -1",
            "dataset.kind = bogus",
            "train.nesterov = maybe",
        ],
    )
    def test_run_with_bad_value_exits_2(self, tmp_path, capsys, line):
        setting = line.split(" = ")[0]
        kept = [l for l in TINY_CONFIG.splitlines() if not l.startswith(setting + " ")]
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("\n".join(kept + [line]) + "\n")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert setting.split(".")[-1] in capsys.readouterr().err  # the key's field name
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("algorithm.kinds = sap,bogus", "unknown algorithm kind 'bogus'"),
            ("algorithm.iterations = 0", "iterations must be >= 1"),
            ("algorithm.ratio = 1.5", "ratio must be in (0, 1)"),
        ],
    )
    def test_run_with_bad_algorithm_exits_2(self, tmp_path, capsys, line, message):
        setting = line.split(" = ")[0]
        kept = [l for l in TINY_CONFIG.splitlines() if not l.startswith(setting + " ")]
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("\n".join(kept + [line]) + "\n")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_run_with_unknown_model_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cnn.cfg"
        cfg_path.write_text(TINY_CONFIG.replace("model = Linear", "model = CNN"))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: model must be Linear or MLP, got 'CNN'\n"
        assert not out.exists()

    def test_run_with_line_without_equals_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(TINY_CONFIG + "workers 2\n")
        lineno = len(TINY_CONFIG.splitlines()) + 1
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: line {lineno}: expected 'key = value', got 'workers 2'\n")
        assert not out.exists()

    def test_run_with_output_dir_key_exits_2(self, tmp_path, monkeypatch, capsys):
        # --out is the one way to name the output root.
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG + "output_dir = runs\n")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: unknown config keys: ['output_dir']\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]

    def test_run_with_empty_out_exits_2(self, tmp_path, monkeypatch, capsys):
        # Path("") is the working directory, where no grid is written.
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG)
        assert cli.main(["run", "--config", str(cfg_path), "--out", ""]) == 2
        assert capsys.readouterr().err == "error: --out: empty\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]

    def test_run_with_workers_flag_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        # The workers key is the one way to set the worker count.
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG)
        argv = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                "--workers", "2"]
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: pqprune ")
        assert err.endswith("error: unrecognized arguments: --workers 2\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


def run_cli(argv):
    return cli.main(argv)


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
        assert run_cli(["measure", str(path), "--p", "0.5", "--q", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "pq_index = 0.0555858574" in out
        assert "gini_index = 0.25" in out
        assert out.count("true") == 4  # the bound holds at every r

    def test_uniform_vector(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_text("2\n2\n2\n")
        assert run_cli(["measure", str(path)]) == 0
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
        assert run_cli(["measure", str(path)]) == 0
        assert "pq_index = 0.75" in capsys.readouterr().out

    def test_invalid_norm_pair_exit_2_without_a_python_hint(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_text("1\n2\n")
        assert run_cli(["measure", str(path), "--p", "1.5", "--q", "2"]) == 2
        assert capsys.readouterr().err == "error: need 0 < p <= 1 <= q, got p=1.5, q=2.0\n"

    def test_all_zero_exit_2(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_text("0\n0\n")
        assert run_cli(["measure", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: index undefined: {path}: ")

    @pytest.mark.parametrize("text", ["", "# only a comment\n"])
    def test_empty_file_exit_2_with_one_error_line(self, tmp_path, capsys, text):
        path = tmp_path / "empty.txt"
        path.write_text(text)
        assert run_cli(["measure", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: no values to measure\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 2\n3 4\n", "expected a non-empty 1-D vector"),
            ("1\nnan\n", "non-finite entry in magnitude vector"),
            ("1\nabc\n", "could not convert string"),
            ("1 2\n", "expected a non-empty 1-D vector, got 2 columns"),
        ],
        ids=["two_columns", "nan", "unparsable", "one_line_two_columns"],
    )
    def test_bad_input_exits_2_naming_the_file(self, tmp_path, capsys, text, message):
        path = tmp_path / "w.txt"
        path.write_text(text)
        assert run_cli(["measure", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: {message}")
        assert captured.err.count("\n") == 1

    def test_large_vector(self, tmp_path, capsys):
        d = 100_000
        values = np.random.default_rng(0).laplace(size=d)
        path = tmp_path / "w.txt"
        path.write_text("".join(f"{x!r}\n" for x in values.tolist()))
        assert run_cli(["measure", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == d + 3
        assert lines[2] == "r,eta_r,bound,satisfied"
        assert [line.split(",")[0] for line in lines[3:]] == [str(r) for r in range(1, d + 1)]
        assert all(line.endswith(",true") for line in lines[3:])
        assert lines[-1].startswith(f"{d},0,")


def test_report_runs_with_scipy_unimportable(run_root, tmp_path):
    import pqprune

    src = str(Path(pqprune.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["report", *(str(run_root / "out" / f"sap_seed{s}") for s in (0, 1)),
            "--out", str(tmp_path)]
    code = ("import sys; sys.modules['scipy'] = None; from pqprune import cli; "
            f"sys.exit(cli.main({argv!r}))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
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
    import pqprune

    src = str(Path(pqprune.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, pqprune.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


class TestAuditCommand:
    def test_pq_clean_exit_0(self, capsys):
        assert run_cli(["audit", "--measure", "pq", "--trials", "100"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert all(r["violations"] == 0 for r in data["results"])

    def test_gini_clean_exit_0(self, capsys):
        assert run_cli(["audit", "--measure", "gini", "--trials", "100"]) == 0

    def test_negative_search_reports_without_failing(self, capsys):
        rc = run_cli(
            ["audit", "--measure", "pq", "--p", "0.3", "--q", "0.7",
             "--trials", "20", "--negative"]
        )
        assert rc == 0
        assert "negative robin_hood search: found" in capsys.readouterr().out

    def test_negative_gini_rejected_before_audit(self, tmp_path, capsys):
        out = tmp_path / "audit.json"
        argv = ["audit", "--measure", "gini", "--negative", "--out", str(out)]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "negative search applies only to the pq measure" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--p", "--q"])
    def test_norm_flag_with_gini_rejected_before_audit(self, tmp_path, capsys, flag):
        # `audit --measure gini --p 7` ran the Gini audit and ignored the flag.
        out = tmp_path / "audit.json"
        argv = ["audit", "--measure", "gini", flag, "7", "--out", str(out)]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} applies only to the pq measure\n"
        assert not out.exists()

    def test_invalid_norm_pair_exit_2_without_a_python_hint(self, capsys):
        assert run_cli(["audit", "--p", "1.5", "--q", "2", "--trials", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: need 0 < p <= 1 <= q, got p=1.5, q=2.0\n"

    def test_a_violation_of_the_last_axiom_exits_1(self, tmp_path, monkeypatch, capsys):
        # A measure that breaks babies alone: every drawn vector but the one
        # with a zero appended is all nonzero, and that one scores lower.
        def babies_broken(w):
            return gini_index(w) - 2.0 * (w == 0).any(axis=-1)

        monkeypatch.setattr(cli, "gini_measure", lambda: ("babies_broken", babies_broken))
        out = tmp_path / "audit.json"
        assert run_cli(["audit", "--measure", "gini", "--trials", "20", "--out", str(out)]) == 1
        text = capsys.readouterr().out
        assert out.read_text() == text
        report = json.loads(text)
        assert report["measure"] == "babies_broken"
        assert [r["violations"] for r in report["results"]] == [0, 0, 0, 0, 0, 20]

    def test_failed_out_write_keeps_previous_report(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "audit.json"
        argv = ["audit", "--trials", "20", "--out", str(out)]
        assert run_cli(argv) == 0
        before = dir_bytes(tmp_path)
        fail_writes_to(monkeypatch, out.name)
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == "error: disk full\n"
        monkeypatch.undo()
        assert dir_bytes(tmp_path) == before

    def test_empty_out_rejected_before_audit(self, tmp_path, monkeypatch, capsys):
        # An empty --out used to run the audit and write no file.
        monkeypatch.chdir(tmp_path)
        assert run_cli(["audit", "--trials", "5", "--out", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --out: empty\n"
        assert list(tmp_path.iterdir()) == []

    def test_out_write_error_names_target(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "x.json"
        assert run_cli(["audit", "--trials", "5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"No such file or directory: '{out}'" in err
        assert ".tmp" not in err

    def test_out_write_error_under_a_file_names_target(self, tmp_path, capsys):
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "x.json"
        assert run_cli(["audit", "--trials", "3", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: [Errno 20] Not a directory: '{out}'\n"


class TestOtherOSErrors:
    """An OSError other than a missing file is one error line naming its path,
    with exit 1."""

    def test_measure_directory(self, tmp_path, capsys):
        assert run_cli(["measure", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    def test_run_config_directory(self, tmp_path, capsys):
        assert run_cli(["run", "--config", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    def test_run_out_under_a_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG)
        out = cfg_path / "x"
        assert run_cli(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: [Errno 20] Not a directory: '{out}'\n"


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


@pytest.fixture(scope="module")
def run_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("cells")
    cfg_path = root / "exp.cfg"
    cfg_path.write_text(TINY_CONFIG)
    rc = cli.main(["run", "--config", str(cfg_path), "--out", str(root / "out")])
    assert rc == 0
    return root


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

    def test_report_with_empty_out_exits_2(self, run_root, tmp_path, monkeypatch, capsys):
        # Path("") is the working directory, where the panels used to land.
        monkeypatch.chdir(tmp_path)
        dirs = [str(run_root / "out" / f"sap_seed{s}") for s in (0, 1)]
        assert cli.main(["report", *dirs, "--out", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --out: empty\n"
        assert list(tmp_path.iterdir()) == []

    def test_report_mixed_configs_rejected(self, run_root, tmp_path):
        dirs = [
            str(run_root / "out" / "sap_seed0"),
            str(run_root / "out" / "lottery_ticket_seed0"),
        ]
        assert cli.main(["report", *dirs, "--out", str(tmp_path)]) == 2

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

    def test_report_without_complete_runs_exits_2(self, run_root, tmp_path, capsys):
        out = run_root / "out"
        dirs = [
            str(diverged_copy(out / f"sap_seed{s}", tmp_path / f"sap_seed{s}", at=0))
            for s in (0, 1)
        ]
        assert cli.main(["report", *dirs, "--out", str(tmp_path / "report")]) == 2
        assert "no complete runs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                      if k != "events"}), "has no field 'events'"),
            (lambda text: text[: len(text) // 2], "is not valid JSON"),
            (lambda text: "[]", "has the wrong shape"),
            (lambda text: json.dumps({**json.loads(text), "iterations": [1]}),
             "has the wrong shape"),
            (lambda text: json.dumps({**json.loads(text), "config": []}),
             "has the wrong shape: config must be an object"),
            (lambda text: json.dumps({**json.loads(text), "completed": "no"}),
             "has the wrong shape: completed must be a boolean"),
            # Each of these read back as a record before: "abc" as three events.
            (lambda text: json.dumps({**json.loads(text), "events": "abc"}),
             "has the wrong shape: events must be a list of strings"),
            (lambda text: json.dumps({**json.loads(text), "events": [1]}),
             "has the wrong shape: events must be a list of strings"),
            (lambda text: json.dumps({**json.loads(text), "iterations": {}}),
             "has the wrong shape: iterations must be a list"),
            # A completed run has T+1 iterations; report failed on none with
            # "not enough values to unpack" and no file named.
            (lambda text: json.dumps({**json.loads(text), "iterations": []}),
             "has the wrong shape: iterations must not be empty in a completed record"),
            (lambda text: damaged_iteration(text, t="zero"), "has the wrong shape"),
            (lambda text: damaged_iteration(text, d_t=True), "has the wrong shape"),
            (lambda text: damaged_iteration(text, c_total=1.0), "has the wrong shape"),
            (lambda text: damaged_iteration(text, groups="x"), "has the wrong shape"),
            # The writer writes NaN as NaN, never as null, and no infinite metric.
            (lambda text: damaged_iteration(text, pqi_retrained=None),
             "has the wrong shape: an iteration's pqi_retrained"),
            (lambda text: damaged_iteration(text, acc_retrained=np.inf),
             "has the wrong shape: an iteration's acc_retrained"),
            (lambda text: damaged_iteration(text, acc_retrained=True),
             "has the wrong shape: an iteration's acc_retrained"),
            (lambda text: damaged_iteration(text, acc_retrained="x"),
             "has the wrong shape: an iteration's acc_retrained"),
        ],
        ids=["missing_field", "truncated", "not_an_object", "bad_iteration", "config_a_list",
             "completed_a_string", "events_a_string", "event_not_a_string",
             "iterations_an_object", "completed_without_iterations", "t_a_string", "d_t_a_bool", "c_total_a_float",
             "groups_a_string", "pqi_null", "acc_infinite", "acc_a_bool", "acc_a_string"],
    )
    def test_report_damaged_record_exits_2(self, run_root, tmp_path, capsys, damage, message):
        text = (run_root / "out" / "sap_seed0" / "run.json").read_text()
        (tmp_path / "cut").mkdir()
        (tmp_path / "cut" / "run.json").write_text(damage(text))
        argv = ["report", str(tmp_path / "cut"), "--out", str(tmp_path / "report")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"run record {tmp_path / 'cut' / 'run.json'} {message}" in err
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("twin", ["same_dir", "copy"])
    def test_report_repeated_run_exits_2(self, run_root, tmp_path, capsys, twin):
        # A run given twice was averaged as two runs, with n = 2 and std 0.
        run = run_root / "out" / "sap_seed0"
        again = run
        if twin == "copy":
            again = tmp_path / "copy"
            shutil.copytree(run, again)
        argv = ["report", str(run), str(run_root / "out" / "sap_seed1"), str(again),
                "--out", str(tmp_path / "report")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: runs {run} and {again} repeat seed 0\n"
        assert not (tmp_path / "report").exists()

    def test_report_missing_record_exits_2(self, tmp_path, capsys):
        argv = ["report", str(tmp_path / "absent"), "--out", str(tmp_path / "report")]
        assert cli.main(argv) == 2
        assert f"run record {tmp_path / 'absent' / 'run.json'} does not exist" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_clean_rerun_removes_failed_cells(self, tmp_path, monkeypatch, caplog, workers):
        run_cell = experiment.run_cell

        def fail_seed1(cfg, alg, seed, data):
            if seed == 1:
                raise RuntimeError("injected failure")
            return run_cell(cfg, alg, seed, data)

        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG + f"workers = {workers}\n")
        out = tmp_path / "out"
        argv = ["run", "--config", str(cfg_path), "--out", str(out)]
        monkeypatch.setattr(experiment, "run_cell", fail_seed1)
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
        # Each seed-1 child exits without returning, as an OOM kill would end it.
        run_cell = experiment.run_cell

        def die_on_seed1(cfg, alg, seed, data):
            if seed == 1:
                os._exit(1)
            return run_cell(cfg, alg, seed, data)

        monkeypatch.setattr(experiment, "run_cell", die_on_seed1)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG + "workers = 2\n")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        failed = (out / "failed_cells.txt").read_text().splitlines()
        assert failed == ["sap_seed1", "lottery_ticket_seed1"]
        cells = {f"{kind}_seed{s}" for kind in ("sap", "lottery_ticket") for s in (0, 1)}
        completed = {name: read_run_record(out / name) for name in cells - set(failed)}
        assert all(rec.completed for rec in completed.values())
        summary = (out / "summary.csv").read_text()
        assert summary == experiment.summarize_records(completed)

    def test_dead_worker_fails_only_its_own_cell(self, tmp_path, monkeypatch, caplog):
        # Each cell has its own child, so sap_seed1's death reaches no other cell.
        run_cell = experiment.run_cell

        def die_on_sap_seed1(cfg, alg, seed, data):
            if (alg.kind, seed) == ("sap", 1):
                os._exit(1)
            return run_cell(cfg, alg, seed, data)

        monkeypatch.setattr(experiment, "run_cell", die_on_sap_seed1)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG.replace("seeds = 0,1", "seeds = 0,1,2,3")  # 8 cells
                            + "workers = 2\n")
        out = tmp_path / "out"
        argv = ["run", "--config", str(cfg_path), "--out", str(out)]
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
        run_cell = experiment.run_cell

        def die_on_sap_seed1(cfg, alg, seed, data):
            if (alg.kind, seed) == ("sap", 1):
                os._exit(1)
            return run_cell(cfg, alg, seed, data)

        monkeypatch.setattr(experiment, "run_cell", die_on_sap_seed1)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG.replace("sap,lottery_ticket", "sap,lottery_ticket,one_shot")
                            .replace("seeds = 0,1", "seeds = 0,1,2,3")  # 12 cells
                            + "workers = 2\n")
        out = tmp_path / "out"
        argv = ["run", "--config", str(cfg_path), "--out", str(out)]
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
        cfg_path = tmp_path / "diverge.cfg"
        cfg_path.write_text(
            "train.learning_rate = 1e6\nalgorithm.kinds = sap,one_shot\n"
            "algorithm.iterations = 3\nseeds = 0\n"
        )
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
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
        cfg_path = tmp_path / "overflow.cfg"
        cfg_path.write_text(
            "model = MLP\nscope = global\ndataset.n_samples = 300\n"
            "algorithm.kinds = sap,lottery_ticket,one_shot\nalgorithm.iterations = 3\n"
            "train.epochs = 2\ntrain.learning_rate = 30\nseeds = 0,1,2\n"
        )
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
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
    def test_bad_idx_exits_2_with_nothing_written(self, tmp_path, capsys):
        images = tmp_path / "train-img.idx"
        # An image header declaring 10 images of 28 x 28, then 14 bytes.
        images.write_bytes(bytes.fromhex("00000803 0000000a 0000001c 0000001c") + bytes(14))
        cfg_path = tmp_path / "idx.cfg"
        cfg_path.write_text(
            "model = Linear\ndataset.kind = idx\n"
            f"dataset.train_images = {images}\ndataset.train_labels = {tmp_path}/l\n"
            f"dataset.test_images = {tmp_path}/ti\ndataset.test_labels = {tmp_path}/tl\n"
            "algorithm.iterations = 1\nseeds = 0,1\n"
        )
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{images}: truncated image data at byte 30" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_idx_of_zero_images_exits_2_naming_the_file(self, tmp_path, capsys):
        images, labels = tmp_path / "train-img.idx", tmp_path / "train-lbl.idx"
        images.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, 0, 28, 28))
        labels.write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, 0))
        cfg_path = tmp_path / "idx.cfg"
        cfg_path.write_text(
            "model = Linear\ndataset.kind = idx\n"
            f"dataset.train_images = {images}\ndataset.train_labels = {labels}\n"
            f"dataset.test_images = {images}\ndataset.test_labels = {labels}\n"
            "algorithm.iterations = 1\nseeds = 0\n"
        )
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{images}: declares 0 images (count at byte 4)" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_idx_of_zero_columns_exits_2_naming_the_file(self, tmp_path, capsys):
        images, labels = tmp_path / "train-img.idx", tmp_path / "train-lbl.idx"
        images.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, 4, 28, 0))
        labels.write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, 4) + bytes(4))
        cfg_path = tmp_path / "idx.cfg"
        cfg_path.write_text(
            "model = Linear\ndataset.kind = idx\n"
            f"dataset.train_images = {images}\ndataset.train_labels = {labels}\n"
            f"dataset.test_images = {images}\ndataset.test_labels = {labels}\n"
            "algorithm.iterations = 1\nseeds = 0\n"
        )
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{images}: declares 0 columns (cols at byte 12)" in err
        assert "Traceback" not in err
        assert not out.exists()

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
        cfg_path = tmp_path / "idx.cfg"
        cfg_path.write_text("\n".join([
            "model = Linear", "dataset.kind = idx", *keys, "algorithm.kinds = sap,lottery_ticket",
            "algorithm.iterations = 2", "train.epochs = 1", "train.batch_size = 10", "seeds = 0,1",
            "workers = 1",  # cells in this process, where `calls` sees their reads
        ]) + "\n")
        calls = []
        load_idx = experiment.load_idx
        monkeypatch.setattr(
            experiment, "load_idx", lambda *paths: calls.append(paths) or load_idx(*paths)
        )
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
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


def damaged_iteration(text, **changes):
    """The run.json `text` with `changes` made to its first iteration."""
    record = json.loads(text)
    record["iterations"][0].update(changes)
    return json.dumps(record)


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

    def test_report_of_all_nan_pqi_writes_nothing(self, tmp_path, capsys):
        write_run_record(synthetic_record([np.nan] * 3, [0.2, 0.3, 0.4]), tmp_path / "run")
        argv = ["report", str(tmp_path / "run"), "--out", str(tmp_path / "report")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: pqi_retrained is NaN at every iteration\n"
        assert not (tmp_path / "report").exists()

    def test_report_of_constant_gini_writes_nan(self, tmp_path, capsys):
        write_run_record(synthetic_record([0.5, 0.3, 0.4], [0.2, 0.2, 0.2]), tmp_path / "run")
        argv = ["report", str(tmp_path / "run"), "--out", str(tmp_path / "report")]
        assert cli.main(argv) == 0
        text = (tmp_path / "report" / "trajectory_stats.json").read_text()
        assert '"spearman_pqi_gini": NaN' in text
        assert capsys.readouterr().err == ""
