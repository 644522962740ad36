"""The CLI's error exits, one row each: the argv, the input files, the exit
code, the full stderr and, unless None, the full stdout. A row runs in its
own empty working directory, named `{tmp}` in its texts; `{grid}` is the
output of TINY_CONFIG's grid, which tests/conftest.py runs once per session
for these rows and for tests/test_config_cli.py. No error exit writes a file,
so each row also checks that its directory holds just its inputs afterwards.
A `…` in the stderr stands for text within one line that numpy, argparse or
Python words. A row's id is the name and parameter id of the test it
replaced, so `-k` still selects it. A new input check adds a row.
"""

import json
import re
import shlex
from typing import NamedTuple

import pytest

from pqprune import cli

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
IDX = "model = Linear\ndataset.kind = idx\nalgorithm.iterations = 1\n" + "".join(
    f"dataset.{split}_{kind} = {{tmp}}/{kind}.idx\n"
    for split in ("train", "test") for kind in ("images", "labels"))


class Exit(NamedTuple):
    id: str
    argv: str  # split as a shell splits it
    code: int
    err: str  # without its final newline
    files: dict = {}  # name: text, bytes, or a function of the grid's output root
    out: str | None = ""


def run(id, text, err, files={}):
    return Exit(id, "run --config {tmp}/exp.cfg --out {tmp}/out", 2, f"error: {err}",
                {"exp.cfg": text, **files})


def report(id, dirs, err, files={}):
    return Exit(id, f"report {dirs} --out {{tmp}}/report", 2, f"error: {err}", files)


def record(cell="sap_seed0", drop=None, first={}, every={}, **changes):
    """The grid's `cell` run.json with the fields in `first` replaced in its first
    iteration alone, those in `every` in every iteration, the top-level fields in
    `changes` replaced and `drop` dropped."""
    def text(grid):
        rec = json.loads((grid / cell / "run.json").read_text())
        rec["iterations"][0].update(first)
        for it in rec["iterations"]:
            it.update(every)
        rec.update(changes)
        return json.dumps({k: v for k, v in rec.items() if k != drop})
    return text


SHAPE = "has the wrong shape:"
INTS = f"{SHAPE} an iteration's t, d_t and c_total must be integers and groups a list"
FLOAT = SHAPE + " an iteration's {} must be a finite number or NaN"
ACC = FLOAT.format("acc_retrained")
BAD_PAIR = "error: need 0 < p <= 1 <= q, got p=1.5, q=2.0"

ROWS = [
    # test_run_with_bad_value_exits_2: the line alone is the config.
    *(run(f"test_run_with_bad_value_exits_2[{line}]", line, err) for line, err in {
        "train.epochs = 0": "train.epochs: epochs must be >= 1",
        "train.batch_size = -5": "train.batch_size: batch_size must be >= 1",
        "train.batch_size = 0": "train.batch_size: batch_size must be >= 1",
        "train.learning_rate = -1": "train.learning_rate: learning_rate must be >= 0",
        "train.weight_decay = -0.5": "train.weight_decay: weight_decay must be >= 0",
        "train.momentum = 1": "train.momentum: momentum must be in [0, 1)",
        "train.momentum = -0.1": "train.momentum: momentum must be in [0, 1)",
        "workers = -2": "workers: workers must be >= 1",
        "workers = 0": "workers: workers must be >= 1",
        "sap.eta = nan": "sap.eta: not a finite number: 'nan'",
        "sap.gamma = inf": "sap.gamma: not a finite number: 'inf'",
        "train.learning_rate = nan": "train.learning_rate: not a finite number: 'nan'",
        "train.weight_decay = inf": "train.weight_decay: not a finite number: 'inf'",
        "dataset.class_separation = nan": "dataset.class_separation: not a finite number: 'nan'",
        "train.epochs = abc": "train.epochs: invalid literal for int() with base 10: 'abc'",
        "seeds = ": "seeds: no entries",
        "algorithm.kinds = ,": "algorithm.kinds: no entries",
        "scope = bogus": "scope: 'bogus' is not a valid Scope",
        "seeds = -1": "seeds: negative entry -1",
        "dataset.seed = -1": "dataset.seed: seed must be >= 0",
        "dataset.n_samples = 2": "dataset.n_samples: n_samples = 2 leaves the 80/20 split "
                                 "with 2 train and 0 test rows; both sides must be non-empty",
        "sap.eta = -1": "sap.eta: eta must be >= 0",
        "sap.gamma = 0": "sap.gamma: gamma must be > 0",
        "sap.beta = 0": "sap.beta: beta must be in (0, 1]",
        "sap.beta = 1.5": "sap.beta: beta must be in (0, 1]",
        "dataset.n_features = 0": "dataset.n_features: n_samples and n_features must be positive",
        "dataset.n_classes = 1": "dataset.n_classes: n_classes must be >= 2",
        "dataset.class_separation = -1": "dataset.class_separation: class_separation must be >= 0",
        "dataset.kind = bogus": "dataset.kind: unknown dataset kind 'bogus'",
        "train.nesterov = maybe": "train.nesterov: not a boolean: 'maybe'",
    }.items()),
    *(run(f"test_run_with_bad_algorithm_exits_2[{line}-{reason}]", line,
          f"{line.split(' = ')[0]}: {reason}") for line, reason in {
        "algorithm.kinds = sap,bogus": "unknown algorithm kind 'bogus'",
        "algorithm.iterations = 0": "iterations must be >= 1",
        "algorithm.ratio = 1.5": "ratio must be in (0, 1)",
    }.items()),
    run("test_run_with_invalid_norm_pair_names_both_keys", "sap.p = 1.5\nsap.q = 2\n",
        "sap.p, sap.q: need 0 < p <= 1 <= q, got p=1.5, q=2.0"),
    # Keys are applied in field order, so a cross-field check names the later key.
    run("test_run_with_cross_field_error_names_the_key_applied_last",
        "dataset.n_samples = 3\ndataset.n_classes = 5\n",
        "dataset.n_classes: more classes than samples"),
    # Two cells of one name would share one directory.
    run("test_run_with_duplicate_seeds_exits_2", "seeds = 0,0\n", "seeds: duplicate entries 0"),
    run("test_run_with_unknown_model_exits_2", "model = CNN\n",
        "model: model must be Linear or MLP, got 'CNN'"),
    run("test_run_with_line_without_equals_exits_2", TINY_CONFIG + "workers 2\n",
        f"line {len(TINY_CONFIG.splitlines()) + 1}: expected 'key = value', got 'workers 2'"),
    # --out is the one way to name the output root.
    run("test_run_with_output_dir_key_exits_2", "output_dir = runs\n",
        "unknown config keys: ['output_dir']"),
    # Path("") is the working directory, where no grid is written.
    Exit("test_run_with_empty_out_exits_2", "run --config {tmp}/exp.cfg --out ''", 2,
         "error: --out: empty", {"exp.cfg": TINY_CONFIG}),
    # The workers key is the one way to set the worker count.
    Exit("test_run_with_workers_flag_is_a_usage_error",
         "run --config {tmp}/exp.cfg --out {tmp}/out --workers 2", 2,
         "usage: pqprune …\npqprune: error: unrecognized arguments: --workers 2",
         {"exp.cfg": TINY_CONFIG}),
    # An OSError other than a missing file exits 1, naming the path given.
    Exit("test_run_config_directory", "run --config {tmp}", 1,
         "error: [Errno 21] Is a directory: '{tmp}'"),
    Exit("test_run_out_under_a_file", "run --config {tmp}/exp.cfg --out {tmp}/exp.cfg/x", 1,
         "error: [Errno 20] Not a directory: '{tmp}/exp.cfg/x'", {"exp.cfg": TINY_CONFIG}),
    # A header declaring 10 images of 28 x 28, then 14 bytes.
    run("test_bad_idx_exits_2_with_nothing_written", IDX, "{tmp}/images.idx: truncated image "
        "data at byte 30; the header declares 7840 bytes from byte 16",
        {"images.idx": bytes.fromhex("00000803 0000000a 0000001c 0000001c") + bytes(14)}),
    run("test_idx_of_zero_images_exits_2_naming_the_file", IDX,
        "{tmp}/images.idx: declares 0 images (count at byte 4)",
        {"images.idx": bytes.fromhex("00000803 00000000 0000001c 0000001c"),
         "labels.idx": bytes.fromhex("00000801 00000000")}),
    run("test_idx_of_zero_columns_exits_2_naming_the_file", IDX,
        "{tmp}/images.idx: declares 0 columns (cols at byte 12)",
        {"images.idx": bytes.fromhex("00000803 00000004 0000001c 00000000"),
         "labels.idx": bytes.fromhex("00000801 00000004") + bytes(4)}),
    Exit("test_invalid_norm_pair_exit_2_without_a_python_hint[measure]",
         "measure {tmp}/w.txt --p 1.5 --q 2", 2, BAD_PAIR, {"w.txt": "1\n2\n"}),
    Exit("test_all_zero_exit_2", "measure {tmp}/w.txt", 2,
         "error: {tmp}/w.txt: index undefined for all-zero vector", {"w.txt": "0\n0\n"}),
    *(Exit(f"test_empty_file_exit_2_with_one_error_line[{text}]", "measure {tmp}/w.txt", 2,
           "error: {tmp}/w.txt: no values to measure", {"w.txt": text})
      for text in ("", "# only a comment\n")),
    *(Exit(f"test_bad_input_exits_2_naming_the_file[{id}]", "measure {tmp}/w.txt", 2,
           f"error: {{tmp}}/w.txt: {err}", {"w.txt": text}) for id, text, err in [
          ("two_columns", "1 2\n3 4\n", "expected a non-empty 1-D vector, got 2 columns"),
          ("nan", "1\nnan\n", "non-finite entry in magnitude vector"),
          ("unparsable", "1\nabc\n", "could not convert string…"),
          ("one_line_two_columns", "1 2\n", "expected a non-empty 1-D vector, got 2 columns")]),
    Exit("test_measure_directory", "measure {tmp}", 1,
         "error: [Errno 21] Is a directory: '{tmp}'"),
    Exit("test_negative_gini_rejected_before_audit",
         "audit --measure gini --negative --out {tmp}/audit.json", 2,
         "error: negative search applies only to the pq measure"),
    *(Exit(f"test_norm_flag_with_gini_rejected_before_audit[{flag}]",
           f"audit --measure gini {flag} 7 --out {{tmp}}/audit.json", 2,
           f"error: {flag} applies only to the pq measure")
      for flag in ("--p", "--q")),
    Exit("test_invalid_norm_pair_exit_2_without_a_python_hint[audit]",
         "audit --p 1.5 --q 2 --trials 5", 2, BAD_PAIR),
    *(Exit(f"test_audit_flag_out_of_range_names_it[{flag} {value}]",
           f"audit {flag} {value} --out {{tmp}}/audit.json", 2,
           f"error: {flag} must be >= {low}, got {value}")
      for flag, value, low in [("--trials", 0, 1), ("--trials", -3, 1), ("--seed", -1, 0)]),
    Exit("test_empty_out_rejected_before_audit", "audit --trials 5 --out ''", 2,
         "error: --out: empty"),
    # A failed write names its target, not the temporary file; the report is printed first.
    Exit("test_out_write_error_names_target", "audit --trials 5 --out {tmp}/nodir/x.json", 2,
         "error: [Errno 2] No such file or directory: '{tmp}/nodir/x.json'", out=None),
    Exit("test_out_write_error_under_a_file_names_target",
         "audit --trials 3 --out {tmp}/afile/x.json", 1,
         "error: [Errno 20] Not a directory: '{tmp}/afile/x.json'", {"afile": ""}, out=None),
    Exit("test_report_with_empty_out_exits_2",
         "report {grid}/sap_seed0 {grid}/sap_seed1 --out ''", 2, "error: --out: empty"),
    report("test_report_mixed_configs_rejected", "{grid}/sap_seed0 {grid}/lottery_ticket_seed0",
           "run directories have mixed configurations"),
    report("test_report_without_complete_runs_exits_2", "{tmp}/sap_seed0 {tmp}/sap_seed1",
           "no complete runs",
           {f"sap_seed{s}/run.json": record(f"sap_seed{s}", iterations=[], completed=False, events=[
               "iteration 0: training diverged: non-finite loss"]) for s in (0, 1)}),
    *(report(f"test_report_damaged_record_exits_2[{id}]", "{tmp}/cut",
             f"run record {{tmp}}/cut/run.json {err}", {"cut/run.json": text})
      for id, (text, err) in {
        "missing_field": (record(drop="events"), "has no field 'events'"),
        "truncated": (lambda grid: record()(grid)[:200], "is not valid JSON: …"),
        "not_an_object": ("[]", f"{SHAPE} the record must be an object"),
        "bad_iteration": (record(iterations=[1]), f"{SHAPE} each iteration must be an object"),
        "config_a_list": (record(config=[]), f"{SHAPE} config must be an object"),
        "completed_a_string": (record(completed="no"), f"{SHAPE} completed must be a boolean"),
        "events_a_string": (record(events="abc"), f"{SHAPE} events must be a list of strings"),
        "event_not_a_string": (record(events=[1]), f"{SHAPE} events must be a list of strings"),
        "iterations_an_object": (record(iterations={}), f"{SHAPE} iterations must be a list"),
        # A completed run has T+1 iterations.
        "completed_without_iterations": (
            record(iterations=[]), f"{SHAPE} iterations must not be empty in a completed record"),
        "t_a_string": (record(first={"t": "zero"}), INTS),
        "d_t_a_bool": (record(first={"d_t": True}), INTS),
        "c_total_a_float": (record(first={"c_total": 1.0}), INTS),
        "groups_a_string": (record(first={"groups": "x"}), INTS),
        # The writer writes NaN as NaN, never as null, and no infinite metric.
        "pqi_null": (record(first={"pqi_retrained": None}), FLOAT.format("pqi_retrained")),
        "acc_infinite": (record(first={"acc_retrained": float("inf")}), ACC),
        "acc_a_bool": (record(first={"acc_retrained": True}), ACC),
        "acc_a_string": (record(first={"acc_retrained": "x"}), ACC),
      }.items()),
    # A run given twice was averaged as two runs, with n = 2 and std 0.
    report("test_report_repeated_run_exits_2[same_dir]",
           "{grid}/sap_seed0 {grid}/sap_seed1 {grid}/sap_seed0",
           "runs {grid}/sap_seed0 and {grid}/sap_seed0 repeat seed 0"),
    report("test_report_repeated_run_exits_2[copy]",
           "{grid}/sap_seed0 {grid}/sap_seed1 {tmp}/copy",
           "runs {grid}/sap_seed0 and {tmp}/copy repeat seed 0", {"copy/run.json": record()}),
    report("test_report_missing_record_exits_2", "{tmp}/absent",
           "run record {tmp}/absent/run.json does not exist"),
    report("test_report_of_all_nan_pqi_writes_nothing", "{tmp}/run",
           "pqi_retrained is NaN at every iteration",
           {"run/run.json": record(every={"pqi_retrained": float("nan")})}),
]


@pytest.mark.parametrize("row", [pytest.param(row, id=row.id) for row in ROWS])
def test_exit(row, run_root, tmp_path, monkeypatch, capsys):
    def fill(text):
        return text.replace("{tmp}", str(tmp_path)).replace("{grid}", str(run_root / "out"))

    monkeypatch.chdir(tmp_path)
    for name, content in row.files.items():
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        content = content(run_root / "out") if callable(content) else content
        path.write_bytes(content if isinstance(content, bytes) else fill(content).encode())
    inputs = sorted(tmp_path.rglob("*"))
    try:
        code = cli.main([fill(arg) for arg in shlex.split(row.argv)])
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
    out, err = capsys.readouterr()
    assert code == row.code
    pattern = re.escape(fill(row.err) + "\n").replace("…", "[^\n]*")
    assert re.fullmatch(pattern, err), f"stderr {err!r} is not {row.err!r}"
    if row.out is not None:
        assert out == row.out
    assert sorted(tmp_path.rglob("*")) == inputs
