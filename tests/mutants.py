"""Mutation checks: does the suite still catch each known fault?

Each entry of MUTANTS names a file, its exact old text, the text that
replaces it, and the test files to run. The script copies the repository's
`src/`, `tests/` and top-level files into a temporary directory, checks that
the entries' tests pass there unmutated, then applies one mutation at a time
and runs `python -m pytest -x -q` on that entry's tests. Each mutant is
reported as

- killed: the tests fail (or run past the time limit);
- surviving: the tests pass, so no test notices the fault;
- stale: the old text does not occur exactly once; a refactor moved it, and
  the entry must move with it.

Run from anywhere:

    python tests/mutants.py

It exits 0 when every mutant is killed. Tier-1 does not collect this
file; `tests/test_mutants.py` checks that every entry's old text still
occurs exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 300


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]


PRUNING = "src/pqprune/pruning.py"
RECORDS = "src/pqprune/records.py"
CLI = "src/pqprune/cli.py"
NN = "src/pqprune/nn.py"
CONFIG = "src/pqprune/config.py"
AUDIT = "src/pqprune/audit.py"
DATA_IO = "src/pqprune/data_io.py"
SPARSITY = "src/pqprune/sparsity.py"
EXPERIMENT = "src/pqprune/experiment.py"

MUTANTS = [
    Mutant(
        "magnitude_prune: unstable sort",
        PRUNING,
        'np.where(keep, mags, np.inf), axis=1, kind="stable")',
        'np.where(keep, mags, np.inf), axis=1, kind="quicksort")',
        ("tests/test_pruning.py",),
    ),
    Mutant(
        "magnitude_prune: -inf for dropped entries",
        PRUNING,
        "np.where(keep, mags, np.inf)",
        "np.where(keep, mags, -np.inf)",
        ("tests/test_pruning.py",),
    ),
    Mutant(
        "magnitude_prune: wrong column positions",
        PRUNING,
        "* mags.shape[1] + order[first]",
        "* mags.shape[1] + np.nonzero(first)[1]",
        ("tests/test_pruning.py",),
    ),
    Mutant(
        "magnitude_prune: selection keeps the last tied survivors",
        PRUNING,
        "tied = np.flatnonzero(values == kth)[:",
        "tied = np.flatnonzero(values == kth)[::-1][:",
        ("tests/test_pruning.py",),
    ),
    Mutant(
        "run_pruning: no-op round when only the last group's count is zero",
        PRUNING,
        "            if c_total == 0:\n",
        "            if sum(entry[\"c\"] for entry in group_logs[-1:]) == 0:\n",
        ("tests/test_pruning.py",),
    ),
    Mutant(
        "run_pruning: a repeated round's events keep the stall round's t",
        PRUNING,
        'record.events.extend(f"iteration {later}: {event}" for event in skipped)',
        'record.events.extend(f"iteration {t}: {event}" for event in skipped)',
        ("tests/test_pruning.py",),
    ),
    Mutant(
        "run_pruning: the last round's network kept alive while retraining",
        PRUNING,
        "                    model = mags = None\n",
        "",
        ("tests/test_pruning.py",),
    ),
    Mutant(
        "run_pruning: the initial network rebuilt from the next seed",
        PRUNING,
        "                    model = nn.init_network(layer_specs, seed)\n",
        "                    model = nn.init_network(layer_specs, seed + 1)\n",
        ("tests/test_pruning.py",),
    ),
    Mutant(
        "run_pruning: one_shot rebuilds the initial network every round",
        PRUNING,
        "            else:\n                # One shot never retrains",
        "            else:\n                model = nn.init_network(layer_specs, seed)\n"
        "                # One shot never retrains",
        ("tests/test_pruning.py",),
    ),
    Mutant(
        "run_pruning: d_t not reduced by the round's prune count",
        PRUNING,
        "            d_t -= c_total\n",
        "",
        ("tests/test_pruning.py",),
    ),
    Mutant(
        "run_pruning: the pruned evaluation without apply_mask",
        PRUNING,
        "nn.evaluate(nn.apply_mask(model, mask), test_data)",
        "nn.evaluate(model, test_data)",
        ("tests/test_pruning.py",),
    ),
    Mutant(
        "run_pruning: a pruning round's pruned metrics copied from the retrained ones",
        PRUNING,
        "            if c_total > 0:\n",
        "            if c_total < 0:\n",
        ("tests/test_pruning.py",),
    ),
    Mutant(
        "_prune_round: clears a discarded copy of the mask",
        PRUNING,
        "            mask.flat[offset + magnitude_prune(block, keep, counts)] = False\n",
        "            mask.flat.copy()[offset + magnitude_prune(block, keep, counts)] = False\n",
        ("tests/test_pruning.py",),
    ),
    Mutant(
        "_prune_round: a block's drops written without its offset",
        PRUNING,
        "mask.flat[offset + magnitude_prune(block, keep, counts)]",
        "mask.flat[magnitude_prune(block, keep, counts)]",
        ("tests/test_pruning.py",),
    ),
    Mutant(
        "_prune_round: only the blocks that drop nothing are sorted",
        PRUNING,
        "        if counts.any():\n",
        "        if not counts.any():\n",
        ("tests/test_pruning.py",),
    ),
    Mutant(
        "evaluate: non-finite test-loss check off",
        NN,
        '    if not math.isfinite(loss):\n        raise TrainingDivergedError("non-finite test loss")',
        '    if False:\n        raise TrainingDivergedError("non-finite test loss")',
        ("tests/test_nn.py", "tests/test_pruning.py", "tests/test_config_cli.py"),
    ),
    Mutant(
        "evaluate: errstate removed",
        NN,
        '@np.errstate(over="ignore", invalid="ignore")  # a non-finite test loss raises below\n',
        "",
        ("tests/test_nn.py", "tests/test_pruning.py"),
    ),
    Mutant(
        "evaluate: last partial block dropped",
        NN,
        "    for start in range(0, n, EVAL_ROWS):\n",
        "    for start in range(0, n - EVAL_ROWS + 1, EVAL_ROWS):\n",
        ("tests/test_nn.py",),
    ),
    Mutant(
        "evaluate: loss is the mean of block means",
        NN,
        "    loss = -float(loglik.mean())\n    if not math.isfinite(loss):\n",
        "    loss = -float(\n"
        "        np.mean([loglik[s : s + EVAL_ROWS].mean() for s in range(0, n, EVAL_ROWS)]))\n"
        "    if not math.isfinite(loss):\n",
        ("tests/test_nn.py",),
    ),
    Mutant(
        "train: reordered Nesterov step",
        NN,
        "update += grad\n                update *= lr\n",
        "update *= lr\n                update += lr * grad\n",
        ("tests/test_nn.py",),
    ),
    Mutant(
        "train: the gradient masked by a float copy of the mask",
        NN,
        "grad_prunable *= mask.flat\n",
        "grad_prunable *= mask.flat.astype(float)\n",
        ("tests/test_nn.py",),
    ),
    Mutant(
        "train: the handed-over network left unmasked",
        NN,
        "    apply_mask(net, mask)\n",
        "    apply_mask(NetworkParams(net.specs, net.flat.copy()), mask)\n",
        ("tests/test_nn.py",),
    ),
    Mutant(
        "train: finite-loss check off",
        NN,
        "if not math.isfinite(loss):\n                raise TrainingDivergedError(\n",
        "if False:\n                raise TrainingDivergedError(\n",
        ("tests/test_nn.py",),
    ),
    Mutant(
        "_outcome: except ArithmeticError around the cell",
        EXPERIMENT,
        "    except Exception:\n        return traceback.format_exc()",
        "    except ArithmeticError:\n        return traceback.format_exc()",
        ("tests/test_config_cli.py",),
    ),
    Mutant(
        "_forked: one child more than workers at once",
        EXPERIMENT,
        "while pending and len(running) < workers:",
        "while pending and len(running) <= workers:",
        ("tests/test_config_cli.py",),
    ),
    Mutant(
        "_forked: a dead child ends the wait loop",
        EXPERIMENT,
        '                    outcomes[i] = "RuntimeError: worker died"\n',
        "                    break\n",
        ("tests/test_config_cli.py",),
    ),
    Mutant(
        "_forked: running children left alive when the wait raises",
        EXPERIMENT,
        "        for _, child in running.values():\n"
        "            child.terminate()\n"
        "            child.join()\n",
        "        pass\n",
        ("tests/test_config_cli.py",),
    ),
    Mutant(
        "nn: BLAS pin skipped",
        NN,
        "\n_pin_blas_to_one_thread()\n",
        "\n",
        ("tests/test_blas_pin.py",),
    ),
    Mutant(
        "config: workers default to 1",
        CONFIG,
        "field(default_factory=lambda: len(os.sched_getaffinity(0)))",
        "1",
        ("tests/test_config_cli.py",),
    ),
    Mutant(
        "_replace_fields: the declared type looked up by field name",
        CONFIG,
        "_PARSERS.get(f.type)",
        "_PARSERS.get(f.name)",
        ("tests/test_config_cli.py",),
    ),
    Mutant(
        "config: finite-value check off",
        CONFIG,
        "    if not math.isfinite(x):\n",
        "    if False:\n",
        ("tests/test_config_cli.py",),
    ),
    Mutant(
        "config: empty-list check off",
        CONFIG,
        "    if not items:\n",
        "    if False:\n",
        ("tests/test_config_cli.py",),
    ),
    Mutant(
        "config: parse error does not name the key",
        CONFIG,
        'raise ValueError(f"{key}: {exc}") from exc',
        "raise",
        ("tests/test_config_cli.py",),
    ),
    Mutant(
        "read_run_record: missing-file clause off",
        DATA_IO,
        "    except (FileNotFoundError, NotADirectoryError) as exc:\n",
        "    except ArithmeticError as exc:\n",
        ("tests/test_data_io.py", "tests/test_exit_codes.py"),
    ),
    Mutant(
        "gen_synthetic: labels shuffled without restoring the state",
        DATA_IO,
        "    rng.bit_generator.state = state\n",
        "",
        ("tests/test_data_io.py",),
    ),
    Mutant(
        "gen_synthetic: row view one float wide instead of one row",
        DATA_IO,
        "X.view(np.dtype((np.void, X.shape[1] * X.itemsize)))",
        "X.view(np.dtype((np.void, X.itemsize)))",
        ("tests/test_data_io.py",),
    ),
    Mutant(
        "SyntheticSpec: n_classes check off by one",
        DATA_IO,
        "        if self.n_classes < 2:\n",
        "        if self.n_classes < 1:\n",
        ("tests/test_config_cli.py",),
    ),
    Mutant(
        "run_experiment: a one-cell grid forks",
        EXPERIMENT,
        "    workers = min(cfg.workers, len(calls))\n",
        "    workers = cfg.workers\n",
        ("tests/test_config_cli.py",),
    ),
    Mutant(
        "gen_synthetic: the remainder rows given to the last classes",
        DATA_IO,
        "(classes < n % K)",
        "(classes >= K - n % K)",
        ("tests/test_data_io.py",),
    ),
    Mutant(
        "load_idx: pixels scaled by 256",
        DATA_IO,
        "np.divide(pixels.reshape(count, rows * cols), 255.0)",
        "np.divide(pixels.reshape(count, rows * cols), 256.0)",
        ("tests/test_data_io.py",),
    ),
    Mutant(
        "load_idx: zero-image check off",
        DATA_IO,
        '        (count, "images", "count at byte 4"),\n',
        "",
        ("tests/test_data_io.py",),
    ),
    Mutant(
        "load_idx: zero-column check off",
        DATA_IO,
        '        (cols, "columns", "cols at byte 12"),\n',
        "",
        ("tests/test_data_io.py",),
    ),
    Mutant(
        "write_run_record: run.json streamed in place, with no temporary file",
        DATA_IO,
        '_write_atomic(directory / "run.json", stream)',
        'stream(directory / "run.json")',
        ("tests/test_data_io.py",),
    ),
    Mutant(
        "write_run_record: the reader's record check off",
        DATA_IO,
        "    RunRecord.from_dict(view)  #",
        "    view  #",
        ("tests/test_data_io.py",),
    ),
    Mutant(
        "write_run_record: writer checks only the iterations",
        DATA_IO,
        "    RunRecord.from_dict(view)  #",
        '    RunRecord.from_dict({**view, "config": {}, "completed": False, "events": []})  #',
        ("tests/test_data_io.py",),
    ),
    Mutant(
        "RunRecord.from_dict: a completed run with no iterations accepted",
        RECORDS,
        "        if completed and not iterations:\n",
        "        if False:\n",
        ("tests/test_config_cli.py",),
    ),
    Mutant(
        "RunRecord.from_dict: a non-boolean completed reported as config",
        RECORDS,
        'raise TypeError("completed must be a boolean")',
        'raise TypeError("config must be an object")',
        ("tests/test_config_cli.py",),
    ),
    Mutant(
        "cell_echo: index_p taken from the norm pair's q",
        EXPERIMENT,
        '"index_p": alg.index_norms.p,',
        '"index_p": alg.index_norms.q,',
        ("tests/test_config_cli.py",),
    ),
    Mutant(
        "write_run_record: no newline after the record",
        DATA_IO,
        '            f.write("\\n")\n',
        "",
        ("tests/test_data_io.py",),
    ),
    Mutant(
        "sap_decision: no zero clamp",
        PRUNING,
        "c = max(int(math.floor(min(hp.gamma * (d - r), hp.beta * d))), 0)",
        "c = int(math.floor(min(hp.gamma * (d - r), hp.beta * d)))",
        ("tests/test_pruning.py",),
    ),
    Mutant(
        "sap_decision: d * gamma * (1 - r/d)",
        PRUNING,
        "min(hp.gamma * (d - r), hp.beta * d)",
        "min(d * hp.gamma * (1 - r / d), hp.beta * d)",
        ("tests/test_pruning.py",),
    ),
    Mutant(
        "csv_text: no newline after the last line",
        RECORDS,
        '"".join(",".join(map(format_value, row)) + "\\n" for row in [header, *rows])',
        '"\\n".join(",".join(map(format_value, row)) for row in [header, *rows])',
        ("tests/test_data_io.py",),
    ),
    Mutant(
        "loss_and_grads: bias gradient averaged",
        NN,
        "np.add.reduce(delta, axis=0, out=grads.biases[l])",
        "np.mean(delta, axis=0, out=grads.biases[l])",
        ("tests/test_nn.py",),
    ),
    Mutant(
        "loss_and_grads: bias gradient not written",
        NN,
        "        np.add.reduce(delta, axis=0, out=grads.biases[l])\n",
        "",
        ("tests/test_nn.py",),
    ),
    Mutant(
        "run_cell: loads the data itself instead of using data",
        EXPERIMENT,
        "    train_data, test_data = data\n",
        "    train_data, test_data = load_datasets(cfg)\n",
        ("tests/test_config_cli.py",),
    ),
    Mutant(
        "run: --out defaults to another root than runs",
        CLI,
        'p.add_argument("--out", default="runs",',
        'p.add_argument("--out", default="out",',
        ("tests/test_config_cli.py",),
    ),
    Mutant(
        "run: an empty --out writes into the working directory",
        CLI,
        '        if getattr(args, "out", None) == "":  #',
        "        if False:  #",
        ("tests/test_exit_codes.py",),
    ),
    Mutant(
        "TrainConfig: the full-scale weight decay restored",
        NN,
        "    weight_decay: float = 0.05\n",
        "    weight_decay: float = 5e-4\n",
        ("tests/test_config_cli.py",),
    ),
    Mutant(
        "DEFAULT_NORMS: another norm pair",
        SPARSITY,
        "DEFAULT_NORMS = NormPair(0.5, 1.0)",
        "DEFAULT_NORMS = NormPair(0.5, 2.0)",
        ("tests/test_config_cli.py",),
    ),
    Mutant(
        "IterationMetrics.from_dict: float fields unchecked",
        RECORDS,
        'if f.type == "float" and (type(x) is not float or math.isinf(x)):',
        "if False:",
        ("tests/test_config_cli.py",),
    ),
    Mutant(
        "write_report: panels directory made before the trajectory stats",
        EXPERIMENT,
        "    stats = trajectory_stats(records)  # before any write, so a failure writes nothing\n"
        "    out_dir = Path(out_dir)\n"
        "    out_dir.mkdir(parents=True, exist_ok=True)\n",
        "    out_dir = Path(out_dir)\n"
        "    out_dir.mkdir(parents=True, exist_ok=True)\n"
        "    stats = trajectory_stats(records)\n",
        ("tests/test_exit_codes.py",),
    ),
    Mutant(
        "report: $PQI_PRUNE_OUT fallback",
        CLI,
        "stats = write_report(args.run_dirs, args.out)",
        'stats = write_report(args.run_dirs, os.environ.get("PQI_PRUNE_OUT") or args.out)',
        ("tests/test_config_cli.py",),
    ),
    Mutant(
        "measure: input error without the file name",
        CLI,
        'raise ValueError(f"{args.file}: {exc}") from None',
        "raise",
        ("tests/test_exit_codes.py",),
    ),
    Mutant(
        "audit: values scattered back in the wrong order",
        AUDIT,
        "values[ks] = S(np.stack([vectors[k] for k in ks]))",
        "values[ks[::-1]] = S(np.stack([vectors[k] for k in ks]))",
        ("tests/test_audit.py",),
    ),
    Mutant(
        "audit: a later chunk overwrites first_counterexample",
        AUDIT,
        'if hits.size and result["first_counterexample"] is None:',
        "if hits.size:",
        ("tests/test_audit.py",),
    ),
    Mutant(
        "audit --negative: the verdict ignores the random trials",
        CLI,
        "    if first is not None:\n",
        "    if False:\n",
        ("tests/test_audit.py",),
    ),
    Mutant(
        "audit: a result's keys in another order",
        AUDIT,
        '{"property": p, "trials": trials, "violations": 0,',
        '{"trials": trials, "property": p, "violations": 0,',
        ("tests/test_audit.py",),
    ),
    Mutant(
        "audit: exit code counts only the first property's violations",
        CLI,
        'any(r["violations"] for r in report["results"])',
        'any(r["violations"] for r in report["results"][:1])',
        ("tests/test_config_cli.py",),
    ),
    Mutant(
        "audit: --trials and --seed unchecked before the audit",
        CLI,
        "        if value < low:\n",
        "        if False:\n",
        ("tests/test_exit_codes.py",),
    ),
    Mutant(
        "audit: --q accepted with the gini measure",
        CLI,
        'for flag, value in (("--p", args.p), ("--q", args.q)):',
        'for flag, value in (("--p", args.p),):',
        ("tests/test_exit_codes.py",),
    ),
    Mutant(
        "NormPair: the error points at relaxed=True",
        SPARSITY,
        'raise ValueError(f"need 0 < p <= 1 <= q, got p={self.p}, q={self.q}")',
        'raise ValueError(f"need 0 < p <= 1 <= q, got p={self.p}, q={self.q} "\n'
        '                             "(use relaxed=True to bypass)")',
        ("tests/test_exit_codes.py",),
    ),
    Mutant(
        "parse_config: an invalid norm pair does not name sap.p and sap.q",
        CONFIG,
        'raise ValueError(f"sap.p, sap.q: {exc}") from None',
        "raise",
        ("tests/test_exit_codes.py",),
    ),
    Mutant(
        "pq_index, gini_index: in-place arithmetic on the caller's array",
        SPARSITY,
        "    return np.abs(arr)\n",
        "    return np.abs(arr, out=arr)\n",
        ("tests/test_sparsity.py",),
    ),
    Mutant(
        "pq_index: roots taken with numpy's array **",
        SPARSITY,
        "values = [1.0 - scale * a ** root_p / b ** root_q for a, b in zip(sums_p, sums_q)]",
        "values = (1.0 - scale * np.array(sums_p) ** root_p / np.array(sums_q) ** root_q).tolist()",
        ("tests/test_sparsity.py",),
    ),
]


def occurrences(mutant: Mutant) -> int:
    return (ROOT / mutant.file).read_text().count(mutant.old)


def run_tests(copy: Path, tests) -> tuple[str, str]:
    """('pass', 'fail' or 'timeout', the output's last lines) for pytest on
    `tests` inside `copy`."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", ""
    tail = "\n".join(done.stdout.splitlines()[-15:])
    return ("pass" if done.returncode == 0 else "fail"), tail


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="pqprune-mutants-") as tmp:
        copy = Path(tmp)
        for d in ("src", "tests"):
            shutil.copytree(ROOT / d, copy / d, ignore=shutil.ignore_patterns("__pycache__"))
        for f in ROOT.iterdir():
            if f.is_file():
                shutil.copy2(f, copy / f.name)
        baseline = sorted({t for m in MUTANTS for t in m.tests})
        outcome, tail = run_tests(copy, baseline)
        if outcome != "pass":
            print(f"the unmutated tests do not pass:\n{tail}", file=sys.stderr)
            return 2
        results = []
        for m in MUTANTS:
            t0 = time.perf_counter()
            path = copy / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                verdict = "stale"
            else:
                path.write_text(text.replace(m.old, m.new))
                try:
                    outcome, _ = run_tests(copy, m.tests)
                    verdict = "surviving" if outcome == "pass" else "killed"
                finally:
                    path.write_text(text)
            results.append(verdict)
            print(f"{verdict:9s} {time.perf_counter() - t0:6.1f} s  {m.name}", flush=True)
    counts = {v: results.count(v) for v in ("killed", "surviving", "stale")}
    summary = ", ".join(f"{n} {v}" for v, n in counts.items())
    print(f"{summary} in {time.perf_counter() - start:.1f} s")
    return 0 if counts["killed"] == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
