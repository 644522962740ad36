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
NN = "src/pqprune/nn.py"
CONFIG = "src/pqprune/config.py"
AUDIT = "src/pqprune/audit.py"
DATA_IO = "src/pqprune/data_io.py"

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
        "train: reordered Nesterov step",
        NN,
        "scratch += grad\n                scratch *= lr\n",
        "scratch *= lr\n                scratch += lr * grad\n",
        ("tests/test_nn.py",),
    ),
    Mutant(
        "train: finite-loss check off",
        NN,
        "if not math.isfinite(loss):",
        "if False:",
        ("tests/test_nn.py",),
    ),
    Mutant(
        "run_experiment: except ArithmeticError in the cell loop",
        "src/pqprune/experiment.py",
        "                except Exception:\n",
        "                except ArithmeticError:\n",
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
        ("tests/test_data_io.py", "tests/test_config_cli.py"),
    ),
    Mutant(
        "gen_synthetic: cycle walk applies the inverse permutation",
        DATA_IO,
        "    perm = perm.tolist()\n",
        "    perm = np.argsort(perm).tolist()\n",
        ("tests/test_data_io.py",),
    ),
    Mutant(
        "gen_synthetic: spare row never written back",
        DATA_IO,
        "        X[i] = spare\n",
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
        "src/pqprune/records.py",
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
        "write_report: panels directory made before the trajectory stats",
        "src/pqprune/experiment.py",
        "    stats = trajectory_stats(records)  # before any write, so a failure writes nothing\n"
        "    out_dir = Path(out_dir)\n"
        "    out_dir.mkdir(parents=True, exist_ok=True)\n",
        "    out_dir = Path(out_dir)\n"
        "    out_dir.mkdir(parents=True, exist_ok=True)\n"
        "    stats = trajectory_stats(records)\n",
        ("tests/test_config_cli.py",),
    ),
    Mutant(
        "report: $PQI_PRUNE_OUT fallback",
        "src/pqprune/cli.py",
        "stats = write_report(args.run_dirs, args.out)",
        'stats = write_report(args.run_dirs, os.environ.get("PQI_PRUNE_OUT") or args.out)',
        ("tests/test_config_cli.py",),
    ),
    Mutant(
        "measure: input error without the file name",
        "src/pqprune/cli.py",
        'raise type(exc)(f"{args.file}: {exc}") from None',
        "raise",
        ("tests/test_config_cli.py",),
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
        "if hits.size and result.first_counterexample is None:",
        "if hits.size:",
        ("tests/test_audit.py",),
    ),
    Mutant(
        "pq_index: roots taken with numpy's array **",
        "src/pqprune/sparsity.py",
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
