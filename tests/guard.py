"""Byte guard: does the working tree write the same output bytes as REV?

    python tests/guard.py REV

The script checks REV out into a temporary local `git worktree`, runs one
fixed table of `pqprune` commands (COMMANDS) on REV's `src/` and then on the
working tree's, each in a child process with BLAS pinned to one thread, and
removes the worktree. It then prints, for every output of either side, its
sha256 and whether the two sides agree. The outputs are every file a command
writes, its stdout and its exit code. For a `run.json` that differs, it names
the top-level keys that differ, so a deliberate change to the config echo
reads "differs in: config".

It exits 0 when every output is the same, 1 otherwise. OpenBLAS kernels
differ between CPUs, so the guard holds no golden digests: it compares two
revisions on one machine. Tier-1 does not collect this file;
`tests/test_guard.py` checks that every config in the table parses.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
# The BLAS thread count changes output bytes; perfbench pins its children the same way.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
VECTOR = "vector_100k.txt"  # the input of `measure`, written into each side's directory


@dataclass(frozen=True)
class Command:
    name: str  # the command's output directory, if it writes files
    argv: tuple[str, ...]  # after `pqprune`, run in the side's directory
    config: str | None = None  # written to <name>.cfg for `run`


def grid(name: str, config: str, workers: int = 1) -> Command:
    argv = ("run", "--config", f"{name}.cfg", "--out", name, "--workers", str(workers))
    return Command(name, argv, config)


DESK = "algorithm.kinds = sap,lottery_ticket\n"  # every other setting at its default
MNIST = ("dataset.n_samples = 10000\ndataset.n_features = 784\ndataset.n_classes = 10\n"
         "train.batch_size = 250\ntrain.epochs = 1\nseeds = 0\n")

COMMANDS = [
    grid("desk", DESK),
    grid("desk_workers2", DESK, workers=2),
    grid("desk_one_shot", "algorithm.kinds = sap,lottery_ticket,one_shot\n"),
    *(grid(f"mnist_sap_{scope}",
           f"{MNIST}scope = {scope}\nalgorithm.kinds = sap\nalgorithm.iterations = 2\n")
      for scope in ("global", "layer_wise", "neuron_wise")),
    grid("sweep_one_shot_neuron_wise",
         f"{MNIST}scope = neuron_wise\nalgorithm.kinds = one_shot\nalgorithm.iterations = 30\n"),
    grid("mnist_all_kinds_neuron_wise",
         MNIST.replace("10000", "3000") + "scope = neuron_wise\n"
         "algorithm.kinds = sap,lottery_ticket,one_shot\nalgorithm.iterations = 12\n"),
    # Rounds that prune nothing: SAP's from t=2 and the baselines' from t=12.
    grid("linear_stalled",
         "model = Linear\nscope = layer_wise\nalgorithm.kinds = sap,lottery_ticket,one_shot\n"
         "algorithm.iterations = 30\nsap.eta = 50\nsap.gamma = 50\nseeds = 0,1\n"),
    Command("report_desk",
            ("report", *(f"desk/sap_seed{s}" for s in range(4)), "--out", "report_desk")),
    Command("measure_100k", ("measure", VECTOR)),
    Command("audit_pq", ("audit", "--measure", "pq")),
    Command("audit_gini", ("audit", "--measure", "gini")),
]


def run_side(src: Path, root: Path) -> dict[str, str]:
    """Run COMMANDS with `src` on the path, inside `root`; every output's
    label and digest (sha256 of its bytes; "exit N" for an exit code)."""
    root.mkdir()
    values = np.random.default_rng(0).laplace(size=100_000)
    (root / VECTOR).write_text("".join(f"{x!r}\n" for x in values.tolist()))
    env = {**os.environ, **PINNED_ENV, "PYTHONPATH": str(src)}
    outputs = {}
    for cmd in COMMANDS:
        if cmd.config is not None:
            (root / f"{cmd.name}.cfg").write_text(cmd.config)
        done = subprocess.run([sys.executable, "-m", "pqprune.cli", *cmd.argv], cwd=root,
                              env=env, capture_output=True)
        outputs[f"{cmd.name} exit code"] = f"exit {done.returncode}"
        outputs[f"{cmd.name} stdout"] = hashlib.sha256(done.stdout).hexdigest()
        out_dir = root / cmd.name
        for path in sorted(out_dir.rglob("*")) if out_dir.is_dir() else []:
            if path.is_file():
                label = str(path.relative_to(root))
                outputs[label] = hashlib.sha256(path.read_bytes()).hexdigest()
    return outputs


def differing_keys(a: Path, b: Path) -> list[str]:
    """The top-level keys whose values differ between two run.json files."""
    x, y = (json.loads(p.read_text()) for p in (a, b))
    return sorted(k for k in x.keys() | y.keys() if k not in x or k not in y or x[k] != y[k])


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    found = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet",
                            argv[0] + "^{commit}"], capture_output=True, text=True)
    if found.returncode != 0:
        print(f"error: {argv[0]} names no commit", file=sys.stderr)
        return 2
    rev = found.stdout.strip()
    with tempfile.TemporaryDirectory(prefix="pqprune-guard-") as tmp:
        tmp = Path(tmp)
        checkout = tmp / "rev"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(checkout), rev], check=True)
        try:
            sides = {}
            for side, src in (("rev", checkout / "src"), ("tree", ROOT / "src")):
                start = time.perf_counter()
                sides[side] = run_side(src, tmp / f"out_{side}")
                print(f"ran {len(COMMANDS)} commands on {side} in "
                      f"{time.perf_counter() - start:.1f} s", flush=True)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(checkout)], check=True)
        print(f"outputs of {rev[:12]} (rev) and the working tree (tree):")
        differ = 0
        for label in sorted(sides["rev"].keys() | sides["tree"].keys()):
            a, b = sides["rev"].get(label, "missing"), sides["tree"].get(label, "missing")
            if a == b:
                print(f"same  {a}  {label}")
                continue
            differ += 1
            print(f"DIFF  {label}\n        rev:  {a}\n        tree: {b}")
            if label.endswith("run.json") and "missing" not in (a, b):
                keys = differing_keys(tmp / "out_rev" / label, tmp / "out_tree" / label)
                print(f"        differs in: {', '.join(keys)}")
    print(f"{len(sides['rev'].keys() | sides['tree'].keys())} outputs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
