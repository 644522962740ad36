"""Byte guard: does the working tree write the same output bytes as REV?

    python tests/guard.py REV

The script checks REV out into a temporary local `git worktree`, runs one
fixed table of `pqprune` commands (COMMANDS) on REV's `src/` and then on the
working tree's, each in a child process with BLAS pinned to one thread, and
removes the worktree. Each side's directory first gets the commands'
inputs, drawn from fixed generators: a 100k-entry vector for `measure`
and an IDX image set for one grid. It then prints, for every output of
either side, its sha256 and whether the two sides agree. The outputs are
every file a command writes, its stdout and its exit code. For a
`run.json` that differs, it names the top-level keys that differ, so a
deliberate change to the config echo reads "differs in: config". Below
the digests it prints each command's peak RSS on both sides, taken with
`os.wait4`; the peaks are not outputs and never count as a difference.
Linux carries a process's peak RSS across fork and exec, so a command
whose own peak is below the guard's RSS when it started reads the
guard's RSS instead (about 48 MB on the first side, 50 MB on the second).

It exits 0 when every output is the same, 1 otherwise. OpenBLAS kernels
differ between CPUs, so the guard holds no golden digests: it compares two
revisions on one machine. Tier-1 does not collect this file;
`tests/test_guard.py` checks that every config in the table parses and
that the IDX grid's input loads.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
# The BLAS thread count changes output bytes. pqprune.nn pins OpenBLAS to one
# thread when imported, but a revision older than that pin reads it from the
# environment alone; perfbench pins its children the same way.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
VECTOR = "vector_100k.txt"  # the input of `measure`, written into each side's directory
IDX_ROWS = {"train": 600, "test": 150}  # images in each split of the IDX grid's input


@dataclass(frozen=True)
class Command:
    name: str  # the command's output directory, if it writes files
    argv: tuple[str, ...]  # after `pqprune`, run in the side's directory
    config: str | None = None  # written to <name>.cfg for `run`


def grid(name: str, config: str) -> Command:
    return Command(name, ("run", "--config", f"{name}.cfg", "--out", name), config)


DESK = "algorithm.kinds = sap,lottery_ticket\n"  # every other setting at its default
MNIST = ("dataset.n_samples = 10000\ndataset.n_features = 784\ndataset.n_classes = 10\n"
         "train.batch_size = 250\ntrain.epochs = 1\nseeds = 0\n")
IDX = "dataset.kind = idx\n" + "".join(f"dataset.{split}_{part} = {split}-{part}.idx\n"
                                       for split in IDX_ROWS for part in ("images", "labels"))

COMMANDS = [
    # The desk grid with its cells in the parent process, and in forked children.
    grid("desk", DESK + "workers = 1\n"),
    grid("desk_workers2", DESK + "workers = 2\n"),
    grid("desk_one_shot", "algorithm.kinds = sap,lottery_ticket,one_shot\n"),
    *(grid(f"mnist_sap_{scope}",
           f"{MNIST}scope = {scope}\nalgorithm.kinds = sap\nalgorithm.iterations = 2\n")
      for scope in ("global", "layer_wise", "neuron_wise")),
    grid("idx_layer_wise", f"{IDX}scope = layer_wise\nalgorithm.kinds = sap,lottery_ticket\n"
                           "algorithm.iterations = 4\nseeds = 0,1\n"),
    grid("sweep_one_shot_neuron_wise",
         f"{MNIST}scope = neuron_wise\nalgorithm.kinds = one_shot\nalgorithm.iterations = 30\n"),
    grid("mnist_all_kinds_neuron_wise",
         MNIST.replace("10000", "3000") + "scope = neuron_wise\n"
         "algorithm.kinds = sap,lottery_ticket,one_shot\nalgorithm.iterations = 12\n"),
    # Rounds that prune nothing: SAP's from t=2 and the baselines' from t=12.
    grid("linear_stalled",
         "model = Linear\nscope = layer_wise\nalgorithm.kinds = sap,lottery_ticket,one_shot\n"
         "algorithm.iterations = 30\nsap.eta = 50\nsap.gamma = 50\nseeds = 0,1\n"),
    # No --out: the grid lands in the default output root, runs/.
    Command("runs", ("run", "--config", "runs.cfg"),
            "model = Linear\nalgorithm.kinds = sap,one_shot\nseeds = 0,1\n"),
    Command("report_desk",
            ("report", *(f"desk/sap_seed{s}" for s in range(4)), "--out", "report_desk")),
    Command("measure_100k", ("measure", VECTOR)),
    Command("audit_pq", ("audit", "--measure", "pq")),
    Command("audit_gini", ("audit", "--measure", "gini")),
    # Nonzero violation counts, their first counterexamples and the directed search.
    Command("audit_negative", ("audit", "--negative", "--p", "2", "--q", "3", "--trials", "300")),
]


def write_idx(root: Path) -> None:
    """The IDX grid's input in `root`: for each split, an image file of 8 x 8
    pixels and a label file in three classes, each class brighter in its
    own two rows, drawn from a fixed generator."""
    rng = np.random.default_rng(0)
    for split, n in IDX_ROWS.items():
        labels = rng.integers(0, 3, n, dtype=np.uint8)
        images = rng.integers(0, 128, (n, 8, 8), dtype=np.uint8)
        images[np.arange(n)[:, None], 2 * labels[:, None] + [0, 1]] += 12
        (root / f"{split}-images.idx").write_bytes(
            struct.pack(">IIII", 0x803, n, 8, 8) + images.tobytes())
        (root / f"{split}-labels.idx").write_bytes(struct.pack(">II", 0x801, n) + labels.tobytes())


def run_command(argv: list[str], cwd: Path, env: dict[str, str]) -> tuple[int, bytes, float]:
    """(exit code, stdout, peak RSS in MB) of one child, its rusage taken
    with os.wait4 as perfbench's `run_child` takes it; the peak is at least
    the guard's RSS when the child started."""
    with tempfile.TemporaryFile() as out:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return proc.returncode, out.read(), usage.ru_maxrss / 1024.0  # Linux reports kB


def run_side(src: Path, root: Path) -> tuple[dict[str, str], dict[str, float]]:
    """Run COMMANDS with `src` on the path, inside `root`. Returns every
    output's label and digest (sha256 of its bytes; "exit N" for an exit
    code), and each command's peak RSS in MB."""
    root.mkdir()
    values = np.random.default_rng(0).laplace(size=100_000)
    (root / VECTOR).write_text("".join(f"{x!r}\n" for x in values.tolist()))
    write_idx(root)
    # Without PQI_PRUNE_OUT, which older revisions read as run's output root.
    env = {**{k: v for k, v in os.environ.items() if k != "PQI_PRUNE_OUT"}, **PINNED_ENV,
           "PYTHONPATH": str(src)}
    outputs, peaks = {}, {}
    for cmd in COMMANDS:
        if cmd.config is not None:
            (root / f"{cmd.name}.cfg").write_text(cmd.config)
        code, stdout, peaks[cmd.name] = run_command(
            [sys.executable, "-m", "pqprune.cli", *cmd.argv], root, env)
        outputs[f"{cmd.name} exit code"] = f"exit {code}"
        outputs[f"{cmd.name} stdout"] = hashlib.sha256(stdout).hexdigest()
        out_dir = root / cmd.name
        for path in sorted(out_dir.rglob("*")) if out_dir.is_dir() else []:
            if path.is_file():
                label = str(path.relative_to(root))
                outputs[label] = hashlib.sha256(path.read_bytes()).hexdigest()
    return outputs, peaks


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
            sides, peaks = {}, {}
            for side, src in (("rev", checkout / "src"), ("tree", ROOT / "src")):
                start = time.perf_counter()
                sides[side], peaks[side] = run_side(src, tmp / f"out_{side}")
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
    print("peak RSS of each command, rev -> tree (not compared):")
    for cmd in COMMANDS:
        rev_mb, tree_mb = peaks["rev"][cmd.name], peaks["tree"][cmd.name]
        print(f"  {rev_mb:8.2f} -> {tree_mb:8.2f} MB ({tree_mb - rev_mb:+.2f})  {cmd.name}")
    print(f"{len(sides['rev'].keys() | sides['tree'].keys())} outputs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
