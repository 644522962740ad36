"""pqprune computes with one BLAS thread whatever the environment says:
importing `pqprune.nn` pins the OpenBLAS that numpy loaded."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from guard import PINNED_ENV

SRC = Path(__file__).resolve().parents[1] / "src"
# An MNIST-shaped grid: at this size the BLAS thread count changes the last
# bits of run.json, which the desk grid's bytes do not show.
MNIST_GRID = ("dataset.n_samples = 3000\ndataset.n_features = 784\ndataset.n_classes = 10\n"
              "scope = neuron_wise\nalgorithm.kinds = sap\nalgorithm.iterations = 2\n"
              "train.epochs = 1\ntrain.batch_size = 250\nseeds = 0,1\n")


def child_env(pinned: bool) -> dict[str, str]:
    """This process's environment with `src/` on the path, and the BLAS
    thread variables set to one thread if `pinned`, else removed."""
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return {**env, **PINNED_ENV} if pinned else env


def run_grid(root: Path, workers: int, pinned: bool) -> dict[str, bytes]:
    """`pqprune run` of MNIST_GRID at `workers` in a child process; the bytes
    of each run.json, iterations.csv and summary.csv, by path under the
    output root."""
    root.mkdir()
    (root / "grid.cfg").write_text(MNIST_GRID + f"workers = {workers}\n")
    proc = subprocess.run([sys.executable, "-m", "pqprune.cli", "run", "--config", "grid.cfg",
                           "--out", "out"], cwd=root, env=child_env(pinned), capture_output=True)
    assert proc.returncode == 0, proc.stderr
    out = root / "out"
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.name in ("run.json", "iterations.csv", "summary.csv")}


def test_grid_bytes_depend_on_neither_the_environment_nor_workers(tmp_path):
    pinned = run_grid(tmp_path / "pinned", workers=1, pinned=True)
    assert sorted(pinned) == ["sap_seed0/iterations.csv", "sap_seed0/run.json",
                              "sap_seed1/iterations.csv", "sap_seed1/run.json", "summary.csv"]
    assert run_grid(tmp_path / "unpinned", workers=1, pinned=False) == pinned
    assert run_grid(tmp_path / "unpinned_workers2", workers=2, pinned=False) == pinned


def test_bundled_openblas_runs_one_thread():
    # A child started without the BLAS thread variables: importing pqprune.cli pins it.
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"))
    if not libs:
        pytest.skip("numpy bundles no scipy-openblas library")
    code = ("import ctypes, sys, pqprune.cli; "
            "print(ctypes.CDLL(sys.argv[1]).scipy_openblas_get_num_threads64_())")
    proc = subprocess.run([sys.executable, "-c", code, str(libs[0])], env=child_env(False),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"
