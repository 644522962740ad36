"""The benchmark's layer tracing (perfbench/tracing.py) wraps pqprune
functions by module and attribute name, and its probes read values from
their arguments and results; each probe must read live values, or a traced
benchmark run reports nonsense. perfbench/tests checks that every wrapped
name exists."""

import importlib.util
from pathlib import Path

import pytest

from pqprune import cli
from pqprune.data_io import read_run_record

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


@pytest.mark.parametrize("scope", ["global", "layer_wise", "neuron_wise"])
def test_probes_read_live_values(scope, tmp_path):
    tracing = load_tracing()
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        f"model = MLP\nscope = {scope}\ndataset.n_samples = 200\ndataset.n_features = 8\n"
        "algorithm.kinds = sap,one_shot\nalgorithm.iterations = 2\n"
        "train.epochs = 1\ntrain.batch_size = 50\nseeds = 0\n"
        "workers = 1\n"  # a tracer sees only this process's calls
    )
    with tracing.installed(tracing.Tracer()) as tracer:
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    metrics = tracing.layer_metrics(tracer, 0.0)
    assert 0.0 < metrics["nn.train.density"] <= 1.0
    assert metrics["pruning.partition.groups"] > 0
    assert metrics["nn.loss_and_grads.gflop"] > 0
    assert metrics["nn.train.calls"] > 0
    # Every round takes its magnitudes when it decides, one shot's rounds too;
    # the rounds after the first that prunes nothing repeat it undecided.
    decided = 0
    for kind in ("sap", "one_shot"):
        rec = read_run_record(tmp_path / "out" / f"{kind}_seed0")
        assert rec.completed
        pruned = [it.c_total > 0 for it in rec.iterations]
        decided += pruned.index(False) + 1 if False in pruned else len(pruned)
    assert metrics["nn.flatten_prunable.calls"] == decided
