"""The benchmark's layer tracing (perfbench/tracing.py) wraps pqprune
functions by module and attribute name, and its probes read values from
their arguments and results; each must keep working, or a traced
benchmark run fails or reports nonsense."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from pqprune import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_trace_target_is_callable():
    tracing = load_tracing()
    missing = [
        f"pqprune.{module}.{attr}"
        for module, attr, *_ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(f"pqprune.{module}"), attr, None))
    ]
    assert tracing.TARGETS
    assert missing == []


@pytest.mark.parametrize("scope", ["global", "layer_wise", "neuron_wise"])
def test_probes_read_live_values(scope, tmp_path):
    tracing = load_tracing()
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        f"model = MLP\nscope = {scope}\ndataset.n_samples = 200\ndataset.n_features = 8\n"
        "algorithm.kinds = sap,one_shot\nalgorithm.iterations = 2\n"
        "train.epochs = 1\ntrain.batch_size = 50\nseeds = 0\n"
    )
    with tracing.installed(tracing.Tracer()) as tracer:
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    metrics = tracing.layer_metrics(tracer, 0.0)
    assert 0.0 < metrics["nn.train.density"] <= 1.0
    assert metrics["pruning.partition.groups"] > 0
    assert metrics["nn.loss_and_grads.gflop"] > 0
    assert metrics["nn.train.calls"] > 0
    assert metrics["nn.flatten_prunable.calls"] == metrics["nn.train.calls"]
