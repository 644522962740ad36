"""Tests of the benchmark's own code: span arithmetic, wrapper installation,
and a reduced-size run of every workload.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import os
from pathlib import Path

import pytest

import run
import tracing
import workloads
from tracing import Span, Tracer, self_times

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def test_self_time_of_nested_call_tree():
    # root 0..10 with children a 1..4 (holding grandchild 2..3) and b 6..9;
    # a child c 9..12 overruns the root and counts only up to 10.
    spans = [
        Span("root", 0.0, 10.0, -1, "r"),
        Span("a", 1.0, 4.0, 0, "r"),
        Span("a.inner", 2.0, 3.0, 1, "r"),
        Span("b", 6.0, 9.0, 0, "r"),
        Span("c", 9.0, 12.0, 0, "r"),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.0, 3.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", 0.0, 10.0, -1, "r"),
        Span("x", 2.0, 6.0, 0, "r"),
        Span("y", 4.0, 8.0, 0, "r"),
    ]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_tracer_records_parent_links_and_layer_metrics():
    tracer = Tracer()
    inner = tracer.wrap("nn.loss_and_grads", lambda: None)

    def outer():
        inner()
        inner()

    tracer.wrap("nn.train", outer)()
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("nn.train", -1), ("nn.loss_and_grads", 0), ("nn.loss_and_grads", 0)]
    metrics = tracing.layer_metrics(tracer, untraced_s=0.0)
    assert metrics["nn.train.calls"] == 1
    assert metrics["nn.loss_and_grads.calls"] == 2
    busy = sum(s.end - s.start for s in tracer.spans[1:])
    assert metrics["nn.train.self_s"] == pytest.approx(
        metrics["nn.train.busy_s"] - busy
    )


def test_wrappers_installed_at_caller_names_and_restored():
    from pqprune import audit, cli, experiment, nn, pruning, sparsity

    originals = {
        (m.__name__, attr): getattr(m, attr)
        for m, attr in [
            (pruning, "pq_index"),
            (audit, "pq_index"),
            (cli, "eta_r"),
            (experiment, "run_pruning"),
            (experiment, "gen_synthetic"),
            (nn, "train"),
        ]
    }
    with tracing.installed(Tracer()):
        for (module_name, attr), original in originals.items():
            wrapped = getattr(__import__(module_name, fromlist=[attr]), attr)
            assert wrapped is not original
            assert wrapped.__wrapped__ is original
        # The defining module keeps its own binding; callers read their copy.
        assert sparsity.pq_index is originals[("pqprune.pruning", "pq_index")]
    for (module_name, attr), original in originals.items():
        assert getattr(__import__(module_name, fromlist=[attr]), attr) is original


def test_every_target_exists_where_it_is_wrapped():
    import importlib

    for module_name, attr, _, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(f"pqprune.{module_name}"), attr))


def test_benchmark_json_names_match_emitted_metrics():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(tracing.LAYER_METRICS)
    assert [m["unit"] for m in BENCHMARK["per_layer"]] == list(tracing.LAYER_METRICS.values())
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == workloads.WHY


def test_children_get_one_blas_thread_and_the_checkout_sources(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    env = run.child_env()
    assert env["OPENBLAS_NUM_THREADS"] == env["OMP_NUM_THREADS"] == env["MKL_NUM_THREADS"] == "1"
    assert env["PYTHONPATH"].split(os.pathsep)[0] == str(run.SRC)


def test_percentile_description_needs_ten_samples_beyond():
    assert "no percentile" in run.describe([1.0] * 9, "s")
    assert "p75" in run.describe([float(i) for i in range(40)], "s")
    assert "p90" in run.describe([float(i) for i in range(100)], "s")
    assert run.percentile([float(i) for i in range(1, 101)], 90) == 90.0


def _last_json(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), lines


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_small_run_emits_every_metric(name, trace, capsys):
    argv = ["--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv, small=True) == 0
    result, lines = _last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert any(line.startswith("env ") for line in lines)
    assert any(line.startswith("error_rate = 0 ") for line in lines)


def test_changed_output_fails_its_operation():
    judgement = workloads.Judgement()
    judgement.add("run_global/sap_seed0", [])
    judgement.fingerprints["run_global/sap_seed0/run.json"] = "new"
    run.check_fingerprints([judgement], {"run_global/sap_seed0/run.json": "old"})
    assert not judgement.ops[0].ok
    assert "fingerprint" in judgement.ops[0].why


def test_failed_check_is_counted(tmp_path):
    grid = workloads.Grid(scope="global", kinds=("sap",), seeds=(0,), iterations=1,
                          epochs=1, batch_size=50, n_samples=100, n_features=4,
                          n_classes=2, data_seed=0)
    judgement = workloads.check_run("run_global", grid, tmp_path / "missing", exit_code=1)
    assert [op.ok for op in judgement.ops] == [False, False]
