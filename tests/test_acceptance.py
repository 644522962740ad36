"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on stdout.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from pqprune import nn
from pqprune.audit import audit_measure, gini_measure, pq_measure
from pqprune.config import ExperimentConfig
from pqprune.data_io import read_run_record
from pqprune.experiment import (
    Cell,
    load_datasets,
    run_cell,
    run_experiment,
    summarize_records,
    trajectory_stats,
)
from pqprune.pruning import AlgorithmSpec, SapHyperParams, replay_count
from pqprune.sparsity import (
    NormPair,
    eta_r,
    pq_index,
    pqi_lower_bound,
)

PAIRS = [NormPair(0.5, 1.0), NormPair(1.0, 2.0), NormPair(0.5, 2.0)]


def check(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {description}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """The desk-scale experiment: MLP, synthetic blobs, SAP + Lottery Ticket,
    T=10, E=5, 4 seeds, persisted to disk."""
    out = tmp_path_factory.mktemp("desk")
    cfg = ExperimentConfig()
    cfg.algorithms = [AlgorithmSpec(kind, iterations=10) for kind in ("sap", "lottery_ticket")]
    start = time.monotonic()
    records = run_experiment(cfg, out_dir=out)
    elapsed = time.monotonic() - start
    return cfg, out, records, elapsed


def test_criterion_1_axiom_suite():
    start = time.monotonic()
    reports = [audit_measure(pq_measure(p), trials=1000, seed=0) for p in PAIRS]
    reports.append(audit_measure(gini_measure(), trials=1000, seed=0))
    elapsed = time.monotonic() - start
    violations = sum(r["violations"] for report in reports for r in report["results"])
    check(
        1,
        "six-axiom audit, PQI x3 pairs + Gini, 1000 trials each",
        violations == 0 and elapsed < 30.0,
        f"violations={violations}, {elapsed:.1f}s",
    )


def test_criterion_2_range():
    rng = np.random.default_rng(12)
    worst = 0.0
    for i in range(100_000):
        norms = PAIRS[i % 3]
        d = int(rng.integers(2, 65))
        w = np.abs(rng.standard_normal(d)) + 1e-12
        value = pq_index(w, norms)
        worst = max(worst, -value, value - (1 - d ** (1 / norms.q - 1 / norms.p)))
    exact_ok = True
    for norms in PAIRS:
        for d in (2, 17, 64):
            exact_ok &= abs(pq_index(np.full(d, 2.5), norms)) < 1e-12
            one_hot = np.zeros(d)
            one_hot[d // 2] = 3.0
            top = 1 - d ** (1 / norms.q - 1 / norms.p)
            exact_ok &= abs(pq_index(one_hot, norms) - top) < 1e-12
    check(
        2,
        "index range on 1e5 random vectors; uniform/one-hot exact",
        worst <= 1e-9 and exact_ok,
        f"worst overshoot={worst:.2e}",
    )


def test_criterion_3_bound_soundness():
    rng = np.random.default_rng(13)
    worst_slack = math.inf
    for i in range(1000):
        norms = PAIRS[i % 3]
        d = int(rng.integers(2, 65))
        w = np.abs(rng.standard_normal(d)) + 1e-12
        I = pq_index(w, norms)
        for r, eta in enumerate(eta_r(w, norms.p), 1):
            bound = pqi_lower_bound(d, I, eta, norms)
            worst_slack = min(worst_slack, r - bound)
    # The three worked bound examples, against independent closed forms.
    n = NormPair(0.5, 1.0)
    ex1 = pqi_lower_bound(4, 0.75, 0.0, n)
    I = pq_index([1, 2, 3, 4], n)
    ex2 = pqi_lower_bound(4, I, 0.0, n)
    eta = eta_r([1, 2, 3, 4], 0.5)[1]
    ex3 = pqi_lower_bound(4, I, eta, n)
    examples_ok = (
        abs(ex1 - 1.0) < 1e-4
        and abs(ex2 - 3.7776565705218195) / 3.7776565705218195 < 1e-4
        and abs(ex3 - 1.3928203230275509) / 1.3928203230275509 < 1e-4
    )
    check(
        3,
        "retention bound sound for every r on 1e3 vectors; worked examples to 4 digits",
        worst_slack >= -1e-9 and examples_ok,
        f"worst slack={worst_slack:.2e}",
    )


def test_criterion_4_gradient_check():
    specs = [
        nn.LayerSpec(5, 4),
        nn.LayerSpec(4, 3),
        nn.LayerSpec(3, 2),
    ]
    params = nn.init_network(specs, seed=21)
    rng = np.random.default_rng(21)
    labels = np.arange(16) % 2
    X = rng.standard_normal((16, 5))
    X[:, 0] += labels * 2.0
    grads = nn.NetworkParams(specs, np.empty_like(params.flat))
    scratch = nn.NetworkParams(specs, np.empty_like(params.flat))
    nn.loss_and_grads(params, X, labels, grads)
    step = 1e-5
    worst = 0.0
    for i in range(params.flat.size):  # every weight and bias, in one layout
        orig = params.flat[i]
        params.flat[i] = orig + step
        up = nn.loss_and_grads(params, X, labels, scratch)
        params.flat[i] = orig - step
        down = nn.loss_and_grads(params, X, labels, scratch)
        params.flat[i] = orig
        numeric = (up - down) / (2 * step)
        denom = max(abs(numeric), abs(grads.flat[i]), 1e-8)
        worst = max(worst, abs(numeric - grads.flat[i]) / denom)
    check(4, "analytic vs central-difference gradients", worst < 1e-4, f"worst rel err={worst:.2e}")


def test_criterion_5_baseline_schedule(desk_run):
    _, _, records, _ = desk_run
    ok = True
    for seed in range(4):
        rec = records[f"lottery_ticket_seed{seed}"]
        d = rec.iterations[0].d_t
        d0 = d
        for it in rec.iterations:
            if it.d_t != d or it.percent_remaining != d / d0:
                ok = False
            d = d - math.floor(0.2 * d)
    check(5, "lottery-ticket floor recursion reproduces logged counts exactly", ok)


def test_criterion_6_sap_replay(desk_run):
    _, out, records, _ = desk_run
    ok = True
    # The desk SAP cells, re-read from disk.
    for seed in range(4):
        rec = read_run_record(out / f"sap_seed{seed}")
        hp = Cell.from_echo(rec.config).alg.sap
        for it in rec.iterations:
            for entry in it.groups:
                if replay_count(entry, hp) != entry["c"]:
                    ok = False
    # Ablation cells over the gamma/eta axes.
    cfg = ExperimentConfig()
    cfg.dataset = dataclasses.replace(cfg.dataset, n_samples=400, n_features=10)
    data = load_datasets(cfg)
    for gamma in (0.5, 1.0, 2.0):
        for eta in (0.0, 1.0):
            hp = SapHyperParams(norms=NormPair(0.5, 1.0), eta=eta, gamma=gamma, beta=0.9)
            alg = AlgorithmSpec(kind="sap", iterations=5, sap=hp)
            rec = run_cell(Cell(alg, 0, cfg.scope, cfg.model, cfg.train), data)
            for it in rec.iterations:
                for entry in it.groups:
                    if replay_count(entry, hp) != entry["c"]:
                        ok = False
    check(6, "every logged SAP count replays exactly (incl. gamma/eta ablation)", ok)


def test_criterion_7_end_to_end_desk_run(desk_run):
    _, _, records, elapsed = desk_run
    saps = [records[f"sap_seed{s}"] for s in range(4)]
    dense = float(np.mean([r.iterations[0].acc_retrained for r in saps]))
    mean_rem = np.mean([[it.percent_remaining for it in r.iterations] for r in saps], axis=0)
    mean_acc = np.mean([[it.acc_retrained for it in r.iterations] for r in saps], axis=0)
    below = np.nonzero(mean_rem < 0.5)[0]
    reached = below.size > 0
    acc_ok = reached and mean_acc[below[0]] >= dense - 0.02
    check(
        7,
        "desk run: dense >= 0.95, SAP < 50% remaining within 0.02 of dense",
        dense >= 0.95 and reached and acc_ok and elapsed < 4 * 300.0,
        f"dense={dense:.3f}, remaining={mean_rem[-1]:.3f}, "
        f"acc@<50%={mean_acc[below[0]] if reached else float('nan'):.3f}, "
        f"elapsed={elapsed:.1f}s",
    )


def test_criterion_8_pqi_gini_alignment(desk_run):
    _, _, records, _ = desk_run
    saps = [records[f"sap_seed{s}"] for s in range(4)]
    stats = trajectory_stats(saps)
    rho = stats["spearman_pqi_gini"]
    # Soft criterion: the correlation is reported, not gated.
    aligned = rho >= 0.8
    print(
        f"[{'PASS' if aligned else 'SOFT'}] criterion 8: "
        f"PQI-Gini Spearman = {rho:.3f} (reported, threshold 0.8 not gated)"
    )
    assert math.isfinite(rho)


def test_criterion_9_persistence_replay(desk_run):
    cfg, out, _, _ = desk_run
    written = (out / "summary.csv").read_bytes()
    replayed = {}
    for alg in (a.kind for a in cfg.algorithms):
        for seed in cfg.seeds:
            name = f"{alg}_seed{seed}"
            replayed[name] = read_run_record(out / name)
    check(
        9,
        "summary.csv reproduces byte-identically from persisted records",
        summarize_records(replayed).encode() == written,
    )
