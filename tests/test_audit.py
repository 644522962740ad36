import json

import pytest

from pqprune.audit import (
    PROPERTY_NAMES,
    audit_measure,
    gini_measure,
    pq_measure,
    robin_hood_counterexample,
)
from pqprune.sparsity import NormPair, pq_index


def test_pq_valid_regime_clean():
    report = audit_measure(pq_measure(NormPair(0.5, 1.0)), trials=300, seed=1)
    assert report.ok
    assert {r.property for r in report.results} == set(PROPERTY_NAMES)
    assert all(r.trials == 300 for r in report.results)


def test_gini_clean():
    report = audit_measure(gini_measure(), trials=300, seed=1)
    assert report.ok


def test_broken_measure_is_caught():
    # l0-style count of nonzeros: fails scaling-invariance siblings such as
    # cloning normalization and the growth property.
    def l0(w):
        return float((w > w.max() / 2).sum()) / w.size

    from pqprune.audit import MeasureSpec

    report = audit_measure(MeasureSpec("l0ish", l0), trials=200, seed=2)
    assert not report.ok
    bad = [r for r in report.results if r.violations]
    assert bad
    assert all(r.first_counterexample is not None for r in bad)


def test_report_json_round_trip():
    report = audit_measure(pq_measure(NormPair(1.0, 2.0)), trials=50, seed=3)
    data = json.loads(report.to_json())
    assert data["measure"] == "pq_index(p=1,q=2)"
    assert len(data["results"]) == 6
    for entry in data["results"]:
        assert set(entry) == {"property", "trials", "violations", "first_counterexample"}


def test_trials_must_be_positive():
    with pytest.raises(ValueError):
        audit_measure(gini_measure(), trials=0)


def test_relaxed_pair_robin_hood_violation_found():
    norms = NormPair(0.3, 0.7, relaxed=True)
    witness = robin_hood_counterexample(norms)
    assert witness is not None
    # Replay the witness: the transfer must raise the index.
    import numpy as np

    w = np.concatenate([[2.0, 1.0], np.full(witness["d"] - 2, witness["tail_value"])])
    v = w.copy()
    v[0] -= witness["transfer"]
    v[1] += witness["transfer"]
    assert pq_index(v, norms) - pq_index(w, norms) > 1e-12


def test_valid_pair_search_inconclusive():
    # In the valid regime the directed search must come up empty.
    assert robin_hood_counterexample(NormPair(0.5, 1.0)) is None
