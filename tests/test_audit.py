import hashlib
import io
import json
from contextlib import redirect_stdout

import pytest

from pqprune import audit, cli
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
        return (w > w.max(axis=-1, keepdims=True) / 2).sum(axis=-1) / w.shape[-1]

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


# sha256 of `audit --trials 300 --seed 11` stdout, taken from the scalar
# audit that measured one vector per call. The relaxed (2, 3) pair has
# robin_hood violations and counterexamples; the relaxed (0.3, 0.7) pair
# adds a found directed search.
AUDIT_GOLDEN = {
    "pq": (["--measure", "pq", "--p", "0.5", "--q", "1.0"],
           "0a14511b68f712e024a23a4b7c64441afa12d3ea601e1f3b46d9df08f0eb7ec9"),
    "gini": (["--measure", "gini"],
             "399771bb974c7569973d72273c0d6e4c90d7c1ba2a3fbcc615ab2528281ef76c"),
    "negative_2_3": (["--negative", "--p", "2", "--q", "3"],
                     "987218825098127945bade5abbd7c9ba7dad3fdd4be1b634e47c5185dddddf1f"),
    "negative_03_07": (["--negative", "--p", "0.3", "--q", "0.7"],
                       "f7844df1c2440e1dad75ae0907f6ce0aa7a445ddd03f999d0390700e9e61eb0f"),
}


def audit_stdout(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["audit", *argv, "--trials", "300", "--seed", "11"]) == 0
    return out.getvalue()


@pytest.mark.parametrize("name", AUDIT_GOLDEN)
def test_audit_stdout_is_unchanged(name):
    argv, digest = AUDIT_GOLDEN[name]
    assert hashlib.sha256(audit_stdout(argv).encode()).hexdigest() == digest


def test_small_chunks_give_the_same_report(monkeypatch):
    # 300 trials in chunks of 7: violations and first counterexamples that
    # fall in different chunks must add up as they do in one chunk.
    norms = NormPair(2.0, 3.0, relaxed=True)
    whole = audit_measure(pq_measure(norms), trials=300, seed=11)
    assert any(r.violations > 1 for r in whole.results)
    monkeypatch.setattr(audit, "AUDIT_CHUNK", 7)
    assert audit_measure(pq_measure(norms), trials=300, seed=11) == whole
