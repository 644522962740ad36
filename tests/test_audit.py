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
    assert [r["property"] for r in report["results"]] == list(PROPERTY_NAMES)
    assert all(r["trials"] == 300 for r in report["results"])
    assert all(r["violations"] == 0 for r in report["results"])


def test_gini_clean():
    report = audit_measure(gini_measure(), trials=300, seed=1)
    assert all(r["violations"] == 0 for r in report["results"])


def test_broken_measure_is_caught():
    # l0-style count of nonzeros: fails scaling-invariance siblings such as
    # cloning normalization and the growth property.
    def l0(w):
        return (w > w.max(axis=-1, keepdims=True) / 2).sum(axis=-1) / w.shape[-1]

    report = audit_measure(("l0ish", l0), trials=200, seed=2)
    assert report["measure"] == "l0ish"
    bad = [r for r in report["results"] if r["violations"]]
    assert bad
    assert all(r["first_counterexample"] is not None for r in bad)


def test_report_json_round_trip():
    report = audit_measure(pq_measure(NormPair(1.0, 2.0)), trials=50, seed=3)
    data = json.loads(json.dumps(report))
    assert data == report
    assert list(data) == ["measure", "results"]
    assert data["measure"] == "pq_index(p=1,q=2)"
    assert len(data["results"]) == 6
    for entry in data["results"]:
        assert list(entry) == ["property", "trials", "violations", "first_counterexample"]


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
# robin_hood violations and counterexamples, and its verdict reports the
# first of them (retaken when the verdict stopped ignoring the random
# trials); the relaxed (0.3, 0.7) pair adds a found directed search.
AUDIT_GOLDEN = {
    "pq": (["--measure", "pq", "--p", "0.5", "--q", "1.0"],
           "0a14511b68f712e024a23a4b7c64441afa12d3ea601e1f3b46d9df08f0eb7ec9"),
    "gini": (["--measure", "gini"],
             "399771bb974c7569973d72273c0d6e4c90d7c1ba2a3fbcc615ab2528281ef76c"),
    "negative_2_3": (["--negative", "--p", "2", "--q", "3"],
                     "d220f1415d30f71608ba63eeb9cd51c93687dfecc3aacd4c7884f3ef675d1336"),
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


def test_negative_verdict_names_the_search_that_found_the_witness():
    def negative(p, q):
        report, verdict, _ = audit_stdout(["--negative", "--p", p, "--q", q]).rsplit("\n", 2)
        [robin_hood] = [r for r in json.loads(report)["results"] if r["property"] == "robin_hood"]
        return robin_hood, verdict

    # At (2, 3) only the random trials break robin_hood; the verdict said
    # "inconclusive" under a report of 144 violations.
    robin_hood, verdict = negative("2", "3")
    assert robin_hood["violations"] == 144
    prefix = "negative robin_hood search: found by the random trials "
    assert verdict.startswith(prefix)
    assert json.loads(verdict[len(prefix):]) == robin_hood["first_counterexample"]
    # At (0.3, 0.7) only the directed search does.
    robin_hood, verdict = negative("0.3", "0.7")
    assert robin_hood["violations"] == 0
    witness = robin_hood_counterexample(NormPair(0.3, 0.7, relaxed=True))
    assert witness["d"] == 100
    assert verdict == f"negative robin_hood search: found {json.dumps(witness)}"
    # At (0.9, 0.95) neither does.
    robin_hood, verdict = negative("0.9", "0.95")
    assert robin_hood["violations"] == 0
    assert verdict == "negative robin_hood search: inconclusive"


def test_small_chunks_give_the_same_report(monkeypatch):
    # 300 trials in chunks of 7: violations and first counterexamples that
    # fall in different chunks must add up as they do in one chunk.
    norms = NormPair(2.0, 3.0, relaxed=True)
    whole = audit_measure(pq_measure(norms), trials=300, seed=11)
    assert any(r["violations"] > 1 for r in whole["results"])
    monkeypatch.setattr(audit, "AUDIT_CHUNK", 7)
    assert audit_measure(pq_measure(norms), trials=300, seed=11) == whole
