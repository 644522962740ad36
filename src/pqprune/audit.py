"""Randomized audit of the six axioms a sparsity measure should satisfy.

The six checks: robin_hood (a transfer from a larger to a smaller entry
lowers the measure), scaling (positive rescaling leaves it unchanged),
rising_tide (adding a constant to unequal entries lowers it), cloning
(concatenating a vector with itself leaves it unchanged), bill_gates
(growing a single entry eventually raises it monotonically), and babies
(appending a zero raises it).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .sparsity import NormPair, gini_index, pq_index

# Strict inequalities are only counted as violated beyond this margin, so
# floating-point ties do not produce spurious failures.
STRICTNESS_MARGIN = 1e-12

PROPERTY_NAMES = (
    "robin_hood",
    "scaling",
    "rising_tide",
    "cloning",
    "bill_gates",
    "babies",
)


# A measure is a (name, evaluator) pair. The evaluator maps an (n, d) matrix
# of magnitudes to n values, one per row, each the value of that row alone.
Measure = tuple[str, Callable[[np.ndarray], np.ndarray]]


def pq_measure(norms: NormPair) -> Measure:
    return f"pq_index(p={norms.p:g},q={norms.q:g})", lambda w: pq_index(w, norms)


def gini_measure() -> Measure:
    return "gini_index", gini_index


def _random_vector(rng: np.random.Generator) -> np.ndarray:
    d = int(rng.integers(2, 65))  # 2 to 64 entries
    w = np.abs(rng.standard_normal(d))
    # Guarantee a nonzero vector with at least two distinct entries.
    while w.max() == 0.0 or np.all(w == w.max()):
        w = np.abs(rng.standard_normal(d))
    return w


# Trials drawn before each evaluation pass; memory stays flat for any `trials`.
AUDIT_CHUNK = 1000


def _draw_trial(rng: np.random.Generator) -> list[np.ndarray]:
    """One trial's vectors: the base w, then the vector each axiom compares
    with it (six for bill_gates). The audit draws from `rng` only here, so
    how the vectors are measured cannot move the random stream."""
    w = _random_vector(rng)

    # robin_hood: move alpha from a larger entry to a smaller one.
    i, j = _unequal_pair(rng, w)
    alpha = rng.uniform(0.0, (w[i] - w[j]) / 2.0)
    v = w.copy()
    v[i] -= alpha
    v[j] += alpha
    vectors = [w, v]

    # scaling: alpha * w for alpha > 0.
    alpha = float(np.exp(rng.uniform(np.log(1e-6), np.log(1e6))))
    vectors.append(alpha * w)

    # rising_tide: a constant added to unequal entries.
    alpha = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
    vectors.append(w + alpha)

    # cloning: [w, w].
    vectors.append(np.concatenate([w, w]))

    # bill_gates: one coordinate grown along a geometric grid, starting
    # from 10 * ||w||_1.
    i = int(rng.integers(w.size))
    grid = 10.0 * float(w.sum()) * 2.0 ** np.arange(6)
    for alpha in grid:
        v = w.copy()
        v[i] += alpha
        vectors.append(v)

    # babies: a zero appended.
    vectors.append(np.append(w, 0.0))
    return vectors


def _measure_all(S: Callable, vectors: list[np.ndarray]) -> np.ndarray:
    """S of every vector, in input order: one row-wise call per distinct length."""
    positions: dict[int, list[int]] = {}
    for k, v in enumerate(vectors):
        positions.setdefault(v.size, []).append(k)
    values = np.empty(len(vectors))
    for ks in positions.values():
        values[ks] = S(np.stack([vectors[k] for k in ks]))
    return values


def _violations(values: np.ndarray) -> dict[str, np.ndarray]:
    """For each axiom, which trials violate it; `values` holds one row per
    trial: S of each vector `_draw_trial` returned, in its order."""
    base = values[:, 0]
    return {
        "robin_hood": values[:, 1] - base > STRICTNESS_MARGIN,
        "scaling": np.abs(values[:, 2] - base) > STRICTNESS_MARGIN,
        "rising_tide": values[:, 3] - base > STRICTNESS_MARGIN,
        "cloning": np.abs(values[:, 4] - base) > STRICTNESS_MARGIN,
        # S must not fall anywhere along the growth grid.
        "bill_gates": np.any(np.diff(values[:, 5:11], axis=1) < -STRICTNESS_MARGIN, axis=1),
        "babies": values[:, 11] - base < -STRICTNESS_MARGIN,
    }


def audit_measure(measure: Measure, trials: int, seed: int = 0) -> dict:
    """Run `trials` randomized instantiations of each of the six axioms.

    Returns the report `pqprune audit` prints, a dict with the keys
    "measure" (the measure's name) and "results": one dict per axiom, in
    PROPERTY_NAMES order, with the keys "property", "trials", "violations"
    and "first_counterexample" (the base vector of the first violating
    trial as a list, or None). Trials are drawn AUDIT_CHUNK at a time, then
    measured together.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    name, evaluator = measure
    rng = np.random.default_rng(seed)
    results = [{"property": p, "trials": trials, "violations": 0, "first_counterexample": None}
               for p in PROPERTY_NAMES]
    for start in range(0, trials, AUDIT_CHUNK):
        drawn = [_draw_trial(rng) for _ in range(min(AUDIT_CHUNK, trials - start))]
        values = _measure_all(evaluator, [v for vectors in drawn for v in vectors])
        violated = _violations(values.reshape(len(drawn), -1))
        for result in results:
            hits = np.flatnonzero(violated[result["property"]])
            result["violations"] += hits.size
            if hits.size and result["first_counterexample"] is None:
                result["first_counterexample"] = drawn[hits[0]][0].tolist()
    return {"measure": name, "results": results}


def _unequal_pair(rng: np.random.Generator, w: np.ndarray) -> tuple[int, int]:
    """A random (i, j) with w[i] > w[j]; the caller guarantees one exists."""
    while True:
        i, j = rng.integers(w.size), rng.integers(w.size)
        if w[i] > w[j]:
            return int(i), int(j)
        if w[j] > w[i]:
            return int(j), int(i)


def robin_hood_counterexample(norms: NormPair) -> dict | None:
    """Directed search for a robin_hood violation of the index at (p, q).

    Probes vectors [2, 1, c, ..., c] with a long tail of small entries,
    where the transfer derivative can turn positive outside the valid norm
    regime. Returns the witness (vector shape, transfer, index delta) or
    None if the search budget finds nothing.
    """
    for d in (10, 100, 1_000, 10_000):
        for c in np.logspace(-6, 0, 13):
            w = np.concatenate([[2.0, 1.0], np.full(d - 2, c)])
            base = pq_index(w, norms)
            for alpha in (1e-4, 1e-3, 1e-2, 0.1, 0.25, 0.49):
                v = w.copy()
                v[0] -= alpha
                v[1] += alpha
                delta = pq_index(v, norms) - base
                if delta > STRICTNESS_MARGIN:
                    return {
                        "d": d,
                        "tail_value": float(c),
                        "transfer": float(alpha),
                        "index_delta": float(delta),
                    }
    return None
