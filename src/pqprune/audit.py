"""Randomized audit of the six axioms a sparsity measure should satisfy.

The six checks: robin_hood (a transfer from a larger to a smaller entry
lowers the measure), scaling (positive rescaling leaves it unchanged),
rising_tide (adding a constant to unequal entries lowers it), cloning
(concatenating a vector with itself leaves it unchanged), bill_gates
(growing a single entry eventually raises it monotonically), and babies
(appending a zero raises it).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
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


@dataclass(frozen=True)
class MeasureSpec:
    """A named sparsity measure: a pure function over magnitude vectors."""

    name: str
    evaluator: Callable[[np.ndarray], float]


def pq_measure(norms: NormPair) -> MeasureSpec:
    return MeasureSpec(
        name=f"pq_index(p={norms.p:g},q={norms.q:g})",
        evaluator=lambda w: pq_index(w, norms),
    )


def gini_measure() -> MeasureSpec:
    return MeasureSpec(name="gini_index", evaluator=gini_index)


@dataclass
class PropertyResult:
    property: str
    trials: int
    violations: int
    first_counterexample: list | None = None

    @property
    def ok(self) -> bool:
        return self.violations == 0


@dataclass
class PropertyReport:
    measure: str
    results: list[PropertyResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def total_violations(self) -> int:
        return sum(r.violations for r in self.results)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def _random_vector(rng: np.random.Generator) -> np.ndarray:
    d = int(rng.integers(2, 65))  # 2 to 64 entries
    w = np.abs(rng.standard_normal(d))
    # Guarantee a nonzero vector with at least two distinct entries.
    while w.max() == 0.0 or np.all(w == w.max()):
        w = np.abs(rng.standard_normal(d))
    return w


def audit_measure(
    measure: MeasureSpec,
    trials: int,
    seed: int = 0,
) -> PropertyReport:
    """Run `trials` randomized instantiations of each of the six axioms.

    Returns a report with per-property violation counts and the first
    counterexample vector found for each violated property.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    S = measure.evaluator
    counts = {name: 0 for name in PROPERTY_NAMES}
    first: dict[str, list | None] = {name: None for name in PROPERTY_NAMES}

    def record(name: str, w: np.ndarray):
        counts[name] += 1
        if first[name] is None:
            first[name] = [float(x) for x in w]

    for _ in range(trials):
        w = _random_vector(rng)
        base = S(w)

        # robin_hood: move alpha from a larger entry to a smaller one.
        i, j = _unequal_pair(rng, w)
        alpha = rng.uniform(0.0, (w[i] - w[j]) / 2.0)
        v = w.copy()
        v[i] -= alpha
        v[j] += alpha
        if S(v) - base > STRICTNESS_MARGIN:
            record("robin_hood", w)

        # scaling: S(alpha * w) == S(w) for alpha > 0.
        alpha = float(np.exp(rng.uniform(np.log(1e-6), np.log(1e6))))
        if abs(S(alpha * w) - base) > STRICTNESS_MARGIN:
            record("scaling", w)

        # rising_tide: adding a constant to unequal entries lowers S.
        alpha = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
        if S(w + alpha) - base > STRICTNESS_MARGIN:
            record("rising_tide", w)

        # cloning: S([w, w]) == S(w).
        if abs(S(np.concatenate([w, w])) - base) > STRICTNESS_MARGIN:
            record("cloning", w)

        # bill_gates: S strictly increases along a geometric growth grid
        # applied to one coordinate, starting from 10 * ||w||_1.
        i = int(rng.integers(w.size))
        grid = 10.0 * float(w.sum()) * 2.0 ** np.arange(6)
        values = []
        for alpha in grid:
            v = w.copy()
            v[i] += alpha
            values.append(S(v))
        if any(b - a < -STRICTNESS_MARGIN for a, b in zip(values, values[1:])):
            record("bill_gates", w)

        # babies: appending a zero raises S.
        if S(np.append(w, 0.0)) - base < -STRICTNESS_MARGIN:
            record("babies", w)

    return PropertyReport(
        measure=measure.name,
        results=[
            PropertyResult(
                property=name,
                trials=trials,
                violations=counts[name],
                first_counterexample=first[name],
            )
            for name in PROPERTY_NAMES
        ],
    )


def _unequal_pair(rng: np.random.Generator, w: np.ndarray) -> tuple[int, int]:
    """A random (i, j) with w[i] > w[j]; the caller guarantees one exists."""
    while True:
        i, j = rng.integers(w.size), rng.integers(w.size)
        if w[i] > w[j]:
            return int(i), int(j)
        if w[j] > w[i]:
            return int(j), int(i)


def robin_hood_counterexample(
    norms: NormPair, max_dim: int = 10_000
) -> dict | None:
    """Directed search for a robin_hood violation of the index at (p, q).

    Probes vectors [2, 1, c, ..., c] with a long tail of small entries,
    where the transfer derivative can turn positive outside the valid norm
    regime. Returns the witness (vector shape, transfer, index delta) or
    None if the search budget finds nothing.
    """
    for d in (10, 100, 1_000, 10_000):
        if d > max_dim:
            break
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
