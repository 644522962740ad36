"""Norm-ratio sparsity indices and the retention lower bound.

All functions operate on 1-D vectors of magnitudes. Signed inputs are
accepted; absolute values are taken internally. An all-zero vector has no
defined index and raises :class:`UndefinedIndexError`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class UndefinedIndexError(ValueError):
    """Sparsity index requested for an all-zero vector."""


@dataclass(frozen=True)
class NormPair:
    """A (p, q) norm pair. The valid regime is 0 < p <= 1 <= q with p < q.

    ``relaxed=True`` admits any 0 < p < q; this exists only so the axiom
    auditor can probe pairs outside the valid regime.
    """

    p: float
    q: float
    relaxed: bool = False

    def __post_init__(self):
        if not (0.0 < self.p < self.q):
            raise ValueError(f"need 0 < p < q, got p={self.p}, q={self.q}")
        if not self.relaxed and not (self.p <= 1.0 <= self.q):
            raise ValueError(
                f"need 0 < p <= 1 <= q, got p={self.p}, q={self.q} "
                "(use relaxed=True to bypass)"
            )


def _as_magnitudes(w) -> np.ndarray:
    arr = np.asarray(w, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a non-empty 1-D vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite entry in magnitude vector")
    return np.abs(arr)


def pq_index(w, norms: NormPair) -> float:
    """Sparsity index 1 - d^(1/q - 1/p) * ||w||_p / ||w||_q.

    Lies in [0, 1 - d^(1/q - 1/p)] for the valid norm regime; 0 for a
    uniform vector, maximal for a one-hot vector. Larger means sparser.
    """
    w = _as_magnitudes(w)
    m = float(w.max())
    if m == 0.0:
        raise UndefinedIndexError("index undefined for all-zero vector")
    d = w.size
    s = w / m
    ratio_p = float(np.sum(s ** norms.p)) ** (1.0 / norms.p)
    ratio_q = float(np.sum(s ** norms.q)) ** (1.0 / norms.q)
    return 1.0 - d ** (1.0 / norms.q - 1.0 / norms.p) * ratio_p / ratio_q


def gini_index(w) -> float:
    """Gini index of a magnitude vector, in [0, 1).

    Uses the sorted-magnitude form 1 - 2 * sum_k (w_(k)/||w||_1) *
    ((d - k + 1/2)/d) with w ascending; 0 for uniform, 1 - 1/d one-hot.
    """
    w = _as_magnitudes(w)
    total = float(w.sum())
    if total == 0.0:
        raise UndefinedIndexError("index undefined for all-zero vector")
    d = w.size
    ordered = np.sort(w)
    k = np.arange(1, d + 1)
    return 1.0 - 2.0 * float(np.sum((ordered / total) * ((d - k + 0.5) / d)))


def eta_r(w, p: float) -> np.ndarray:
    """Smallest eta with tail p-mass <= eta * head p-mass, for every r = 1..d.

    Entry r - 1 is the ratio of the p-mass outside the r largest magnitudes
    (the tail) to the p-mass of those r (the head); zero at r = d. One sort
    and two cumulative sums, O(d log d). The tail mass is summed from the
    smallest entry up rather than taken as total minus head, so it is
    exactly zero wherever only zeros remain.
    """
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    w = _as_magnitudes(w)
    m = float(w.max())
    if m == 0.0:
        raise UndefinedIndexError("eta undefined for all-zero vector")
    s = (np.sort(w)[::-1] / m) ** p
    head = np.cumsum(s)
    tail = np.zeros_like(s)
    tail[:-1] = np.cumsum(s[:0:-1])[::-1]
    return tail / head


def pqi_lower_bound(d: int, index_value: float, eta: float, norms: NormPair) -> float:
    """Lower bound on the number of retained entries implied by the index.

    Returns d * (1 + eta)^(-q/(q-p)) * (1 - index)^(qp/(q-p)); any top-r
    head with tail/head ratio eta must have r at least this large.
    """
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    if eta < 0:
        raise ValueError(f"eta must be non-negative, got {eta}")
    p, q = norms.p, norms.q
    return (
        d
        * (1.0 + eta) ** (-q / (q - p))
        * (1.0 - index_value) ** (q * p / (q - p))
    )
