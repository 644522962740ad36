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


def pq_index_max(d: int, norms: NormPair) -> float:
    """Upper end of the index range: 1 - d^(1/q - 1/p), attained one-hot."""
    return 1.0 - d ** (1.0 / norms.q - 1.0 / norms.p)


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


def top_r_indices(w, r: int) -> np.ndarray:
    """Indices of the r largest magnitudes; ties go to the lowest index."""
    w = _as_magnitudes(w)
    if not (1 <= r <= w.size):
        raise ValueError(f"r must be in [1, {w.size}], got {r}")
    order = np.argsort(-w, kind="stable")
    return order[:r]


def eta_r(w, p: float, r: int | None = None):
    """Smallest eta with tail p-mass <= eta * head p-mass for the top-r set.

    Head is the r largest magnitudes (ties to the lowest index); returns the
    ratio of the remaining p-mass to the head p-mass. Zero when r = d.
    With ``r=None`` returns the array of eta_r for every r = 1..d, from one
    stable sort and two cumulative sums in O(d log d). The tail mass is
    summed from the smallest entry up rather than taken as total minus
    head, so it is exactly zero wherever only zeros remain.
    """
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    w = _as_magnitudes(w)
    if r is not None and not (1 <= r <= w.size):
        raise ValueError(f"r must be in [1, {w.size}], got {r}")
    m = float(w.max())
    if m == 0.0:
        raise UndefinedIndexError("eta undefined for all-zero vector")
    s = ((w / m) ** p)[top_r_indices(w, w.size)]
    head = np.cumsum(s)
    tail = np.zeros_like(s)
    tail[:-1] = np.cumsum(s[:0:-1])[::-1]
    curve = tail / head
    return curve if r is None else float(curve[r - 1])


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
