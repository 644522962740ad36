"""Norm-ratio sparsity indices and the retention lower bound.

`pq_index` and `gini_index` reduce along the last axis: a 1-D vector gives
one Python float, and an (n, d) matrix gives an array with one value per
row, each equal bit for bit to the value of that row alone. `eta_r` takes
one 1-D vector. Signed inputs are accepted; absolute values are taken
internally. An all-zero vector or row has no defined index and raises
:class:`UndefinedIndexError`.
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


def _as_magnitudes(w, max_ndim: int = 1) -> np.ndarray:
    arr = np.asarray(w, dtype=float)
    if not 1 <= arr.ndim <= max_ndim or arr.size == 0:
        shapes = "1-D vector" if max_ndim == 1 else "1-D vector or 2-D matrix"
        raise ValueError(f"expected a non-empty {shapes}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite entry in magnitude vector")
    return np.abs(arr)


def _magnitude_rows(w) -> tuple[np.ndarray, bool]:
    """`w` as an (n, d) matrix of magnitudes, and whether it was 1-D (one row)."""
    arr = _as_magnitudes(w, max_ndim=2)
    return arr.reshape(-1, arr.shape[-1]), arr.ndim == 1


def pq_index(w, norms: NormPair) -> float | np.ndarray:
    """Sparsity index 1 - d^(1/q - 1/p) * ||w||_p / ||w||_q of each row.

    Lies in [0, 1 - d^(1/q - 1/p)] for the valid norm regime; 0 for a
    uniform vector, maximal for a one-hot vector. Larger means sparser.
    The roots and the scale are taken on Python floats, row by row:
    numpy's array ``**`` can differ from them in the last bit.
    """
    rows, one = _magnitude_rows(w)
    m = rows.max(axis=1, keepdims=True)
    if not m.all():
        raise UndefinedIndexError("index undefined for all-zero vector")
    s = rows / m
    sums_p = (s ** norms.p).sum(axis=1).tolist()
    sums_q = (s ** norms.q).sum(axis=1).tolist()
    root_p, root_q = 1.0 / norms.p, 1.0 / norms.q
    scale = rows.shape[1] ** (root_q - root_p)
    values = [1.0 - scale * a ** root_p / b ** root_q for a, b in zip(sums_p, sums_q)]
    return values[0] if one else np.array(values)


def gini_index(w) -> float | np.ndarray:
    """Gini index of each row of magnitudes, in [0, 1).

    Uses the sorted-magnitude form 1 - 2 * sum_k (w_(k)/||w||_1) *
    ((d - k + 1/2)/d) with w ascending; 0 for uniform, 1 - 1/d one-hot.
    """
    rows, one = _magnitude_rows(w)
    total = rows.sum(axis=1, keepdims=True)
    if not total.all():
        raise UndefinedIndexError("index undefined for all-zero vector")
    d = rows.shape[1]
    ordered = np.sort(rows, axis=1)
    k = np.arange(1, d + 1)
    values = 1.0 - 2.0 * ((ordered / total) * ((d - k + 0.5) / d)).sum(axis=1)
    return float(values[0]) if one else values


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
