import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_nn import traced_peak

from pqprune.sparsity import (
    NormPair,
    UndefinedIndexError,
    eta_r,
    gini_index,
    pq_index,
    pqi_lower_bound,
)

PQ05_1 = NormPair(0.5, 1.0)

# High-precision direct evaluation of the index formula for [1,2,3,4]:
# ||w||_0.5 = (1 + sqrt(2) + sqrt(3) + 2)^2, ||w||_1 = 10, scale 4^-1.
PQI_1234 = 0.055585857369545244


class TestNormPair:
    def test_valid_regime(self):
        NormPair(0.5, 1.0)
        NormPair(1.0, 2.0)
        NormPair(0.5, 2.0)

    def test_invalid_without_relaxed(self):
        with pytest.raises(ValueError):
            NormPair(0.3, 0.7)
        with pytest.raises(ValueError):
            NormPair(1.5, 2.0)

    def test_relaxed_allows_any_ordered_pair(self):
        NormPair(0.3, 0.7, relaxed=True)
        with pytest.raises(ValueError):
            NormPair(0.7, 0.3, relaxed=True)


class TestPqIndex:
    def test_uniform_is_zero(self):
        for d in (2, 7, 64):
            assert pq_index(np.full(d, 3.7), PQ05_1) == pytest.approx(0.0, abs=1e-12)

    def test_one_hot_attains_max(self):
        w = [0, 0, 0, 1]
        assert pq_index(w, PQ05_1) == pytest.approx(0.75, abs=1e-12)
        assert 1 - 4 ** (1 / PQ05_1.q - 1 / PQ05_1.p) == pytest.approx(0.75, abs=1e-12)

    def test_frozen_oracle_1234(self):
        assert pq_index([1, 2, 3, 4], PQ05_1) == pytest.approx(PQI_1234, abs=1e-12)

    def test_all_zero_undefined(self):
        with pytest.raises(UndefinedIndexError):
            pq_index([0.0, 0.0], PQ05_1)

    def test_signed_entries_use_magnitudes(self):
        assert pq_index([-1, 2, -3, 4], PQ05_1) == pytest.approx(PQI_1234, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            pq_index([], PQ05_1)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            pq_index([1.0, float("nan")], PQ05_1)


class TestGiniIndex:
    def test_uniform_is_zero(self):
        for d in (2, 5, 33):
            assert gini_index(np.full(d, 1.3)) == pytest.approx(0.0, abs=1e-12)

    def test_one_hot_closed_form(self):
        # 1 - 1/d, cross-checked by Lorenz-curve integration below
        assert gini_index([0, 0, 0, 1]) == pytest.approx(0.75, abs=1e-12)

    def test_1234_hand_evaluation(self):
        assert gini_index([1, 2, 3, 4]) == pytest.approx(0.25, abs=1e-12)

    def test_matches_lorenz_curve_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            w = np.sort(np.abs(rng.standard_normal(rng.integers(2, 40))))
            # Brute-force Gini: mean absolute difference / (2 * mean)
            diffs = np.abs(w[:, None] - w[None, :])
            oracle = diffs.mean() / (2.0 * w.mean())
            assert gini_index(w) == pytest.approx(oracle, abs=1e-10)

    def test_all_zero_undefined(self):
        with pytest.raises(UndefinedIndexError):
            gini_index([0.0, 0.0, 0.0])


class TestEtaR:
    def test_one_hot_empty_tail(self):
        assert eta_r([0, 0, 1, 0], 0.5)[0] == 0.0

    @pytest.mark.parametrize("p", [0.0, -0.5])
    def test_nonpositive_p_rejected(self, p):
        with pytest.raises(ValueError, match=f"^p must be positive, got {p}$"):
            eta_r([1, 2], p)

    def test_tail_head_ratio_p1(self):
        assert eta_r([1, 2, 3, 4], 1.0)[1] == pytest.approx(3 / 7, abs=1e-12)

    def test_tail_head_ratio_p_half(self):
        expected = (1 + math.sqrt(2)) / (math.sqrt(3) + 2)
        assert eta_r([1, 2, 3, 4], 0.5)[1] == pytest.approx(expected, abs=1e-12)

    def test_full_r_is_zero(self):
        assert eta_r([1, 2, 3], 0.5)[2] == 0.0

    def test_tied_magnitudes_match_reference(self):
        w = [0.2, -0.2, 1.0, 0.2, 0.0]
        curve = eta_r(w, 0.5)
        for r in range(1, 6):
            assert curve[r - 1] == pytest.approx(reference_eta_r(w, 0.5, r), abs=1e-12)


def reference_eta_r(w, p, r, exact=False):
    """eta_r for one r as first written: the p-mass of the top-r head, the
    tail as total minus head. `exact` does the sums in rationals."""
    w = np.abs(np.asarray(w, dtype=float))
    s = (w / w.max()) ** p
    head = np.argsort(-w, kind="stable")[:r]  # ties go to the lowest index
    if exact:
        head_mass = sum(Fraction(x) for x in s[head])
        return (sum(Fraction(x) for x in s) - head_mass) / head_mass
    head_mass = float(s[head].sum())
    tail_mass = float(s.sum()) - head_mass
    return max(tail_mass, 0.0) / head_mass


def tied_and_zero_vectors(seed, count, max_d):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.integers(1, max_d))
        w = rng.laplace(size=d)
        w[rng.random(d) < 0.3] = 0.0
        w[rng.random(d) < 0.3] = w[0]
        w[int(rng.integers(d))] = 1.5  # never all zero
        yield w


class TestEtaCurve:
    @pytest.mark.parametrize("p", [0.25, 0.5, 1.0, 2.0])
    def test_matches_per_r_reference(self, p):
        # The reference takes the tail as total minus head, so its rounding
        # error is relative to the total mass (1 + eta), not to eta: where
        # only zeros remain it can leave ~1e-16 in place of 0.
        for w in tied_and_zero_vectors(5, 60, 300):
            curve = eta_r(w, p)
            ref = np.array([reference_eta_r(w, p, r) for r in range(1, w.size + 1)])
            assert curve.shape == (w.size,)
            assert np.all(np.abs(curve - ref) <= 1e-12 * (1.0 + ref))

    @pytest.mark.parametrize("p", [0.5, 1.0])
    def test_relative_error_against_exact_sums(self, p):
        for w in tied_and_zero_vectors(6, 25, 60):
            curve = eta_r(w, p)
            for r in range(1, w.size + 1):
                exact = reference_eta_r(w, p, r, exact=True)
                if exact == 0:
                    assert curve[r - 1] == 0.0
                else:
                    assert abs(Fraction(curve[r - 1]) / exact - 1) <= 1e-12

    def test_full_r_exactly_zero(self):
        for w in tied_and_zero_vectors(7, 40, 500):
            for p in (0.5, 1.0):
                assert eta_r(w, p)[-1] == 0.0

    def test_all_zero_undefined(self):
        with pytest.raises(UndefinedIndexError):
            eta_r([0.0, 0.0], 0.5)


def oracle_pq_index(w, norms):
    """pq_index of one 1-D vector, as the scalar formula was first written."""
    w = np.abs(np.asarray(w, dtype=float))
    s = w / float(w.max())
    ratio_p = float(np.sum(s ** norms.p)) ** (1.0 / norms.p)
    ratio_q = float(np.sum(s ** norms.q)) ** (1.0 / norms.q)
    return 1.0 - w.size ** (1.0 / norms.q - 1.0 / norms.p) * ratio_p / ratio_q


def oracle_gini_index(w):
    """gini_index of one 1-D vector, as the scalar formula was first written."""
    w = np.abs(np.asarray(w, dtype=float))
    total = float(w.sum())
    d = w.size
    k = np.arange(1, d + 1)
    return 1.0 - 2.0 * float(np.sum((np.sort(w) / total) * ((d - k + 0.5) / d)))


# Pairs whose roots 1/p and 1/q are not exact powers of two, so a root
# taken another way shows up in the last bit.
ROW_PAIRS = [
    NormPair(0.5, 1.0),
    NormPair(1.0, 3.0),
    NormPair(0.5, 2.0),
    NormPair(2.0, 3.0, relaxed=True),
    NormPair(0.3, 0.7, relaxed=True),
]

# Every width from 1 to 200, a 784-input neuron, and rows as long as the
# desk MLP's and the MNIST-shaped MLP's flat weights.
ROW_SHAPES = [(8, d) for d in range(1, 201)] + [(8, 784), (4, 35_840), (2, 135_680)]


def tied_and_zero_matrices(seed):
    """Signed matrices with shared values and zeros; no row is all zero."""
    rng = np.random.default_rng(seed)
    for n, d in ROW_SHAPES:
        W = rng.laplace(size=(n, d))
        W[rng.random((n, d)) < 0.3] = 0.0
        W[rng.random((n, d)) < 0.3] = 0.75
        W[np.arange(n), rng.integers(d, size=n)] = -1.5
        yield W


class TestRowwise:
    def test_pq_rows_equal_one_row_calls_and_the_oracle(self):
        for W in tied_and_zero_matrices(8):
            for norms in ROW_PAIRS:
                rows = pq_index(W, norms)
                assert rows.shape == (W.shape[0],)
                for k, w in enumerate(W):
                    one = pq_index(w, norms)
                    assert type(one) is float
                    assert one == oracle_pq_index(w, norms)
                    assert rows[k] == one

    def test_gini_rows_equal_one_row_calls_and_the_oracle(self):
        for W in tied_and_zero_matrices(9):
            rows = gini_index(W)
            assert rows.shape == (W.shape[0],)
            for k, w in enumerate(W):
                one = gini_index(w)
                assert type(one) is float
                assert one == oracle_gini_index(w)
                assert rows[k] == one

    @pytest.mark.parametrize("index", [lambda w: pq_index(w, PQ05_1), gini_index])
    @pytest.mark.parametrize(
        "w, message",
        [
            (np.zeros((3, 0)), "non-empty"),
            (np.zeros((0, 3)), "non-empty"),
            (np.ones((2, 2, 2)), "non-empty 1-D vector or 2-D matrix"),
            ([[1.0, 2.0], [3.0, np.inf]], "non-finite"),
        ],
        ids=["no_columns", "no_rows", "3d", "nonfinite"],
    )
    def test_bad_shapes_and_values_rejected(self, index, w, message):
        with pytest.raises(ValueError, match=message):
            index(w)

    @pytest.mark.parametrize("index", [lambda w: pq_index(w, PQ05_1), gini_index])
    def test_all_zero_row_undefined(self, index):
        with pytest.raises(UndefinedIndexError):
            index([[1.0, 2.0], [0.0, 0.0]])

    def test_eta_r_takes_one_vector(self):
        with pytest.raises(ValueError, match="non-empty 1-D vector"):
            eta_r([[1.0, 2.0], [3.0, 4.0]], 0.5)


class TestInPlace:
    """The indices divide, power and sort one private copy of the magnitudes."""

    @pytest.mark.parametrize(
        "index",
        [lambda w: pq_index(w, PQ05_1), lambda w: pq_index(w, NormPair(0.5, 2.0)), gini_index],
        ids=["pq_05_1", "pq_05_2", "gini"],
    )
    def test_caller_array_unchanged(self, index):
        for W in tied_and_zero_matrices(10):
            for w in (W, W[-1], np.abs(W)):
                before = w.copy()
                index(w)
                np.testing.assert_array_equal(w, before)

    # The MNIST-shaped MLP's weights as one vector: a whole-vector temporary
    # is 1.09 MB. The private copy is one, and the Gini rank weights or the
    # powers to q another; a quarter of a vector is the margin.
    @pytest.mark.parametrize(
        "index", [lambda w: pq_index(w, PQ05_1), gini_index], ids=["pq", "gini"]
    )
    def test_peak_is_two_vectors(self, index):
        w = np.random.default_rng(0).laplace(size=135_680)
        assert traced_peak(index, w) <= 2 * w.nbytes + w.nbytes // 4


class TestLowerBound:
    def test_sparsest_case_equality(self):
        assert pqi_lower_bound(4, 0.75, 0.0, PQ05_1) == pytest.approx(1.0, abs=1e-12)

    def test_eta_zero_1234(self):
        I = pq_index([1, 2, 3, 4], PQ05_1)
        assert pqi_lower_bound(4, I, 0.0, PQ05_1) == pytest.approx(
            3.7776565705218195, rel=1e-9
        )

    def test_eta_r2_1234(self):
        I = pq_index([1, 2, 3, 4], PQ05_1)
        eta = eta_r([1, 2, 3, 4], 0.5)[1]
        # Direct arithmetic oracle: 4 * (1 + eta)^-2 * (1 - I)
        oracle = 4 * (1 + eta) ** -2 * (1 - I)
        got = pqi_lower_bound(4, I, eta, PQ05_1)
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(1.3928203230275509, rel=1e-9)

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError):
            pqi_lower_bound(4, 0.5, -0.1, PQ05_1)

    def test_no_entries_rejected(self):
        with pytest.raises(ValueError, match="^d must be positive, got 0$"):
            pqi_lower_bound(0, 0.5, 0.0, PQ05_1)


finite_vectors = st.lists(
    st.floats(min_value=1e-6, max_value=1e3), min_size=2, max_size=64
).map(np.array)

valid_pairs = st.sampled_from(
    [NormPair(0.5, 1.0), NormPair(1.0, 2.0), NormPair(0.5, 2.0), NormPair(0.25, 4.0)]
)


@given(w=finite_vectors, norms=valid_pairs)
@settings(max_examples=200)
def test_range_holder(w, norms):
    value = pq_index(w, norms)
    assert -1e-9 <= value <= 1 - w.size ** (1 / norms.q - 1 / norms.p) + 1e-9


@given(w=finite_vectors, norms=valid_pairs, log_alpha=st.floats(-6, 6))
@settings(max_examples=200)
def test_scaling_exactness(w, norms, log_alpha):
    alpha = 10.0 ** log_alpha
    assert abs(pq_index(alpha * w, norms) - pq_index(w, norms)) < 1e-12


@given(w=finite_vectors, norms=valid_pairs)
@settings(max_examples=200)
def test_cloning_exactness(w, norms):
    doubled = np.concatenate([w, w])
    assert abs(pq_index(doubled, norms) - pq_index(w, norms)) < 1e-9


@given(w=finite_vectors, norms=valid_pairs)
@settings(max_examples=100)
def test_bound_soundness_all_r(w, norms):
    I = pq_index(w, norms)
    for r, eta in enumerate(eta_r(w, norms.p), 1):
        assert r >= pqi_lower_bound(w.size, I, eta, norms) - 1e-9


@given(w=finite_vectors, p=st.sampled_from([0.25, 0.5, 1.0]))
@settings(max_examples=100)
def test_eta_monotone_in_r(w, p):
    etas = eta_r(w, p).tolist()
    assert all(b <= a + 1e-12 for a, b in zip(etas, etas[1:]))


@given(w=finite_vectors, norms=valid_pairs, sign=st.sampled_from([-1, 1]))
@settings(max_examples=100)
def test_overflow_guard_extreme_scales(w, norms, sign):
    scaled = w * 10.0 ** (sign * 150)
    assert abs(pq_index(scaled, norms) - pq_index(w, norms)) < 1e-9
