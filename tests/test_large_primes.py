"""Exact arithmetic at the largest moduli PrimeModulus accepts (p < 2^31).

There a product of two residues fits in int64 but a sum of a few such
products does not, so each property below fails on any path that adds
unreduced products in int64 or builds place values p^rank in int64.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triortho.fplinalg import (
    BudgetExceeded,
    FpMatrix,
    FpVector,
    PrimeModulus,
    in_rowspan,
    matmul_mod,
    min_weight,
    power_sums,
)
from triortho.gates import cubic_phase_sum
from triortho.starproduct import power_weight

LARGE_PRIMES = (2**31 - 1, 2**30 + 3)
PROPERTY = settings(max_examples=30, deadline=None)

moduli = st.sampled_from(LARGE_PRIMES).map(PrimeModulus)


@st.composite
def matrices(draw, rows, cols):
    # uniform entries: most are large, which is where unreduced sums overflow
    modulus = draw(moduli)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return FpMatrix(modulus, rng.integers(0, modulus.p, size=(draw(rows), draw(cols))))


@PROPERTY
@given(matrices(st.integers(1, 4), st.integers(8, 40)), st.sampled_from((1, 2, 3, 5)))
def test_power_sums_match_python_integers(M, t):
    p = M.p
    oracle = [sum(pow(x, t, p) for x in row) % p for row in M.tolist()]
    assert power_sums(M.array, t, p).tolist() == oracle
    assert [power_weight(M.row(i), t) for i in range(M.nrows)] == oracle


@PROPERTY
@given(matrices(st.just(1), st.integers(8, 40)), st.integers(0, 2**31))
def test_cubic_phase_sum_single_row_holds_for_every_u(H, u):
    # sum_i (u h_i)^3 = u^3 sum_i h_i^3 is an identity, so no u may raise
    p = H.p
    u %= p
    result = cubic_phase_sum(H, FpVector(H.modulus, [u]))
    assert result.numerator == sum(pow(u * h, 3, p) for h in H.tolist()[0]) % p
    assert result.modulus == p


@settings(max_examples=8, deadline=None)
@given(moduli, st.integers(10, 14), st.integers(0, 4), st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_min_weight_out_of_budget_raises_budget_exceeded(modulus, rank, extra, budget, seed):
    # [I | X] has rank `rank`, so the span holds p^rank >> 2^63 codewords
    X = np.random.default_rng(seed).integers(0, modulus.p, size=(rank, extra))
    M = FpMatrix(modulus, np.hstack([np.eye(rank, dtype=np.int64), X]))
    with pytest.raises(BudgetExceeded) as exc:
        min_weight(M, budget=budget)
    assert 1 <= exc.value.partial_bound <= 1 + extra  # the last basis row comes first


@PROPERTY
@given(matrices(st.integers(1, 5), st.integers(1, 8)), st.data())
def test_in_rowspan_coefficients_reproduce_v(M, data):
    p = M.p
    # a combination of the first and last rows makes the rows dependent
    combo = np.zeros((1, M.nrows), dtype=np.int64)
    combo[0, 0] = data.draw(st.integers(0, p - 1))
    combo[0, -1] += 1
    M = M.stack(FpMatrix(M.modulus, matmul_mod(combo, M.array, p)))
    c = data.draw(st.lists(st.integers(0, p - 1), min_size=M.nrows, max_size=M.nrows))
    v = FpVector(M.modulus, matmul_mod(np.array(c, dtype=np.int64), M.array, p))
    ok, coeffs = in_rowspan(M, v)
    assert ok
    assert np.array_equal(matmul_mod(coeffs.array, M.array, p), v.array)
