import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triortho.fplinalg import (
    BudgetExceeded,
    EmptyCoset,
    FpMatrix,
    FpVector,
    MatrixFormatError,
    PrimeModulus,
    coset_min_weight,
    in_rowspan,
    inv_mod,
    is_prime,
    kernel_basis,
    macwilliams_dual_distribution,
    matmul_mod,
    min_weight,
    parse_matrix,
    prefix_ranks,
    rref,
    rref_with_transform,
    weight_distribution,
)
from triortho.fplinalg import _krawtchouk_column


def vandermonde(p, l):
    # rows are the evaluations of x^j at 0..p-1; 0^0 = 1
    return FpMatrix(p, [[pow(u, j, p) if (u or j == 0) else 0 for u in range(p)] for j in range(l)])


def naive_span(M):
    # independent oracle: fold all coefficient combinations over the raw rows
    p = M.p
    for coeffs in itertools.product(range(p), repeat=M.nrows):
        yield np.asarray(coeffs, dtype=np.int64) @ M.array % p


def test_prime_modulus_validation():
    PrimeModulus(2)
    PrimeModulus(2**31 - 1)  # Mersenne prime, largest allowed
    with pytest.raises(ValueError):
        PrimeModulus(1)
    with pytest.raises(ValueError):
        PrimeModulus(9)
    with pytest.raises(ValueError):
        PrimeModulus(2**31 + 11)
    with pytest.raises(TypeError):
        PrimeModulus(7.0)
    assert is_prime(46337) and not is_prime(46341)


def test_field_arith_examples():
    assert inv_mod(2, 5) == 3
    with pytest.raises(ZeroDivisionError):
        inv_mod(0, 5)
    with pytest.raises(ZeroDivisionError):
        inv_mod(10, 5)
    for p in (3, 5, 31):
        for x in range(1, p):
            assert inv_mod(x, p) * x % p == 1


def test_vector_normalization_and_equality():
    v = FpVector(5, [-1, 6, 10])
    assert v.tolist() == [4, 1, 0]
    assert np.count_nonzero(v.array) == 2
    assert v == FpVector(5, [4, 1, 0])
    assert v != FpVector(5, [4, 1, 1])
    with pytest.raises(AttributeError):
        v.modulus = None


def test_rref_identity_and_hand_example():
    I3 = FpMatrix(5, np.eye(3, dtype=int))
    R, rank, pivots = rref(I3)
    assert R == I3 and rank == 3 and pivots == [0, 1, 2]

    M = FpMatrix(5, [[1, 1, 1, 1, 1], [0, 1, 2, 3, 4]])
    R, rank, pivots = rref(M)
    assert rank == 2 and pivots == [0, 1]

    Z = FpMatrix(5, np.zeros((2, 4), dtype=int))
    _, rank, pivots = rref(Z)
    assert rank == 0 and pivots == []


def test_rref_transform_reproduces_rref():
    rng = np.random.default_rng(7)
    for p in (3, 5, 7):
        for _ in range(20):
            M = FpMatrix(p, rng.integers(0, p, size=(4, 6)))
            R, rank, pivots, T = rref_with_transform(M)
            assert np.array_equal(T.array @ M.array % p, R.array)
            R2, rank2, pivots2 = rref(M)
            assert R == R2 and rank == rank2 and pivots == pivots2


def test_rowspan_preserved_by_rref():
    rng = np.random.default_rng(11)
    for p in (3, 5, 7):
        for _ in range(20):
            M = FpMatrix(p, rng.integers(0, p, size=(3, 5)))
            R, rank, _ = rref(M)
            for i in range(M.nrows):
                ok, _ = in_rowspan(R, M.row(i))
                assert ok
            for i in range(R.nrows):
                ok, _ = in_rowspan(M, R.row(i))
                assert ok


def test_kernel_basis_examples():
    # kernel of the [p,2] evaluation code generator is the [p,3] one (p=5)
    G2 = vandermonde(5, 2)
    K = kernel_basis(G2)
    assert K.nrows == 3
    G3 = vandermonde(5, 3)
    for i in range(3):
        ok, _ = in_rowspan(G3, K.row(i))
        assert ok
    for i in range(3):
        ok, _ = in_rowspan(K, G3.row(i))
        assert ok

    assert kernel_basis(FpMatrix(5, np.eye(3, dtype=int))).nrows == 0
    assert kernel_basis(FpMatrix(3, np.zeros((1, 4), dtype=int))).nrows == 4


def test_rank_nullity_and_kernel_exactness():
    rng = np.random.default_rng(3)
    for p in (3, 5, 7):
        for _ in range(25):
            M = FpMatrix(p, rng.integers(0, p, size=(rng.integers(1, 5), rng.integers(1, 7))))
            _, rank, _ = rref(M)
            K = kernel_basis(M)
            assert rank + K.nrows == M.ncols
            for i in range(K.nrows):
                assert not np.any(M.array @ K.array[i] % p)


@st.composite
def row_blocks(draw):
    """1-4 row blocks of one width, some empty, where some rows are combinations of rows above them."""
    p = draw(st.sampled_from((2, 3, 211, 2**31 - 1)))
    n = draw(st.integers(1, 8))
    sizes = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stacked = rng.integers(0, p, size=(sum(sizes), n))
    for i in range(1, len(stacked)):
        if draw(st.booleans()):  # a dependent row, often on rows of an earlier block
            stacked[i] = matmul_mod(rng.integers(0, p, size=i), stacked[:i], p)
    ends = np.cumsum(sizes)
    return p, [FpMatrix(p, block) for block in np.split(stacked, ends[:-1])]


@settings(max_examples=200, deadline=None)
@given(row_blocks())
def test_prefix_ranks_match_rref_of_each_leading_stack(case):
    p, blocks = case
    expected = [rref(FpMatrix(p, np.vstack([b.array for b in blocks[: i + 1]])))[1] for i in range(len(blocks))]
    assert prefix_ranks(*blocks) == expected


def test_in_rowspan_coefficients():
    M = FpMatrix(7, [[1, 2, 3, 4], [0, 1, 1, 6]])
    v = FpVector(7, (2 * M.array[0] + M.array[1]) % 7)
    ok, coeffs = in_rowspan(M, v)
    assert ok and coeffs.tolist() == [2, 1]
    assert np.array_equal(coeffs.array @ M.array % 7, v.array)

    G2 = vandermonde(5, 2)
    ok, coeffs = in_rowspan(G2, FpVector(5, [1] * 5))
    assert ok and coeffs.tolist() == [1, 0]

    ok, coeffs = in_rowspan(M, FpVector(7, [1, 0, 0, 0]))
    assert not ok and coeffs is None


def test_in_rowspan_with_dependent_rows():
    # coefficients must refer to the original (possibly dependent) rows
    M = FpMatrix(5, [[1, 2, 3], [2, 4, 1], [3, 1, 4]])
    rng = np.random.default_rng(0)
    for _ in range(10):
        c = rng.integers(0, 5, size=3)
        v = FpVector(5, c @ M.array % 5)
        ok, coeffs = in_rowspan(M, v)
        assert ok
        assert np.array_equal(coeffs.array @ M.array % 5, v.array)


def test_min_weight_examples():
    assert min_weight(vandermonde(5, 2)) == 4  # [5,2,4] evaluation code
    assert min_weight(FpMatrix(3, [[1, 1, 1]])) == 3


def test_min_weight_matches_naive_oracle():
    rng = np.random.default_rng(42)
    for p in (3, 5, 7):
        for _ in range(15):
            M = FpMatrix(p, rng.integers(0, p, size=(3, 6)))
            _, rank, _ = rref(M)
            if rank == 0:
                continue
            oracle = min(
                int(np.count_nonzero(w)) for w in naive_span(M) if np.any(w)
            )
            assert min_weight(M) == oracle


def test_min_weight_exclusion():
    # span{(1,1,0),(0,0,1)} minus span{(1,1,0)} leaves weight-1 words
    M = FpMatrix(3, [[1, 1, 0], [0, 0, 1]])
    assert min_weight(M) == 1
    assert min_weight(M, exclude=FpMatrix(3, [[0, 0, 1]])) == 2
    with pytest.raises(EmptyCoset):
        min_weight(M, exclude=M)
    with pytest.raises(ValueError):
        min_weight(FpMatrix(3, np.zeros((2, 3), dtype=int)))


def test_min_weight_finds_an_empty_coset_without_enumerating():
    # 13^8 words lie in the excluded span; a budget of 10 words could not
    # walk them, so only the rank test can say that none is left
    M = FpMatrix(13, np.random.default_rng(3).integers(0, 13, size=(8, 12)))
    with pytest.raises(EmptyCoset):
        min_weight(M.stack(FpMatrix(13, M.array[:2] + M.array[2:4])), exclude=M, budget=10)


def test_min_weight_budget_exceeded_carries_partial_bound():
    M = vandermonde(7, 3)  # 342 nonzero codewords
    with pytest.raises(BudgetExceeded) as exc:
        min_weight(M, budget=50)
    assert exc.value.partial_bound is not None
    assert exc.value.partial_bound >= min_weight(M)


def test_weight_distribution_oracle_and_macwilliams():
    for p, l in ((3, 2), (5, 2), (7, 2)):
        G = vandermonde(p, l)
        dist = weight_distribution(G)
        oracle = [0] * (p + 1)
        for w in naive_span(G):
            oracle[int(np.count_nonzero(w))] += 1
        assert dist == oracle
        # MacWilliams against the directly enumerated dual
        K = kernel_basis(G)
        dual_direct = weight_distribution(K)
        dual_mw = macwilliams_dual_distribution(dist, p, p)
        assert dual_mw == dual_direct


def krawtchouk(j, w, n, q):
    # the binomial sum K_j(w) = sum_s (-1)^s (q-1)^(j-s) C(w, s) C(n-w, j-s)
    return sum((-1) ** s * (q - 1) ** (j - s) * math.comb(w, s) * math.comb(n - w, j - s) for s in range(j + 1))


def test_krawtchouk_and_transform_consistency():
    # the recurrence columns equal the binomial sums, K_0 = 1 and K_1(w) = (q-1)(n-w) - w among them
    for q in (2, 3, 7, 13):
        for n in range(14):
            for w in range(n + 1):
                column = _krawtchouk_column(w, n, q)
                assert column == [krawtchouk(j, w, n, q) for j in range(n + 1)], (q, n, w)
                assert column[0] == 1
    with pytest.raises(ArithmeticError):
        macwilliams_dual_distribution([1, 0, 0, 5], 3, 3)


def format_matrix(M):
    # the text form parse_matrix reads: "p nrows ncols", then one row per line
    return "\n".join([f"{M.p} {M.nrows} {M.ncols}"] + [" ".join(map(str, row)) for row in M.tolist()]) + "\n"


def test_matrix_text_roundtrip_and_errors():
    M = FpMatrix(7, [[1, 2, 3], [0, 6, 5]])
    text = format_matrix(M)
    assert text.splitlines()[0] == "7 2 3"
    assert parse_matrix(text) == M

    with pytest.raises(MatrixFormatError):
        parse_matrix("")
    with pytest.raises(MatrixFormatError):
        parse_matrix("6 1 2\n1 2\n")  # composite modulus
    with pytest.raises(MatrixFormatError):
        parse_matrix("7 2 3\n1 2 3\n")  # missing row
    with pytest.raises(MatrixFormatError):
        parse_matrix("7 1 3\n1 2 9\n")  # entry out of range
    with pytest.raises(MatrixFormatError):
        parse_matrix("7 1 3\n1 x 3\n")


def test_matrix_stack_and_empty():
    A = FpMatrix(5, [[1, 2]])
    B = FpMatrix(5, [[3, 4]])
    assert A.stack(B).tolist() == [[1, 2], [3, 4]]
    E = FpMatrix.empty(5, 2)
    assert E.nrows == 0 and E.stack(A) == A


@st.composite
def nested_spans(draw):
    """(rows, inner): D = rowspan(inner) inside C = rowspan([rows; inner]), inner None for D = 0."""
    p = draw(st.sampled_from((2, 3, 7, 13, 251)))
    n = draw(st.integers(2, max(2, min(8, int(math.log(2 * 10**4, p))))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inner_rows = draw(st.integers(0, n - 1))
    rows = FpMatrix(p, rng.integers(0, p, size=(draw(st.integers(1, n - inner_rows)), n)))
    return rows, FpMatrix(p, rng.integers(0, p, size=(inner_rows, n))) if inner_rows else None


@settings(max_examples=40, deadline=None)
@given(nested_spans())
def test_distance_router_routes_agree(spans):
    rows, inner = spans
    p, n = rows.p, rows.ncols
    outer = rows if inner is None else rows.stack(inner)
    dual_outer = kernel_basis(outer)
    dual_inner = None if inner is None else kernel_basis(inner)
    direct = ("direct", rref(outer)[1])
    macwilliams = ("macwilliams", (dual_outer if dual_inner is None else dual_inner).nrows)

    def route(*routes, budget=10**5):
        return coset_min_weight(rows, inner, dual_outer, dual_inner, routes, budget)

    # no route fits: the router says so instead of raising
    assert route(direct, macwilliams, budget=p ** min(direct[1], macwilliams[1]) - 1) == (None, None)
    if direct[1] == (0 if inner is None else rref(inner)[1]):
        for routes in ((direct, macwilliams), (macwilliams, direct)):
            with pytest.raises(EmptyCoset):
                route(*routes)
        return
    d_direct, no_dual = route(direct, macwilliams)
    d_dual_first, dual_distance = route(macwilliams, direct)
    assert d_direct == d_dual_first
    assert no_dual is None
    if dual_inner is None:
        assert dual_distance is None
    else:
        assert dual_distance == min_weight(dual_inner, exclude=dual_outer)
    assert 1 <= d_direct <= n
