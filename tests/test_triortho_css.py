"""Code assembly: closed forms against the elimination oracle, partition, distances, validation."""

import dataclasses
import itertools
import json
from typing import Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triortho.fplinalg import (
    DEFAULT_BUDGET,
    FpMatrix,
    FpVector,
    MatrixFormatError,
    PrimeModulus,
    is_prime,
    kernel_basis,
    matmul_mod,
    min_weight,
    rref,
    rref_with_transform,
)
from triortho.gates import find_p3_code
from triortho.reed_solomon import rs_generator
from triortho.starproduct import power_weight
from triortho.triortho_css import (
    build_code,
    code_from_matrix,
    encoded_state_support,
    from_descriptor,
    partition_rows,
    to_descriptor,
    validate_code,
)


class PunctureRankError(ValueError):
    """The chosen puncture columns are not independent, so no systematic form exists."""


def systematic_puncture(rs_gen: FpMatrix, A) -> Tuple[FpMatrix, FpMatrix]:
    """Row-reduce so the A columns read [-Identity; 0], then restrict to A^c.

    The elimination oracle for build_code's closed forms.  Only the A columns
    are eliminated; the remaining columns keep their evaluation-code texture
    (full reduced echelon form would mix extra stabilizer rows into the
    logical ones).  Returns (H1, H0): the first k rows and the remaining rows,
    both with the A columns deleted.
    """
    p = rs_gen.p
    A = tuple(int(a) for a in A)
    k = len(A)
    if len(set(A)) != k:
        raise PunctureRankError("puncture positions must be distinct")
    if any(a < 0 or a >= rs_gen.ncols for a in A):
        raise PunctureRankError("puncture position out of range")
    # with rank k the A block of T @ rs_gen is [Identity; 0]
    _, rank, _, T = rref_with_transform(FpMatrix(rs_gen.modulus, rs_gen.array[:, list(A)]))
    if rank < k:
        raise PunctureRankError(f"puncture set unusable: columns {A} are rank deficient")
    arr = matmul_mod(T.array, rs_gen.array, p)
    rest = [c for c in range(rs_gen.ncols) if c not in set(A)]
    h1 = (-arr[:k][:, rest]) % p  # flip sign so the A block is -Identity
    h0 = arr[k:][:, rest]
    return (
        FpMatrix(rs_gen.modulus, h1),
        FpMatrix(rs_gen.modulus, h0),
    )


def test_systematic_puncture_example():
    h1, h0 = systematic_puncture(rs_generator(7, 2), (0,))
    assert h1.tolist() == [[6, 6, 6, 6, 6, 6]]
    assert h0.tolist() == [[1, 2, 3, 4, 5, 6]]
    assert power_weight(h1.row(0), 3) == 1  # 6 * 216 = 1296 = 1 (mod 7)
    assert power_weight(h1.row(0), 2) == 6  # -1 (mod 7)
    assert power_weight(h0.row(0), 2) == 0


def test_systematic_puncture_rank_error():
    bad = FpMatrix.from_rows(7, [[0, 1, 2], [0, 2, 4]])
    with pytest.raises(PunctureRankError):
        systematic_puncture(bad, (0,))
    with pytest.raises(PunctureRankError):
        systematic_puncture(rs_generator(7, 2), (0, 0))


@st.composite
def family_shapes(draw):
    # a prime p <= 211, 1 <= l <= (p+1)/3, 0 <= k <= l, and k positions in random order
    p = draw(st.sampled_from([q for q in range(2, 212) if is_prime(q)]))
    l = draw(st.integers(1, (p + 1) // 3))
    k = draw(st.integers(0, l))
    A = draw(st.permutations(range(p)))[:k]
    return p, l, k, tuple(A)


@settings(max_examples=300, deadline=None)
@given(family_shapes())
@example((2, 1, 0, ()))  # p = 2 takes no Fermat power
@example((2, 1, 1, (1,)))  # and here G is empty
def test_closed_forms_match_the_elimination_route(shape):
    p, l, k, A = shape
    # budget 1 admits no enumeration, so d falls back to the family formula
    code = build_code(p, l, k, A=A, budget=1)
    h1, h0 = systematic_puncture(rs_generator(p, l), A)
    assert np.array_equal(code.H1.array, h1.array)
    assert np.array_equal(code.H0.array, h0.array)
    assert np.array_equal(code.G.array, kernel_basis(h1.stack(h0)).array)


def test_partition_rows():
    h1, h0 = systematic_puncture(rs_generator(7, 2), (0,))
    part0, part1 = partition_rows(h1.stack(h0))
    assert part0 == h0
    assert part1 == h1
    allzero = FpMatrix.from_rows(5, [[0, 0], [0, 0]])
    z0, z1 = partition_rows(allzero)
    assert z0.nrows == 2 and z1.nrows == 0


def test_build_small_code():
    code = build_code(7, 2, 1)
    assert code.params == (6, 1, 2)  # exact coset distance, one above l - k
    assert code.d_verified
    assert code.d_x == 5
    assert code.epsilon.tolist() == [1]
    assert code.code_id == "p7-l2-k1-A0"
    report = validate_code(code)
    assert report["passed"], report
    names = {c["name"]: c for c in report["checks"]}
    assert names["distance_ordering"]["detail"] == "d_Z = 2, d_X = 5"


def test_build_code_13_4_1():
    code = build_code(13, 4, 1)
    assert code.params == (12, 1, 4)  # via the dual-distribution route
    assert code.d_verified
    assert code.d_x == 9
    assert validate_code(code)["passed"]
    # independent route: enumerate span(H) directly for the X distance
    assert min_weight(code.H, exclude=code.H0) == 9


def test_build_large_codes_flagged_unverified():
    c41 = build_code(41, 12, 6)
    assert c41.params == (35, 6, 6)
    assert not c41.d_verified
    assert c41.d_x is None
    c97 = build_code(97, 29, 14)
    assert c97.params == (83, 14, 15)
    assert not c97.d_verified
    assert validate_code(c41)["passed"]
    assert validate_code(c97)["passed"]


def test_build_code_preconditions():
    with pytest.raises(ValueError, match="3l <= p\\+1"):
        build_code(7, 3, 1)
    with pytest.raises(ValueError):
        build_code(7, 2, 3)  # k > l
    with pytest.raises(ValueError):
        build_code(7, 2, 1, A=(0, 1))  # |A| != k


def test_construction_sweep_small_primes():
    for p in (5, 7, 11, 13):
        for l in range(1, (p + 1) // 3 + 1):
            for k in range(1, l + 1):
                code = build_code(p, l, k, budget=10**4)
                assert code.n == p - k
                assert code.k == k
                assert code.epsilon.tolist() == [1] * k
                assert all(power_weight(code.H1.row(a), 2) == p - 1 for a in range(k))
                assert all(power_weight(code.H0.row(b), 2) == 0 for b in range(code.H0.nrows))
                _, rank_h, _ = rref(code.H)
                assert rank_h == l
                assert validate_code(code)["passed"], (p, l, k)


def test_span_structure():
    code = build_code(7, 2, 1)
    _, rank_g, _ = rref(code.G)
    _, rank_all, _ = rref(code.H.stack(code.G))
    # H0 sits inside span(G), so stacking it adds nothing beyond H1
    assert rank_g == 4
    assert rank_all == code.k + rank_g == 5
    assert rank_all == code.n - code.H0.nrows


def test_validate_code_fault_injection():
    code = build_code(7, 2, 1)
    corrupted = np.array(code.H1.array)
    corrupted[0, 0] = 5
    bad = dataclasses.replace(code, H1=FpMatrix(code.modulus, corrupted))
    report = validate_code(bad)
    assert not report["passed"]
    names = {c["name"]: c["passed"] for c in report["checks"]}
    assert not names["tri_orthogonality"]


def stabilizer_words(code):
    # every word of span(H0), one int64 row each; the rows of H0 are independent
    coeffs = np.array(list(itertools.product(range(code.p), repeat=code.H0.nrows)), dtype=np.int64)
    return coeffs @ code.H0.array % code.p


def test_encoded_state_support():
    code = build_code(7, 2, 1)

    def words(u):
        labels = encoded_state_support(code, FpVector(7, [u]), stabilizer_words(code))
        assert labels.shape == (7, code.n) and labels.dtype == np.int64
        return {tuple(row) for row in labels.tolist()}

    zero, one, two = words(0), words(1), words(2)
    assert len(zero) == len(one) == len(two) == 7  # distinct rows
    assert (0, 0, 0, 0, 0, 0) in zero
    assert (6, 6, 6, 6, 6, 6) in one
    assert (0, 1, 2, 3, 4, 5) in one  # shifted by the H0 row
    assert not zero & one  # logical classes are disjoint cosets
    assert not one & two and not zero & two


def test_encoded_state_support_validates_input():
    code = build_code(7, 2, 1)
    with pytest.raises(ValueError):
        encoded_state_support(code, FpVector(7, [1, 0]), stabilizer_words(code))
    with pytest.raises(ValueError):
        encoded_state_support(code, FpVector(5, [1]), stabilizer_words(code))


def test_descriptor_round_trip():
    code = build_code(13, 4, 1)
    blob = json.dumps(to_descriptor(code), sort_keys=True)
    parsed = from_descriptor(blob)
    assert parsed.p == 13 and parsed.l == 4 and parsed.k == 1
    assert parsed.H0 == code.H0 and parsed.H1 == code.H1 and parsed.G == code.G
    assert parsed.epsilon == code.epsilon
    assert parsed.params == code.params
    assert parsed.d_verified == code.d_verified
    assert parsed.code_id == code.code_id
    assert validate_code(parsed)["passed"]


def test_descriptor_errors():
    good = to_descriptor(build_code(7, 2, 1))
    for mutate in (
        lambda d: d.pop("epsilon"),
        lambda d: d.update(p=6),
        lambda d: d.update(k=2),
        lambda d: d["params"].update(d_verified="yes"),
        lambda d: d["H1"].__setitem__(0, [1, 2, 3]),
        lambda d: d.update(A=[0, 0]),
    ):
        data = json.loads(json.dumps(good))
        mutate(data)
        with pytest.raises(MatrixFormatError):
            from_descriptor(data)
    with pytest.raises(MatrixFormatError):
        from_descriptor("{not json")


def set_first_one(rows, value):
    # the first entry equal to 1 in a list of rows, replaced by value
    i, j = next((i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x == 1)
    rows[i][j] = value


ROWS_OF_6 = "rows must be length-6 lists of canonical residues"


@pytest.mark.parametrize(
    "mutate, message",
    [
        pytest.param(lambda d: d.update(p=True), "p must be an integer", id="p"),
        pytest.param(lambda d: d.update(l=True), "l must be null or in [1, p]", id="l"),
        pytest.param(lambda d: d.update(k=True), "top-level k disagrees with params.k", id="k"),
        pytest.param(lambda d: d["params"].update(n=True), "params.n must be a positive integer", id="params.n"),
        pytest.param(lambda d: d["params"].update(k=True), "params.k must be a non-negative integer", id="params.k"),
        pytest.param(lambda d: d["params"].update(d=True), "params.d must be a non-negative integer", id="params.d"),
        pytest.param(lambda d: set_first_one(d["H0"], True), f"H0 {ROWS_OF_6}", id="H0"),
        pytest.param(lambda d: set_first_one(d["G"], True), f"G {ROWS_OF_6}", id="G"),
        pytest.param(lambda d: d["H1"][0].__setitem__(0, False), f"H1 {ROWS_OF_6}", id="H1"),
        pytest.param(
            lambda d: d.update(epsilon=[True]), "epsilon must be a length-k list of canonical residues", id="epsilon"
        ),
        pytest.param(lambda d: d.update(A=[False]), "A must be a list of distinct positions in [0, p)", id="A"),
    ],
)
def test_descriptor_rejects_booleans_as_integers(mutate, message):
    # JSON true and false parse to Python bools, which isinstance(_, int) accepts
    data = to_descriptor(build_code(7, 2, 1))
    mutate(data)
    with pytest.raises(MatrixFormatError) as excinfo:
        from_descriptor(json.dumps(data))
    assert str(excinfo.value) == message


def test_code_from_matrix():
    source = build_code(7, 2, 1)
    rebuilt = code_from_matrix(7, source.H)
    assert rebuilt.params == (6, 1, 2)
    assert rebuilt.l is None
    assert rebuilt.code_id.startswith("p7-custom-")
    assert rebuilt.code_id == code_from_matrix(7, source.H).code_id
    assert validate_code(rebuilt)["passed"]


def test_code_from_matrix_rejects_bad_input():
    with pytest.raises(ValueError, match="not tri-orthogonal"):
        code_from_matrix(5, FpMatrix.from_rows(5, [[1, 0, 0], [1, 1, 0]]))


def test_stabilizer_commutation_explicit():
    code = build_code(13, 4, 1)
    assert not matmul_mod(code.H0.array, code.G.array.T, 13).any()
    assert not matmul_mod(code.H1.array, code.G.array.T, 13).any()


CROSS_ROUTE = [
    ((7, 2, 1), (0,)),
    ((7, 2, 1), (3,)),
    ((7, 2, 1), (6,)),
    ((11, 4, 2), (1, 5)),
    ((11, 4, 2), (0, 10)),
    ((13, 4, 1), (0,)),
    ((13, 4, 1), (7,)),
]


def assert_routes_agree(code):
    # build_code takes both distances from the span(H0) and span(H) distributions;
    # enumeration by min_weight is the independent check of each
    assert code.d_verified
    assert code.d_x == min_weight(code.H, exclude=code.H0)
    coset = code.H1.stack(code.G)
    if code.p ** (code.k + code.G.nrows) <= DEFAULT_BUDGET:
        assert code.d == min_weight(coset, exclude=code.G)


@pytest.mark.parametrize("plk, A", CROSS_ROUTE)
def test_distance_routes_agree(plk, A):
    # (13,4,1): span([H1; G]) has 13^9 words, past the budget, so only d_X is cross-checked
    assert_routes_agree(build_code(*plk, A=A))


def test_distance_routes_agree_on_the_qutrit_code():
    assert_routes_agree(find_p3_code())
