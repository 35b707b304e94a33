"""Code assembly: systematic puncturing, partition, distances, validation."""

import dataclasses
import json

import numpy as np
import pytest

from triortho.fplinalg import (
    DEFAULT_BUDGET,
    FpMatrix,
    FpVector,
    MatrixFormatError,
    PrimeModulus,
    matmul_mod,
    min_weight,
    rref,
)
from triortho.gates import find_p3_code
from triortho.reed_solomon import rs_generator
from triortho.starproduct import power_weight
from triortho.triortho_css import (
    PunctureRankError,
    build_code,
    code_from_matrix,
    encoded_state_support,
    from_descriptor,
    partition_rows,
    systematic_puncture,
    to_descriptor,
    validate_code,
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


def test_encoded_state_support():
    code = build_code(7, 2, 1)
    zero = encoded_state_support(code, FpVector(7, [0]))
    assert len(zero) == 7
    assert FpVector(7, [0, 0, 0, 0, 0, 0]) in zero
    one = encoded_state_support(code, FpVector(7, [1]))
    assert len(one) == 7
    assert FpVector(7, [6, 6, 6, 6, 6, 6]) in one
    assert FpVector(7, [0, 1, 2, 3, 4, 5]) in one  # shifted by the H0 row
    assert not zero & one  # logical classes are disjoint cosets
    two = encoded_state_support(code, FpVector(7, [2]))
    assert not one & two and not zero & two


def test_encoded_state_support_validates_input():
    code = build_code(7, 2, 1)
    with pytest.raises(ValueError):
        encoded_state_support(code, FpVector(7, [1, 0]))
    with pytest.raises(ValueError):
        encoded_state_support(code, FpVector(5, [1]))


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
