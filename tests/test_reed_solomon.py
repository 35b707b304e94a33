"""Evaluation-code construction, duality, shortening/puncturing, distances."""

import math

import numpy as np
import pytest

from triortho.fplinalg import (
    BudgetExceeded,
    FpMatrix,
    FpVector,
    PrimeModulus,
    ResourceCapError,
    matmul_mod,
    min_weight,
    rref,
)
from triortho.reed_solomon import (
    RsCodeSpec,
    audit_distance_formula,
    prs_min_distance,
    puncture,
    rs_generator,
    rs_triply_even,
    shorten,
)
from triortho.starproduct import check_triply_even

from test_triortho_css import systematic_puncture


def test_ev_monomials():
    # row j of the generator is the evaluation of x^j at 0..p-1, with 0^0 = 1
    assert rs_generator(5, 3).tolist() == [[1, 1, 1, 1, 1], [0, 1, 2, 3, 4], [0, 1, 4, 4, 1]]
    for p in (3, 5, 7, 11, 13):
        assert rs_generator(p, p).tolist() == [[pow(x, j, p) for x in range(p)] for j in range(p)]


def test_exponent_folding():
    # x^5 = x pointwise on F_5, so ev(x^5) and ev(x^9) are row 1 and ev(x^6) is row 2
    rows = rs_generator(5, 5).tolist()
    assert [pow(x, 5, 5) for x in range(5)] == rows[1]
    assert [pow(x, 9, 5) for x in range(5)] == rows[1]
    assert [pow(x, 6, 5) for x in range(5)] == rows[2]


def test_ev_is_star_homomorphism():
    # ev(x^i) * ev(x^j) = ev(x^(i+j)), with x^p = x pointwise folding i + j back below p
    for p in (3, 5, 7, 11, 13):
        rows = rs_generator(p, p).array
        for i in range(p):
            for j in range(p):
                e = i + j if i + j < p else (i + j - 1) % (p - 1) + 1
                assert (rows[i] * rows[j] % p).tolist() == rows[e].tolist(), (p, i, j)


def test_rs_generator_rank_and_distance():
    g = rs_generator(5, 2)
    assert g.tolist() == [[1, 1, 1, 1, 1], [0, 1, 2, 3, 4]]
    _, rank, _ = rref(g)
    assert rank == 2
    assert min_weight(g) == 4  # MDS: p - l + 1


def test_rs_generator_mds_small():
    for p in (5, 7, 11):
        for l in (1, 2, 3):
            assert min_weight(rs_generator(p, l)) == p - l + 1


def test_evaluation_map_bijective():
    # all p monomials evaluate to independent vectors, so the map is bijective
    for p in (3, 5, 7, 11, 13):
        _, rank, _ = rref(rs_generator(p, p))
        assert rank == p


def test_rs_dual():
    # RS_l-perp is RS_(p-l)
    for p, l in ((5, 2), (7, 3), (11, 4), (13, 6)):
        g = rs_generator(p, l)
        gd = rs_generator(p, p - l)
        assert not matmul_mod(g.array, gd.array.T, p).any()
        _, r1, _ = rref(g)
        _, r2, _ = rref(gd)
        assert r1 + r2 == p


def test_spec_validation():
    RsCodeSpec.make(7, 3, (0, 2))
    with pytest.raises(ValueError):
        RsCodeSpec.make(7, 3, (0, 0))  # duplicate position
    with pytest.raises(ValueError):
        RsCodeSpec.make(7, 3, (7,))  # out of range
    with pytest.raises(ValueError):
        RsCodeSpec.make(7, 2, (0, 1, 2))  # |A| > l
    with pytest.raises(ValueError):
        RsCodeSpec.make(7, 8)  # l > p


def test_puncture_example():
    # PRS_(p-l): RS_3 over F_5 with column 0 deleted
    spec = RsCodeSpec.make(5, 2, (0,))
    g = puncture(spec)
    assert g.tolist() == [[1, 1, 1, 1], [1, 2, 3, 4], [1, 4, 4, 1]]


def test_shorten_example():
    # codewords of RS_3 over F_5 vanishing at 0: x and x^2, whose interpolants on {0} vanish
    spec = RsCodeSpec.make(5, 3, (0,))
    assert shorten(spec).tolist() == [[1, 2, 3, 4], [1, 4, 4, 1]]


def test_shorten_empty_positions_is_identity():
    spec = RsCodeSpec.make(7, 3)
    assert shorten(spec) == rs_generator(7, 3)
    assert puncture(spec) == rs_generator(7, 4)


def test_puncture_shorten_duality():
    # punctured and shortened codes of complementary dimensions are dual pairs,
    # and the closed-form shortened generator is the one elimination gives
    rng = np.random.default_rng(7)
    for p in (5, 7, 11, 13):
        for l in range(1, p):
            kmax = min(l, p - l, 3)
            for k in range(0, kmax + 1):
                a = tuple(int(x) for x in rng.choice(p, size=k, replace=False))
                spec = RsCodeSpec.make(p, l, a)
                pr = puncture(spec)
                sh = shorten(spec)
                assert np.array_equal(sh.array, systematic_puncture(rs_generator(p, l), a)[1].array)
                assert not matmul_mod(pr.array, sh.array.T, p).any()
                _, rp, _ = rref(pr)
                _, rs, _ = rref(sh)
                assert rs == sh.nrows == l - k  # position columns always independent
                assert rp + rs == p - k


def test_shorten_checks_the_cap_before_it_allocates(monkeypatch):
    def fail(*args):
        raise AssertionError("_lagrange ran before the cap check")

    monkeypatch.setattr("triortho.fplinalg.ENTRY_CAP", 100)
    monkeypatch.setattr("triortho.reed_solomon._lagrange", fail)
    with pytest.raises(ResourceCapError, match="the RS_12 generator of 12 x 41 entries"):
        shorten(RsCodeSpec.make(41, 12, range(6)))


def test_triply_even_criterion_boundaries():
    assert rs_triply_even(7, 2)
    assert not rs_triply_even(7, 3)
    assert rs_triply_even(13, 4)
    assert not rs_triply_even(13, 5)
    assert rs_triply_even(41, 14)  # 3l = p + 1 boundary holds
    assert not rs_triply_even(41, 15)
    assert rs_triply_even(97, 32)


def test_triply_even_criterion_matches_direct_check():
    for p in (3, 5, 7, 11, 13):
        for l in range(1, p + 1):
            ok, _ = check_triply_even(rs_generator(p, l))
            assert ok == rs_triply_even(p, l), (p, l)


def test_prs_min_distance_values():
    # nonzero polynomials of degree < p - l have at most p - l - 1 roots, so
    # punctured duals keep weight >= l - k + 1, and a fully-rooted witness
    # meets it: the exact distance is l - k + 1
    assert prs_min_distance(RsCodeSpec.make(13, 4, (0,))) == 4
    assert prs_min_distance(RsCodeSpec.make(7, 2, (0,))) == 2
    assert prs_min_distance(RsCodeSpec.make(13, 4)) == 5  # no puncturing: l + 1


def test_prs_min_distance_routes_agree():
    # direct enumeration is cheaper here (7^2 < 7^4), dual route elsewhere
    direct = prs_min_distance(RsCodeSpec.make(7, 5, (0,)))
    assert direct == 5
    for p, l, k in ((7, 2, 1), (11, 3, 1), (13, 4, 2), (11, 4, 3)):
        spec = RsCodeSpec.make(p, l, tuple(range(k)))
        d = prs_min_distance(spec)
        assert d == l - k + 1
        # cross-check against raw span enumeration of the punctured code
        if p ** (p - l) <= 10**6:
            assert d == min_weight(puncture(spec))


def test_puncture_at_l_equal_p_is_the_zero_code():
    # PRS_0,A: RS_0 holds no polynomial, so the punctured generator has no rows
    spec = RsCodeSpec.make(7, 7, (0,))
    assert puncture(spec) == FpMatrix.empty(7, 6)
    with pytest.raises(ValueError, match="zero code has no nonzero codewords"):
        prs_min_distance(spec)


def test_prs_min_distance_budget():
    with pytest.raises(BudgetExceeded):
        prs_min_distance(RsCodeSpec.make(13, 6, (0,)), budget=10**4)


def test_distance_witness_polynomial():
    # product of (x - b) over eight unpunctured points: weight 4 in the
    # punctured dual, matching the computed minimum for p=13, l=4, k=1
    p = 13
    mod = PrimeModulus(p)
    vec = [math.prod(x - b for b in range(1, 9)) % p for x in range(p)]
    assert vec[0] != 0  # does not vanish at the punctured position itself
    witness = FpVector(mod, [vec[u] for u in range(1, p)])
    assert np.count_nonzero(witness.array) == 4
    # the witness lies in the punctured code being measured
    spec = RsCodeSpec.make(p, 4, (0,))
    sh = shorten(spec)
    assert not matmul_mod(witness.array[None, :], sh.array.T, p).any()


def test_audit_distance_formula():
    entries = audit_distance_formula(13, budget=10**6)
    assert len(entries) == 14
    names = [e["name"] for e in entries]
    assert len(set(names)) == len(names)
    assert names[0] == "p5-l2-k1"
    for e in entries:
        assert not e["skipped"]
        assert e["claimed"] == e["l"] - e["k"]
        # every in-budget instance exceeds the claimed distance by exactly one
        assert e["computed"] == e["claimed"] + 1
        assert e["matches"] is False
