import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triortho import starproduct
from triortho.fplinalg import FpMatrix, FpVector, _float64_exact, kernel_basis, matmul_mod
from triortho.gates import PhaseIdentityError, phase_identity_sweep
from triortho.starproduct import (
    StarWitness,
    check_phase_identity,
    check_triorthogonal,
    check_triply_even,
    power_weight,
)


def vandermonde(p, l):
    return FpMatrix(p, [[pow(u, j, p) if (u or j == 0) else 0 for u in range(p)] for j in range(l)])


def star(u, v):
    return FpVector(u.p, u.array * v.array % u.p)


def test_star_examples():
    assert star(FpVector(3, [0, 1, 2]), FpVector(3, [0, 1, 2])).tolist() == [0, 1, 1]
    v = FpVector(5, [3, 1, 4, 2])
    assert star(FpVector(5, [1, 1, 1, 1]), v) == v
    # evaluation vectors multiply pointwise like the underlying polynomials
    ev_x = FpVector(5, [0, 1, 2, 3, 4])
    ev_x2 = FpVector(5, [0, 1, 4, 4, 1])
    ev_x3 = FpVector(5, [0, 1, 3, 2, 4])
    assert star(ev_x, ev_x2) == ev_x3
    # the weight of a triple star product is the cubic power weight
    assert power_weight(ev_x, 3) == power_weight(star(star(ev_x, ev_x), ev_x), 1)
    assert power_weight(v, 3) == sum(star(star(v, v), v).tolist()) % 5


def test_power_weight_examples():
    u = FpVector(3, [0, 1, 2])
    assert power_weight(u, 3) == 0
    assert power_weight(u, 2) == 2
    assert power_weight(FpVector(7, [0, 0, 0]), 5) == 0
    assert power_weight(FpVector(7, [1, 2, 3]), 1) == 6
    # generic power path agrees with explicit computation
    v = FpVector(11, [2, 5, 7])
    assert power_weight(v, 6) == sum(pow(x, 6, 11) for x in [2, 5, 7]) % 11
    with pytest.raises(ValueError):
        power_weight(u, 0)


def test_check_triorthogonal_examples():
    ok, wit = check_triorthogonal(FpMatrix(5, [[1, 1, 1, 1, 1]]))
    assert ok and wit is None

    ok, wit = check_triorthogonal(FpMatrix(5, [[1, 0], [1, 1]]))
    assert not ok
    assert wit == StarWitness("pair", (0, 1), 1)


def test_check_triorthogonal_triple_witness():
    # pairwise orthogonal rows with a nonzero distinct-triple sum
    H = FpMatrix(5, [[1, 1, 2, 1], [1, 2, 1, 0], [4, 0, 1, 4]])
    P = H.array @ H.array.T % 5
    assert not P[0, 1] and not P[0, 2] and not P[1, 2]
    ok, wit = check_triorthogonal(H)
    assert not ok and wit.kind == "triple" and wit.indices == (0, 1, 2)
    expected = int((H.array[0] * H.array[1] * H.array[2]).sum() % 5)
    assert wit.value == expected != 0


def test_triorthogonality_invariant_under_row_permutation():
    rng = np.random.default_rng(9)
    for p in (3, 5, 7):
        for _ in range(20):
            H = FpMatrix(p, rng.integers(0, p, size=(4, 6)))
            ok, _ = check_triorthogonal(H)
            perm = rng.permutation(4)
            ok_perm, _ = check_triorthogonal(FpMatrix(p, H.array[perm]))
            assert ok == ok_perm


def test_check_triply_even_examples():
    ok, wit = check_triply_even(vandermonde(7, 2))
    assert ok and wit is None

    ok, wit = check_triply_even(vandermonde(7, 3))
    assert not ok
    assert wit == StarWitness("triple", (2, 2, 2), 6)  # sum of u^6 over F_7

    ok, _ = check_triply_even(FpMatrix(5, np.zeros((2, 5), dtype=int)))
    assert ok
    ok, _ = check_triply_even(FpMatrix.empty(5, 4))
    assert ok


def triply_even_exhaustive(G):
    # every triple of codewords, repetitions allowed, has zero weight: pairs (i, j >= i) against all words
    p = G.p
    words = np.array([np.dot(c, G.array) % p for c in itertools.product(range(p), repeat=G.nrows)])
    return not any(matmul_mod(words[i:] * words[i] % p, words.T, p).any() for i in range(len(words)))


def test_exhaustive_oracle_agrees_with_basis_check():
    rng = np.random.default_rng(31)
    seen = {True: 0, False: 0}
    for p in (3, 5, 7):
        for _ in range(30):
            G = FpMatrix(p, rng.integers(0, p, size=(2, 6)))
            flag, _ = check_triply_even(G)
            assert triply_even_exhaustive(G) == flag
            seen[flag] += 1
    # known triply-even space keeps the positive branch covered
    assert triply_even_exhaustive(vandermonde(7, 2)) is True
    assert seen[False] > 0


def test_witness_validation():
    with pytest.raises(ValueError):
        StarWitness("pair", (1, 0), 1)
    with pytest.raises(ValueError):
        StarWitness("pair", (0, 1), 0)
    with pytest.raises(ValueError):
        StarWitness("nope", (0, 1), 1)
    with pytest.raises(ValueError):
        StarWitness("triple", (0, 1), 1)


def pair_by_pair_witness(H):
    """The scan check_triorthogonal batches: pairs (a, b), then triples (a, b, c), lexicographically."""
    p, A, m = H.p, H.array, H.nrows
    P = matmul_mod(A, A.T, p)
    for a in range(m):
        for b in range(a + 1, m):
            if P[a, b]:
                return StarWitness("pair", (a, b), int(P[a, b]))
    for a in range(m):
        for b in range(a + 1, m):
            ab = A[a] * A[b] % p
            sums = matmul_mod(A[b + 1 :], ab[:, None], p).ravel() if b + 1 < m else ()
            for off, val in enumerate(sums):
                if val:
                    return StarWitness("triple", (a, b, b + 1 + off), int(val))
    return None


def _random_in_kernel(rng, rows, p):
    basis = kernel_basis(FpMatrix(p, rows)).array
    return matmul_mod(rng.integers(0, p, size=basis.shape[0]), basis, p)


def _planted_triple(rng, p):
    """Three 4-entry rows with vanishing pair sums and a nonzero triple sum."""
    while True:
        x = rng.integers(1, p, size=4)
        y = _random_in_kernel(rng, [x], p)
        z = _random_in_kernel(rng, [x, y], p)
        if (x * y % p * z % p).sum() % p:
            return np.stack([x, y, z])


@st.composite
def planted_matrices(draw):
    """Rows with disjoint private supports (tri-orthogonal), plus planted violations.

    A pair (a, b) shares one column of nonzero entries; a triple (a, b, c)
    shares four columns whose pair sums vanish but whose triple sum does not.
    """
    p = draw(st.sampled_from((3, 5, 7, 211, 701, 2**31 - 1)))
    # sizes and kinds come from the seeded generator, uniform where hypothesis would favour small draws
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = int(rng.integers(3, 21))
    blocks = [np.diag(rng.integers(1, p, size=m))]
    for _ in range(rng.integers(0, 5)):
        rows = sorted(rng.choice(m, size=3, replace=False))
        block = np.zeros((m, 4), dtype=np.int64)
        if rng.random() < 0.1:
            block[rows[:2], 0] = rng.integers(1, p, size=2)
        else:
            block[rows] = _planted_triple(rng, p)
        blocks.append(block)
    return FpMatrix(p, np.hstack(blocks))


# panel widths 1-8 put the planted rows of a 20-row matrix on both sides of panel edges
panel_widths = st.integers(1, 8)


@settings(max_examples=200, deadline=None)
@given(planted_matrices(), panel_widths)
def test_check_triorthogonal_witness_matches_pair_by_pair_scan(H, width):
    expected = pair_by_pair_witness(H)
    with mock.patch.object(starproduct, "_PANEL", width):
        assert check_triorthogonal(H) == (expected is None, expected)


def _near_float_bound(p, seed):
    """Six rows with every triple sum near p(p-1)^3, one planted triple among them.

    The first p columns repeat the all-(p-1) column, which adds p(p-1)^2 and
    p(p-1)^3, both 0 (mod p), to every pair and triple sum; six private
    columns and the four of a planted triple follow, so n = p + 10.
    """
    rng = np.random.default_rng(seed)
    block = np.zeros((6, 4), dtype=np.int64)
    rows = sorted(rng.choice(6, size=3, replace=False))
    block[rows] = _planted_triple(rng, p)
    return FpMatrix(p, np.hstack([np.full((6, p), p - 1), np.diag(rng.integers(1, p, size=6)), block]))


# 9739 and 9743 are consecutive primes; (p + 10)(p-1)^3 crosses 2^53 between them
@pytest.mark.parametrize("p, exact", [(9739, True), (9743, False)])
@pytest.mark.parametrize("seed", range(4))
def test_check_triorthogonal_matches_oracle_on_both_sides_of_the_float_bound(p, exact, seed):
    H = _near_float_bound(p, seed)
    assert _float64_exact(H.ncols, (p - 1) ** 3) is exact
    expected = pair_by_pair_witness(H)
    assert expected is not None and expected.kind == "triple"
    assert check_triorthogonal(H) == (False, expected)


def test_check_triorthogonal_passes_f7_counterexample():
    # tri-orthogonal by the pair/triple conditions although its cubic identity fails
    H = FpMatrix.from_rows(7, [[1, 1, 2], [2, 4, 4]])
    assert pair_by_pair_witness(H) is None
    assert check_triorthogonal(H) == (True, None)
    # sum h_0^2 h_1 = 1 and sum h_1^2 h_0 = 3 (mod 7)
    assert check_phase_identity(H) == (False, StarWitness("triple", (0, 0, 1), 1))
    flipped = FpMatrix.from_rows(7, [[2, 4, 4], [1, 1, 2]])
    assert check_phase_identity(flipped) == (False, StarWitness("triple", (0, 0, 1), 3))
    with pytest.raises(ValueError):
        check_phase_identity(FpMatrix.from_rows(3, [[1, 1, 1]]))


def triple_by_triple_witness(G):
    """The scan check_triply_even batches: non-decreasing triples (a, b, c), lexicographically."""
    p, A, m = G.p, G.array, G.nrows
    for a in range(m):
        for b in range(a, m):
            ab = A[a] * A[b] % p
            sums = matmul_mod(A[b:], ab[:, None], p).ravel()
            for off, val in enumerate(sums):
                if val:
                    return StarWitness("triple", (a, b, b + off), int(val))
    return None


CUBIC_MONOMIALS = {s: list(itertools.combinations_with_replacement(range(s), 3)) for s in (1, 2, 3)}


def _planted_monomial(rng, p, triple):
    """Columns on the rows of a non-decreasing triple whose only nonzero cubic sum is that triple's.

    Over the s distinct rows, a column is a point x of F_p^s and a triple
    (i, j, k) of them sums x_i x_j x_k.  Multiplicities w in the kernel of
    every other cubic monomial, with a nonzero sum on the triple's own, give
    the columns: point r repeated w_r times.
    """
    rows = sorted(set(triple))
    target = tuple(rows.index(r) for r in triple)
    monomials = CUBIC_MONOMIALS[len(rows)]
    while True:
        points = rng.integers(0, p, size=(len(rows), 12))
        values = np.stack([points[i] * points[j] % p * points[k] % p for i, j, k in monomials])
        others = [v for mono, v in zip(monomials, values) if mono != target]
        w = _random_in_kernel(rng, others, p) if others else rng.integers(1, p, size=12)
        if int(values[monomials.index(target)] @ w) % p:
            return rows, np.repeat(points, w, axis=1)


@st.composite
def planted_spans(draw):
    """Triply even rows (every column repeated p times) plus planted non-decreasing triples."""
    p = draw(st.sampled_from((3, 5, 7, 11)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = int(rng.integers(1, 21))
    blocks = [np.repeat(rng.integers(0, p, size=(m, 3)), p, axis=1)]
    for _ in range(rng.integers(0, 5)):
        triple = sorted(rng.choice(m, size=3))
        rows, columns = _planted_monomial(rng, p, triple)
        block = np.zeros((m, columns.shape[1]), dtype=np.int64)
        block[rows] = columns
        blocks.append(block)
    return FpMatrix(p, np.hstack(blocks))


@settings(max_examples=200, deadline=None)
@given(planted_spans(), panel_widths)
def test_check_triply_even_witness_matches_triple_by_triple_scan(G, width):
    expected = triple_by_triple_witness(G)
    with mock.patch.object(starproduct, "_PANEL", width):
        assert check_triply_even(G) == (expected is None, expected)


@st.composite
def phase_matrices(draw):
    """A sparse m x n base at p in {5, 7, 11}, maybe with a planted triple: (H, n, triple or None).

    About 40% of the base entries are nonzero, so roughly half the bases
    keep the identity.  A planted (a, a, b), (a, b, b) or (a, b, c) appends
    columns whose only nonzero cubic sum is that triple's.
    """
    p = draw(st.sampled_from((5, 7, 11)))
    # sizes and kinds come from the seeded generator, uniform where hypothesis would favour small draws
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = int(rng.integers(0, 5)), int(rng.integers(1, 9))
    A = rng.integers(1, p, size=(m, n)) * (rng.random((m, n)) < 0.4)
    shape = (None, "aab", "abb", "abc")[rng.integers(4)]
    if shape is None or m < len(set(shape)):
        return FpMatrix(p, A), n, None
    chosen = sorted(int(r) for r in rng.choice(m, size=len(set(shape)), replace=False))
    triple = tuple(chosen[ord(x) - ord("a")] for x in shape)
    rows, columns = _planted_monomial(rng, p, triple)
    block = np.zeros((m, columns.shape[1]), dtype=np.int64)
    block[rows] = columns
    return FpMatrix(p, np.hstack([A, block])), n, triple


def _sweep_passes(H):
    try:
        phase_identity_sweep(H, H.p**H.nrows)
    except PhaseIdentityError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(phase_matrices())
def test_check_phase_identity_matches_the_exhaustive_sweep(drawn):
    H, n, planted = drawn
    ok, witness = check_phase_identity(H)
    assert ok == _sweep_passes(H)
    if ok:
        assert witness is None
        return
    a, b, c = witness.indices
    assert witness.kind == "triple" and len({a, b, c}) > 1
    p, A = H.p, H.array
    assert witness.value == int((A[a] * A[b] % p * A[c]).sum() % p)
    # on a base that keeps the identity, the planted triple is the only nonzero sum
    if planted is not None and _sweep_passes(FpMatrix(p, A[:, :n])):
        assert witness.indices == planted
