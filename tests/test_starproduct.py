import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triortho.fplinalg import FpMatrix, FpVector, kernel_basis, matmul_mod, rref
from triortho.starproduct import (
    StarWitness,
    check_triorthogonal,
    check_triply_even,
    power_weight,
    star,
    triple_weight,
    triply_even_exhaustive,
)


def vandermonde(p, l):
    return FpMatrix(p, [[pow(u, j, p) if (u or j == 0) else 0 for u in range(p)] for j in range(l)])


def test_star_examples():
    assert star(FpVector(3, [0, 1, 2]), FpVector(3, [0, 1, 2])).tolist() == [0, 1, 1]
    v = FpVector(5, [3, 1, 4, 2])
    assert star(FpVector(5, [1, 1, 1, 1]), v) == v
    # evaluation vectors multiply pointwise like the underlying polynomials
    ev_x = FpVector(5, [0, 1, 2, 3, 4])
    ev_x2 = FpVector(5, [0, 1, 4, 4, 1])
    ev_x3 = FpVector(5, [0, 1, 3, 2, 4])
    assert star(ev_x, ev_x2) == ev_x3
    with pytest.raises(ValueError):
        star(FpVector(5, [1]), FpVector(5, [1, 2]))


def test_star_fold_and_symmetry():
    rng = np.random.default_rng(5)
    for p in (3, 7):
        u, v, w = (FpVector(p, rng.integers(0, p, size=6)) for _ in range(3))
        assert star(u, v, w) == star(star(u, v), w)
        assert star(u, v) == star(v, u)
        assert triple_weight(u, v, w) == triple_weight(w, u, v)


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


def test_triply_even_modes_agree_on_random_subspaces():
    rng = np.random.default_rng(17)
    for p in (3, 5, 7):
        for _ in range(200):
            G = FpMatrix(p, rng.integers(0, p, size=(rng.integers(1, 4), rng.integers(2, 8))))
            r1 = check_triply_even(G, mode="basis_triples")
            r2 = check_triply_even(G, mode="dual_containment")
            assert r1[0] == r2[0]
            if not r1[0]:
                assert r1[1].kind == r2[1].kind == "triple"


def test_trilinearity_of_triple_weight():
    rng = np.random.default_rng(23)
    for p in (3, 5, 7, 11):
        for _ in range(20):
            u, u2, v, w = (FpVector(p, rng.integers(0, p, size=5)) for _ in range(4))
            alpha = int(rng.integers(0, p))
            lhs_vec = FpVector(p, (alpha * u.array + u2.array) % p)
            lhs = triple_weight(lhs_vec, v, w)
            rhs = (alpha * triple_weight(u, v, w) + triple_weight(u2, v, w)) % p
            assert lhs == rhs


def test_exhaustive_oracle_agrees_with_basis_check():
    rng = np.random.default_rng(31)
    seen = {True: 0, False: 0}
    for p in (3, 5, 7):
        for _ in range(30):
            G = FpMatrix(p, rng.integers(0, p, size=(2, 6)))
            _, rank, _ = rref(G)
            if p**rank > 1000:
                continue
            flag, _ = check_triply_even(G)
            assert triply_even_exhaustive(G) == flag
            seen[flag] += 1
    # known triply-even space keeps the positive branch covered
    assert triply_even_exhaustive(vandermonde(7, 2)) is True
    assert seen[False] > 0
    with pytest.raises(ValueError):
        triply_even_exhaustive(vandermonde(31, 5), max_words=1000)


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
    p = draw(st.sampled_from((7, 701, 2**31 - 1)))
    m = draw(st.integers(3, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = [np.diag(rng.integers(1, p, size=m))]
    for _ in range(draw(st.integers(0, 3))):
        rows = sorted(rng.choice(m, size=3, replace=False))
        block = np.zeros((m, 4), dtype=np.int64)
        if draw(st.booleans()):
            block[rows[:2], 0] = rng.integers(1, p, size=2)
        else:
            block[rows] = _planted_triple(rng, p)
        blocks.append(block)
    return FpMatrix(p, np.hstack(blocks))


@settings(max_examples=40, deadline=None)
@given(planted_matrices())
def test_check_triorthogonal_witness_matches_pair_by_pair_scan(H):
    expected = pair_by_pair_witness(H)
    assert check_triorthogonal(H) == (expected is None, expected)


def test_check_triorthogonal_passes_f7_counterexample():
    # tri-orthogonal by the pair/triple conditions although its cubic identity fails
    H = FpMatrix.from_rows(7, [[1, 1, 2], [2, 4, 4]])
    assert pair_by_pair_witness(H) is None
    assert check_triorthogonal(H) == (True, None)
