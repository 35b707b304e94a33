"""Phase gates, the level-3 gate, and the exact phase-sum identities."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triortho import gates
from triortho.fplinalg import FpMatrix, FpVector, is_prime
from triortho.gates import (
    GateSpec,
    PhaseExponent,
    PhaseIdentityError,
    cubic_phase_sum,
    find_p3_code,
    gate_phase,
    p3_phase_sum,
    phase_identity_sweep,
    ternary_mod9_sum,
    third_level_gate,
)
from triortho.starproduct import power_weight
from triortho.triortho_css import build_code, validate_code


def test_gate_spec_validation():
    GateSpec.make(5, 1, 3)
    with pytest.raises(ValueError):
        GateSpec.make(5, 1, 0)
    with pytest.raises(ValueError):
        GateSpec.make(5, 1, 5)  # a must stay below p
    with pytest.raises(ValueError):
        GateSpec.make(5, 0, 1)
    with pytest.raises(ValueError):
        GateSpec.make(3, 40, 1)  # 3^40 overflows 64-bit phase denominators


def test_phase_exponent_validation():
    PhaseExponent(0, 1)
    with pytest.raises(ValueError):
        PhaseExponent(5, 5)
    with pytest.raises(ValueError):
        PhaseExponent(-1, 5)


def test_gate_phase_examples():
    assert gate_phase(GateSpec.make(5, 1, 3), 2) == PhaseExponent(3, 5)  # 8 mod 5
    assert gate_phase(GateSpec.make(3, 2, 1), 2) == PhaseExponent(2, 9)
    for g in (GateSpec.make(5, 1, 3), GateSpec.make(3, 2, 1), GateSpec.make(7, 1, 1)):
        assert gate_phase(g, 0).numerator == 0
    z7 = GateSpec.make(7, 1, 1)
    assert [gate_phase(z7, j).numerator for j in range(7)] == list(range(7))
    with pytest.raises(ValueError):
        gate_phase(z7, 7)


def test_hierarchy_level():
    # U_{m,a} sits at level (p-1)(m-1) + a of the Clifford hierarchy
    def level(g):
        return (g.p - 1) * (g.m - 1) + g.a

    assert level(GateSpec.make(5, 1, 3)) == 3
    assert level(GateSpec.make(3, 2, 1)) == 3
    assert level(GateSpec.make(7, 1, 1)) == 1


def test_third_level_gate():
    g3 = third_level_gate(3)
    assert (g3.m, g3.a) == (2, 1)
    g5 = third_level_gate(5)
    assert (g5.m, g5.a) == (1, 3)
    # level (p-1)(m-1) + a = 3 for every odd prime
    for p in range(3, 101):
        if is_prime(p):
            g = third_level_gate(p)
            assert (p - 1) * (g.m - 1) + g.a == 3
    with pytest.raises(ValueError):
        third_level_gate(2)


def test_cubic_phase_sum_examples():
    code = build_code(7, 2, 1)
    assert cubic_phase_sum(code.H, FpVector(7, [1, 0])).numerator == 1
    assert cubic_phase_sum(code.H, FpVector(7, [0, 0])).numerator == 0
    # pure H0 shift: 1^3 + ... + 6^3 = 441 = 0 (mod 7), consistent with
    # the row being a punctured triply-even word
    assert cubic_phase_sum(code.H, FpVector(7, [0, 1])).numerator == 0
    assert power_weight(code.H0.row(0), 3) == 0


def test_cubic_phase_sum_identity_exhaustive():
    for p, l, k in ((5, 2, 1), (7, 2, 1), (11, 3, 2), (13, 4, 1)):
        code = build_code(p, l, k, budget=10**4)
        H = code.H
        m = H.nrows
        eps = np.array([power_weight(H.row(a), 3) for a in range(m)], dtype=np.int64)
        count = p**m
        coeffs = np.empty((count, m), dtype=np.int64)
        for r in range(m):
            coeffs[:, r] = (np.arange(count) // p**r) % p
        words = coeffs @ H.array % p
        lhs = (words**3 % p).sum(axis=1) % p
        rhs = (coeffs**3 % p) @ eps % p
        assert (lhs == rhs).all(), (p, l, k)
        # spot-check the scalar path agrees with the vectorized sweep
        u = FpVector(p, coeffs[count // 2])
        assert cubic_phase_sum(H, u).numerator == int(lhs[count // 2])


def test_cubic_phase_sum_rejects_non_construction_matrix():
    # tri-orthogonal by the pair/triple conditions, yet the cubic identity
    # fails: repeated-index cross terms are not controlled by those conditions
    H = FpMatrix.from_rows(7, [[1, 1, 2], [2, 4, 4]])
    with pytest.raises(PhaseIdentityError):
        cubic_phase_sum(H, FpVector(7, [1, 1]))


def test_cubic_phase_sum_input_validation():
    code = build_code(7, 2, 1)
    with pytest.raises(ValueError):
        cubic_phase_sum(code.H, FpVector(7, [1]))  # one coefficient per row
    with pytest.raises(ValueError):
        cubic_phase_sum(FpMatrix.from_rows(3, [[1, 1]]), FpVector(3, [1]))


def test_ternary_mod9_sum_examples():
    assert ternary_mod9_sum([2, 2]) == 4
    for a in range(9):
        assert ternary_mod9_sum([a, 0]) == a
        assert ternary_mod9_sum([a]) == a
    assert ternary_mod9_sum([]) == 0
    with pytest.raises(ValueError):
        ternary_mod9_sum([9])
    with pytest.raises(ValueError):
        ternary_mod9_sum([-1])


def test_ternary_mod9_sum_exhaustive_short():
    from itertools import product

    for length in (2, 3, 4):
        for vals in product(range(9), repeat=length):
            assert ternary_mod9_sum(vals) == sum(vals) % 9, vals


def test_ternary_mod9_sum_random_long():
    # the 10^5 seeded cases, checked in one batched call per length
    rng = np.random.default_rng(90909)
    by_length = {}
    for _ in range(10**5):
        vals = rng.integers(0, 9, size=rng.integers(5, 17))
        by_length.setdefault(len(vals), []).append(vals)
    assert sum(map(len, by_length.values())) == 10**5
    for cases in by_length.values():
        batch = np.stack(cases)
        assert ternary_mod9_sum(batch).tolist() == (batch.sum(axis=1) % 9).tolist()


def test_ternary_mod9_sum_rows_match_single_calls():
    rng = np.random.default_rng(17)
    batch = rng.integers(0, 9, size=(50, 7))
    assert ternary_mod9_sum(batch).tolist() == [ternary_mod9_sum(row.tolist()) for row in batch]
    assert ternary_mod9_sum(np.zeros((3, 0), dtype=np.int64)).tolist() == [0, 0, 0]
    # the first bad entry in row-major order is named, as a single call names it
    for bad, first in ((np.array([[1, 2], [9, -1]]), np.int64(9)), (np.ones((2, 2)), np.float64(1.0))):
        with pytest.raises(ValueError) as raised:
            ternary_mod9_sum(bad)
        assert str(raised.value) == f"values must be integers in [0, 9), got {first!r}"


def test_p3_phase_sum_basics():
    nine_ones = FpMatrix.from_rows(3, [[1] * 9])
    for c in range(3):
        # any multiple of the all-ones row keeps integer sum 0 mod 9
        assert p3_phase_sum(nine_ones, FpVector(3, [c])).numerator == 0
    assert p3_phase_sum(nine_ones, FpVector(3, [0])).numerator == 0


def test_p3_phase_sum_rejects_plain_triorthogonal_row():
    H = FpMatrix.from_rows(3, [[2]])
    with pytest.raises(PhaseIdentityError):
        p3_phase_sum(H, FpVector(3, [2]))
    with pytest.raises(ValueError):
        p3_phase_sum(FpMatrix.from_rows(5, [[1]]), FpVector(5, [1]))


def test_find_p3_code():
    code = find_p3_code()
    assert code.p == 3
    assert code.k == 2
    assert code.H0.nrows == 1
    assert code.n <= 14
    assert validate_code(code)["passed"]
    # mod-9 lifted row sums: 1 per logical row, 0 for the stabilizer row
    assert [int(code.H1.array[a].sum()) % 9 for a in range(code.k)] == [1, 1]
    assert int(code.H0.array[0].sum()) % 9 == 0
    # the identity holds for every coefficient vector, logical or shift
    for idx in range(3**3):
        u = FpVector(3, [(idx // 3**r) % 3 for r in range(3)])
        p3_phase_sum(code.H, u)


def test_find_p3_code_needs_room():
    with pytest.raises(ValueError):
        find_p3_code(max_cols=7)
    with pytest.raises(ValueError):
        find_p3_code(logical_rows=0)


def odometer(count, rows, p):
    # u_r = (index // p^r) % p in Python integers, so no power can overflow
    return [[(index // p**r) % p for r in range(rows)] for index in range(count)]


def disjoint_rows(rng, p, rows, ncols):
    # rows on disjoint supports: every cross term of the cubic identity vanishes
    owner = rng.integers(0, rows + 1, size=ncols)  # owner == rows leaves the column empty
    values = rng.integers(1, p, size=ncols, dtype=np.int64)
    return np.where(np.arange(rows)[:, None] == owner, values, 0)


@settings(max_examples=30, deadline=None)
@given(
    p=st.sampled_from([5, 13, 2**31 - 1]),
    rows=st.integers(1, 4),
    ncols=st.integers(4, 40),
    step=st.integers(1, 16),
    extra=st.integers(0, 40),
    planted=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_sweep_matches_per_vector_cubic_phase_sum(p, rows, ncols, step, extra, planted, seed):
    rng = np.random.default_rng(seed)
    A = disjoint_rows(rng, p, rows, ncols)
    if planted and rows > 1:
        # one entry shared by rows 0 and 1 leaves sum h_0^2 h_1 nonzero, so the identity fails
        A[:2, 0] = rng.integers(1, p, size=2)
    H = FpMatrix(p, A)
    count = min(p**rows, 3 * step + extra)  # several blocks of `step` vectors when p^rows allows
    expected, failure = [], None
    for u in odometer(count, rows, p):
        try:
            expected.append(cubic_phase_sum(H, FpVector(p, u)).numerator)
        except PhaseIdentityError as exc:
            failure = str(exc)
            break
    with mock.patch.object(gates, "_SWEEP_ENTRIES", step * ncols):
        if failure is None:
            assert phase_identity_sweep(H, count).tolist() == expected
        else:
            with pytest.raises(PhaseIdentityError) as excinfo:
                phase_identity_sweep(H, count)
            assert str(excinfo.value) == failure


def test_sweep_digits_stay_exact_past_int64_powers():
    # 211^9 > 2^63: digits must come off by divmod, not by dividing by p^r
    p, rows = 211, 12
    start = p**8 + 3 * p**7 + 17  # below 2^63, with a nonzero digit 8
    got = gates._coefficients(start, start + 50, rows, p)
    assert got.tolist() == [[(i // p**r) % p for r in range(rows)] for i in range(start, start + 50)]
    H = FpMatrix(p, disjoint_rows(np.random.default_rng(3), p, rows, 40))
    eps = [sum(pow(int(x), 3, p) for x in row) % p for row in H.tolist()]
    numerators = phase_identity_sweep(H, 500)
    assert numerators.tolist() == [
        sum(pow(ua, 3, p) * e for ua, e in zip(u, eps)) % p for u in odometer(500, rows, p)
    ]


def test_sweep_counterexample_raises_where_cubic_phase_sum_does():
    # the F_7 matrix is tri-orthogonal, yet the identity fails first at u = [1, 1]
    H = FpMatrix.from_rows(7, [[1, 1, 2], [2, 4, 4]])
    with pytest.raises(PhaseIdentityError) as swept:
        phase_identity_sweep(H, 49)
    with pytest.raises(PhaseIdentityError) as single:
        cubic_phase_sum(H, FpVector(7, [1, 1]))
    assert str(swept.value) == str(single.value)
    assert str(swept.value) == "cubic phase identity fails for u=[1, 1]: sum f^3 = 4 but sum u^3 eps = 6 (mod 7)"
    # the vectors before it all pass
    assert phase_identity_sweep(H, 8).tolist() == [cubic_phase_sum(H, FpVector(7, u)).numerator for u in odometer(8, 2, 7)]


def test_sweep_at_p3_agrees_with_p3_phase_sum():
    code = find_p3_code()
    rows = code.H.nrows
    expected = [p3_phase_sum(code.H, FpVector(3, u)).numerator for u in odometer(3**rows, rows, 3)]
    assert phase_identity_sweep(code.H, 3**rows).tolist() == expected
    with pytest.raises(PhaseIdentityError) as swept:
        phase_identity_sweep(FpMatrix.from_rows(3, [[2]]), 3)
    with pytest.raises(PhaseIdentityError) as single:
        p3_phase_sum(FpMatrix.from_rows(3, [[2]]), FpVector(3, [2]))
    assert str(swept.value) == str(single.value)


def per_vector_p3_phase_sum(H, u):
    # the qutrit identity one vector at a time, summed mod 9 from ternary digits
    f = FpVector(3, u.array @ H.array % 3)
    lhs = ternary_mod9_sum(int(x) for x in f)
    eps9 = [int(H.array[a].sum()) % 9 for a in range(H.nrows)]
    rhs = sum(int(ua) * e for ua, e in zip(u, eps9)) % 9
    if lhs != rhs:
        raise PhaseIdentityError(
            f"qutrit phase identity fails for u={u.tolist()}: sum f = {lhs} but sum u eps = {rhs} (mod 9)"
        )
    return lhs


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 4),
    ncols=st.integers(1, 15),
    step=st.integers(1, 16),
    extra=st.integers(0, 40),
    planted=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_sweep_at_p3_matches_per_vector_oracle(rows, ncols, step, extra, planted, seed):
    rng = np.random.default_rng(seed)
    A = disjoint_rows(rng, 3, rows, ncols)
    if not planted:
        # a row on its own support keeps the identity when its count of 2s is a multiple of 3
        for row in A:
            twos = np.flatnonzero(row == 2)
            row[twos[: twos.size % 3]] = 1
    elif rows > 1:
        A[:2, 0] = rng.integers(1, 3, size=2)  # one shared entry couples rows 0 and 1
    H = FpMatrix(3, A)
    count = min(3**rows, 3 * step + extra)
    expected, failure = [], None
    for u in odometer(count, rows, 3):
        try:
            expected.append(per_vector_p3_phase_sum(H, FpVector(3, u)))
        except PhaseIdentityError as exc:
            failure = str(exc)
            with pytest.raises(PhaseIdentityError) as single:
                p3_phase_sum(H, FpVector(3, u))
            assert str(single.value) == failure
            break
        assert p3_phase_sum(H, FpVector(3, u)).numerator == expected[-1]
    if not planted:
        assert failure is None
    with mock.patch.object(gates, "_SWEEP_ENTRIES", step * ncols):
        if failure is None:
            assert phase_identity_sweep(H, count).tolist() == expected
        else:
            with pytest.raises(PhaseIdentityError) as excinfo:
                phase_identity_sweep(H, count)
            assert str(excinfo.value) == failure


def logical_motifs_by_counting(max_len):
    # every base-3 digit tuple, digit 0 least significant, keeping full-support rows
    # with square weight != 0 whose multiples satisfy the identity on their own support
    out = []
    for length in range(1, max_len + 1):
        for digits in range(3**length):
            v = tuple((digits // 3**i) % 3 for i in range(length))
            if 0 in v or sum(x * x for x in v) % 3 == 0:
                continue
            eps = sum(v) % 9
            if all(sum((c * x) % 3 for x in v) % 9 == c * eps % 9 for c in (1, 2)):
                out.append(v)
    return out


def stabilizer_motifs_by_counting(max_len):
    # as above, for square weight 0 and every multiple summing to 0 mod 9
    out = []
    for length in range(1, max_len + 1):
        for digits in range(3**length):
            w = tuple((digits // 3**i) % 3 for i in range(length))
            if 0 in w or sum(x * x for x in w) % 3 != 0:
                continue
            if all(sum((c * x) % 3 for x in w) % 9 == 0 for c in (1, 2)):
                out.append(w)
    return out


@pytest.mark.parametrize("max_len", range(1, 10))
def test_p3_motifs_match_base3_counting(max_len):
    assert list(gates._p3_motifs(max_len, logical=True)) == logical_motifs_by_counting(max_len)
    assert list(gates._p3_motifs(max_len, logical=False)) == stabilizer_motifs_by_counting(max_len)


def test_sweep_input_validation():
    H = FpMatrix.from_rows(7, [[1, 1, 2], [2, 4, 4]])
    with pytest.raises(ValueError):
        phase_identity_sweep(H, 50)  # only 7^2 coefficient vectors
    with pytest.raises(ValueError):
        phase_identity_sweep(FpMatrix.from_rows(2, [[1, 1]]), 1)
    assert phase_identity_sweep(H, 0).tolist() == []
