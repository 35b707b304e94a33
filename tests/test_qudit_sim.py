"""Coset-state simulation and end-to-end transversal-gate verification."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import triortho.qudit_sim as qudit_sim
from triortho.fplinalg import FpVector, PrimeModulus
from triortho.gates import GateSpec, find_p3_code, gate_phase, third_level_gate
from triortho.qudit_sim import (
    STATE_CAP,
    QuditState,
    ResourceCapError,
    apply_transversal_diagonal,
    apply_x_string,
    apply_z_string,
    encode,
    verify_transversal_action,
)
from triortho.triortho_css import build_code

# Dense state-vector reference: p^n amplitudes, qudit 0 the most significant digit.


def all_labels(p, n):
    """Every label as a row of digits, in dense index order."""
    index = np.arange(p**n, dtype=np.int64)
    return np.stack([index // p ** (n - 1 - pos) % p for pos in range(n)], axis=1)


def dense_index(p, labels):
    return np.asarray(labels, dtype=np.int64) @ p ** np.arange(labels.shape[1] - 1, -1, -1, dtype=np.int64)


def to_dense(state):
    vec = np.zeros(state.p**state.n, dtype=np.complex128)
    vec[dense_index(state.p, state.labels)] = state.amplitudes
    return vec


def dense_diagonal(vec, p, n, g):
    table = np.array([np.exp(2j * np.pi * gate_phase(g, j).numerator / g.denominator) for j in range(p)])
    out = vec.copy()
    for column in all_labels(p, n).T:
        out *= table[column]
    return out


def dense_x(vec, p, n, h):
    out = np.zeros_like(vec)
    out[dense_index(p, (all_labels(p, n) + h) % p)] = vec
    return out


def dense_z(vec, p, n, f):
    return vec * np.exp(2j * np.pi * (all_labels(p, n) @ f % p) / p)


def dense_inner(a, b):
    """<a|b> over all p^n amplitudes: every real product rounded once, each part summed exactly."""
    real = math.fsum(np.concatenate([a.real * b.real, a.imag * b.imag]))
    return complex(real, math.fsum(np.concatenate([a.real * b.imag, -(a.imag * b.real)])))


def assert_close(coset, dense):
    # numpy's complex product may round the last bit differently by array length
    # and in place (a large temporary is reused), so phases match to a few ulps
    assert np.abs(to_dense(coset) - dense).max() < 1e-14


def support_state(p, n, indices, rng):
    """Random amplitudes on the labels with the given dense indices."""
    amp = rng.normal(size=len(indices)) + 1j * rng.normal(size=len(indices))
    return QuditState(PrimeModulus(p), n, all_labels(p, n)[list(indices)], amp / np.linalg.norm(amp))


def basis_state(p, n, digits):
    return QuditState(PrimeModulus(p), n, [digits], [1.0])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_coset_simulator_matches_dense_oracle(data):
    p = data.draw(st.sampled_from([3, 5, 7]), label="p")
    n = data.draw(st.integers(1, 6), label="n")
    supports = st.lists(st.integers(0, p**n - 1), min_size=1, max_size=min(p**n, 24), unique=True)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    a = support_state(p, n, data.draw(supports, label="support a"), rng)
    b = support_state(p, n, data.draw(supports, label="support b"), rng)
    digits = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    h = np.array(data.draw(digits, label="h"), dtype=np.int64)
    f = np.array(data.draw(digits, label="f"), dtype=np.int64)
    g = third_level_gate(p) if data.draw(st.booleans(), label="level-3 gate") else GateSpec.make(p, 2, p - 1)

    assert a.inner(b) == dense_inner(to_dense(a), to_dense(b))
    assert_close(apply_transversal_diagonal(a, g), dense_diagonal(to_dense(a), p, n, g))
    shifted = apply_x_string(a, FpVector(p, h))
    assert np.array_equal(to_dense(shifted), dense_x(to_dense(a), p, n, h))
    # the shift moves the support off itself unless h = 0, so inner aligns two label sets
    assert a.inner(shifted) == dense_inner(to_dense(a), to_dense(shifted))
    assert shifted.inner(b) == dense_inner(to_dense(shifted), to_dense(b))
    assert_close(apply_z_string(a, FpVector(p, f)), dense_z(to_dense(a), p, n, f))


def test_inner_is_correctly_rounded_and_ignores_row_order():
    rng = np.random.default_rng(7)
    p, n = 5, 4
    a = support_state(p, n, rng.choice(p**n, 300, replace=False), rng)
    b = support_state(p, n, rng.choice(p**n, 300, replace=False), rng)
    exact = dense_inner(to_dense(a), to_dense(b))
    assert a.inner(b) == exact
    for _ in range(3):
        order = rng.permutation(len(a.labels))
        shuffled = QuditState(a.modulus, n, a.labels[order], a.amplitudes[order])
        assert np.array_equal(shuffled.labels, a.labels)
        assert shuffled.inner(b) == exact and b.inner(shuffled) == b.inner(a)


def test_max_deviation_ignores_support_row_order(monkeypatch):
    code = build_code(7, 2, 1)
    plain = verify_transversal_action(code, third_level_gate(7))["max_deviation"]
    rng = np.random.default_rng(3)
    support = qudit_sim.encoded_state_support
    monkeypatch.setattr(
        qudit_sim, "encoded_state_support", lambda *args: rng.permutation(support(*args))
    )
    assert verify_transversal_action(code, third_level_gate(7))["max_deviation"] == plain


def test_basis_state_indexing():
    # X shifts of |0...0> land on the label whose digits are the shift
    s = apply_x_string(basis_state(3, 1, [0]), FpVector(3, [2]))
    assert s.labels.tolist() == [[2]] and s.amplitudes.tolist() == [1.0]
    s = apply_x_string(basis_state(5, 2, [0, 0]), FpVector(5, [1, 2]))
    assert s.labels.tolist() == [[1, 2]]
    assert np.flatnonzero(to_dense(s)).tolist() == [7]  # qudit 0 is the most significant digit
    with pytest.raises(ValueError):
        apply_x_string(s, FpVector(5, [1]))


def test_state_cap():
    # refused from the shape alone, before any label is read
    too_many = np.broadcast_to(np.int64(0), (STATE_CAP // 11 + 1, 11))
    with pytest.raises(ResourceCapError):
        QuditState(PrimeModulus(5), 11, too_many, np.zeros(1))
    # exactly at the cap the shape is admitted and the amplitude count is checked next
    with pytest.raises(ValueError):
        QuditState(PrimeModulus(5), 16, np.broadcast_to(np.int64(0), (STATE_CAP // 16, 16)), np.zeros(1))
    # an encoded state whose coset alone passes the cap: 41^6 labels of 35 digits
    with pytest.raises(ResourceCapError):
        encode(build_code(41, 12, 6), FpVector(41, [0] * 6))


def test_inner_matches_vdot_across_chunks():
    rng = np.random.default_rng(12)
    p, n = 3, 11
    a = support_state(p, n, rng.choice(p**n, 5000, replace=False), rng)
    b = support_state(p, n, rng.choice(p**n, 5000, replace=False), rng)
    assert abs(a.inner(b) - np.vdot(to_dense(a), to_dense(b))) < 1e-12
    assert abs(a.inner(a) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        a.inner(basis_state(3, 2, [0, 0]))


def test_state_norm_validation():
    with pytest.raises(ValueError):
        QuditState(PrimeModulus(3), 1, [[0], [1]], [1.0, 1.0])
    with pytest.raises(ValueError, match="duplicate"):
        QuditState(PrimeModulus(3), 2, [[0, 1], [2, 2], [0, 1]], [0.6, 0.0, 0.8])
    with pytest.raises(ValueError):
        QuditState(PrimeModulus(3), 1, [[3]], [1.0])
    with pytest.raises(ValueError):
        QuditState(PrimeModulus(3), 2, [[0]], [1.0])
    with pytest.raises(ValueError):
        QuditState(PrimeModulus(3), 1, [[0], [1]], [1.0])


def test_encode_uniform_support():
    code = build_code(7, 2, 1)
    s = encode(code, FpVector(7, [0]))
    assert s.labels.shape == (7, code.n)
    assert s.labels[0].tolist() == [0] * code.n  # the all-zeros word sits in span(H0), first in order
    assert [tuple(row) for row in s.labels.tolist()] == sorted(tuple(row) for row in s.labels.tolist())
    assert np.allclose(s.amplitudes, 1 / np.sqrt(7))


def test_encode_orthonormal():
    code = build_code(7, 2, 1)
    states = [encode(code, FpVector(7, [u])) for u in range(3)]
    for i, si in enumerate(states):
        for j, sj in enumerate(states):
            assert abs(si.inner(sj) - (1.0 if i == j else 0.0)) < 1e-12


def test_encode_stabilizer_eigenstate():
    code = build_code(7, 2, 1)
    for u in (0, 1):
        s = encode(code, FpVector(7, [u]))
        for i in range(code.H0.nrows):
            shifted = apply_x_string(s, code.H0.row(i))
            assert np.array_equal(shifted.labels, s.labels)
            assert np.abs(shifted.amplitudes - s.amplitudes).max() < 1e-9
        for i in range(code.G.nrows):
            phased = apply_z_string(s, code.G.row(i))
            assert np.abs(phased.amplitudes - s.amplitudes).max() < 1e-9
    # a non-stabilizer shift moves the support entirely
    s = encode(code, FpVector(7, [0]))
    moved = apply_x_string(s, FpVector(7, [1, 0, 0, 0, 0, 0]))
    assert abs(s.inner(moved)) < 1e-12


def test_apply_transversal_diagonal_single_qudit():
    g = third_level_gate(5)
    s = apply_transversal_diagonal(basis_state(5, 1, [2]), g)
    assert s.amplitudes[0] == np.exp(2j * np.pi * 3 / 5)  # 2^3 = 8 = 3 mod 5
    zero = basis_state(5, 1, [0])
    assert apply_transversal_diagonal(zero, g).amplitudes.tolist() == [1.0]


def test_apply_transversal_diagonal_norm_preserved():
    rng = np.random.default_rng(41)
    s = support_state(5, 3, rng.choice(125, 40, replace=False), rng)
    out = apply_transversal_diagonal(s, third_level_gate(5))
    assert np.array_equal(out.labels, s.labels)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        apply_transversal_diagonal(s, third_level_gate(7))


def permute_qudits(state, perm):
    # qudit new_pos takes the digit of qudit perm[new_pos]
    return QuditState(state.modulus, state.n, state.labels[:, list(perm)], state.amplitudes)


def test_transversal_gate_commutes_with_relabeling():
    rng = np.random.default_rng(99)
    s = support_state(5, 3, rng.choice(125, 60, replace=False), rng)
    g = third_level_gate(5)
    for perm in ((2, 0, 1), (1, 0, 2)):
        left = permute_qudits(apply_transversal_diagonal(s, g), perm)
        right = apply_transversal_diagonal(permute_qudits(s, perm), g)
        assert np.array_equal(left.labels, right.labels)
        assert np.abs(left.amplitudes - right.amplitudes).max() < 1e-12


def test_verify_transversal_action_small_codes():
    for p, l, k in ((5, 2, 1), (7, 2, 1)):
        code = build_code(p, l, k)
        report = verify_transversal_action(code, third_level_gate(p))
        assert report["code_id"] == code.code_id
        assert report["gate"] == "U_{1,3}"
        assert report["failures"] == []
        assert report["max_deviation"] < 1e-9
        json.dumps(report)  # report is interchange-ready


def test_verify_u_zero_phase_is_trivial():
    code = build_code(7, 2, 1)
    base = encode(code, FpVector(7, [0]))
    s1 = apply_transversal_diagonal(base, third_level_gate(7))
    assert abs(1.0 - base.inner(s1)) < 1e-12


def test_verify_p3_searched_code():
    code = find_p3_code()
    report = verify_transversal_action(code, third_level_gate(3))
    assert report["gate"] == "U_{2,1}"
    assert report["failures"] == []
    assert report["max_deviation"] < 1e-9


def test_verify_flags_tampered_epsilon():
    code = build_code(7, 2, 1)
    bad = dataclasses.replace(code, epsilon=FpVector(7, [2]))
    report = verify_transversal_action(bad, third_level_gate(7))
    assert report["failures"]
    entry = report["failures"][0]
    assert entry["claimed_numerator"] != entry["exact_numerator"]
    assert report["max_deviation"] > 1e-3


def test_verify_cap_and_gate_validation(monkeypatch):
    # 13^(1 + 3) labels of 12 digits fit; (41,12,6) needs 41^12 labels of 35 digits
    assert verify_transversal_action(build_code(13, 4, 1), third_level_gate(13))["failures"] == []
    big = build_code(41, 12, 6)
    monkeypatch.setattr(
        qudit_sim, "encoded_state_support", lambda *args: pytest.fail("state built past the cap")
    )
    with pytest.raises(ResourceCapError):
        verify_transversal_action(big, third_level_gate(41))
    code = build_code(7, 2, 1)
    with pytest.raises(ValueError):
        verify_transversal_action(code, GateSpec.make(7, 1, 1))
    with pytest.raises(ValueError):
        verify_transversal_action(code, third_level_gate(5))
