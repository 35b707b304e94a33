"""State-vector simulation and end-to-end transversal-gate verification."""

import dataclasses
import functools
import json

import numpy as np
import pytest

from triortho.fplinalg import FpVector, PrimeModulus
from triortho.gates import GateSpec, find_p3_code, third_level_gate
from triortho.qudit_sim import (
    QuditState,
    ResourceCapError,
    apply_transversal_diagonal,
    apply_x_string,
    apply_z_string,
    encode,
    verify_transversal_action,
)
from triortho.triortho_css import build_code


def random_state(rng, p, n):
    amp = rng.normal(size=p**n) + 1j * rng.normal(size=p**n)
    amp /= np.linalg.norm(amp)
    return QuditState(PrimeModulus(p), n, amp)


def basis_state(p, n, digits):
    # |digits>: unit amplitude at the base-p label, qudit 0 the most significant digit
    amp = np.zeros(p**n, dtype=np.complex128)
    amp[functools.reduce(lambda label, d: label * p + d, digits, 0)] = 1.0
    return QuditState(PrimeModulus(p), n, amp)


def test_basis_state_indexing():
    # X shifts of |0...0> land on the label whose base-p digits are the shift
    s = apply_x_string(basis_state(3, 1, [0]), FpVector(3, [2]))
    assert s.amplitudes[2] == 1.0 and np.count_nonzero(s.amplitudes) == 1
    s = apply_x_string(basis_state(5, 2, [0, 0]), FpVector(5, [1, 2]))
    assert s.amplitudes[7] == 1.0  # qudit 0 is the most significant digit
    assert s.amplitudes.tolist() == basis_state(5, 2, [1, 2]).amplitudes.tolist()
    with pytest.raises(ValueError):
        apply_x_string(s, FpVector(5, [1]))


def test_state_cap():
    with pytest.raises(ResourceCapError):
        QuditState(PrimeModulus(5), 11, np.zeros(1))  # 5^11 > 2^24, refused before any amplitude is read


def test_inner_matches_vdot_across_chunks():
    rng = np.random.default_rng(12)
    a, b = random_state(rng, 3, 11), random_state(rng, 3, 11)  # 3^11 amplitudes: three chunks
    assert abs(a.inner(b) - np.vdot(a.amplitudes, b.amplitudes)) < 1e-12
    assert abs(a.inner(a) - 1.0) < 1e-12


def test_state_norm_validation():
    with pytest.raises(ValueError):
        QuditState(PrimeModulus(3), 1, np.array([1.0, 1.0, 0.0]))


def test_encode_uniform_support():
    code = build_code(7, 2, 1)
    s = encode(code, FpVector(7, [0]))
    nonzero = np.nonzero(s.amplitudes)[0]
    assert len(nonzero) == 7
    assert 0 in nonzero  # the all-zeros word sits in span(H0)
    assert np.allclose(s.amplitudes[nonzero], 1 / np.sqrt(7))


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
    assert abs(s.amplitudes[2] - np.exp(2j * np.pi * 3 / 5)) < 1e-12
    zero = basis_state(5, 1, [0])
    assert np.allclose(apply_transversal_diagonal(zero, g).amplitudes, zero.amplitudes)


def test_apply_transversal_diagonal_norm_preserved():
    rng = np.random.default_rng(41)
    s = random_state(rng, 5, 3)
    out = apply_transversal_diagonal(s, third_level_gate(5))
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        apply_transversal_diagonal(s, third_level_gate(7))


def permute_qudits(state, perm):
    p, n = state.p, state.n
    indices = np.arange(state.amplitudes.shape[0])
    target = np.zeros_like(indices)
    for new_pos, old_pos in enumerate(perm):
        digit = (indices // p ** (n - 1 - old_pos)) % p
        target += digit * p ** (n - 1 - new_pos)
    amp = np.zeros_like(state.amplitudes)
    amp[target] = state.amplitudes
    return QuditState(state.modulus, n, amp)


def test_transversal_gate_commutes_with_relabeling():
    rng = np.random.default_rng(99)
    s = random_state(rng, 5, 3)
    g = third_level_gate(5)
    for perm in ((2, 0, 1), (1, 0, 2)):
        left = permute_qudits(apply_transversal_diagonal(s, g), perm)
        right = apply_transversal_diagonal(permute_qudits(s, perm), g)
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


def test_verify_cap_and_gate_validation():
    big = build_code(13, 4, 1)
    with pytest.raises(ResourceCapError):
        verify_transversal_action(big, third_level_gate(13))
    code = build_code(7, 2, 1)
    with pytest.raises(ValueError):
        verify_transversal_action(code, GateSpec.make(7, 1, 1))
    with pytest.raises(ValueError):
        verify_transversal_action(code, third_level_gate(5))
