"""Dense state-vector simulation of small qudit registers.

Basis labels are base-p digit strings with qudit 0 the most significant
digit.  Everything here is double precision; exact phase arithmetic lives
in the gates module, and the end-to-end check compares the two against each
other as independent implementations of the same transversal-gate action.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fplinalg import FpVector, PrimeModulus, matmul_mod, powers_mod
from .gates import GateSpec, _coefficients, gate_phase, phase_identity_sweep
from .triortho_css import TriorthogonalCode, encoded_state_support

__all__ = [
    "STATE_CAP",
    "ResourceCapError",
    "QuditState",
    "encode",
    "apply_transversal_diagonal",
    "apply_x_string",
    "apply_z_string",
    "verify_transversal_action",
]

STATE_CAP = 2**24  # hard limit on p^n amplitudes
_INNER_CHUNK = 1 << 16  # amplitudes per partial sum of an inner product


class ResourceCapError(Exception):
    """The requested register exceeds the dense-simulation cap."""


def _check_cap(p: int, n: int) -> int:
    size = p**n
    if size > STATE_CAP:
        raise ResourceCapError(f"p^n = {p}^{n} = {size} exceeds the cap {STATE_CAP}")
    return size


@dataclass(frozen=True)
class QuditState:
    """Unit vector in (C^p)^(tensor n); amplitudes indexed by base-p strings."""

    modulus: PrimeModulus
    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        size = _check_cap(self.modulus.p, self.n)
        amp = np.asarray(self.amplitudes, dtype=np.complex128)
        if amp.shape != (size,):
            raise ValueError(f"amplitude vector must have length {size}")
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state norm {norm} deviates from 1 beyond 1e-9")
        amp = amp.copy()
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def p(self) -> int:
        return self.modulus.p

    def inner(self, other: "QuditState") -> complex:
        """<self|other> (conjugates this state's amplitudes).

        Summed without BLAS, in fixed chunks taken in order, so the value does
        not depend on the BLAS thread count and no full-length product is held.
        """
        a, b = self.amplitudes, other.amplitudes
        total = 0j
        for s in range(0, a.shape[0], _INNER_CHUNK):
            total += complex((np.conj(a[s : s + _INNER_CHUNK]) * b[s : s + _INNER_CHUNK]).sum())
        return total


def _place_values(p: int, n: int) -> np.ndarray:
    return np.array([p ** (n - 1 - i) for i in range(n)], dtype=np.int64)


def _digit(p: int, n: int, indices: np.ndarray, position: int) -> np.ndarray:
    return (indices // p ** (n - 1 - position)) % p


def encode(code: TriorthogonalCode, u: FpVector) -> QuditState:
    """Uniform superposition over the coset u·H1 + span(H0)."""
    size = _check_cap(code.p, code.n)
    support = encoded_state_support(code, u)
    pv = _place_values(code.p, code.n)
    amp = np.zeros(size, dtype=np.complex128)
    scale = 1.0 / np.sqrt(len(support))
    for word in support:
        amp[int(word.array @ pv)] = scale
    return QuditState(code.modulus, code.n, amp)


def apply_transversal_diagonal(state: QuditState, g: GateSpec) -> QuditState:
    """Multiply each amplitude by the product of per-digit gate phases."""
    if g.p != state.p:
        raise ValueError("gate and state moduli disagree")
    p, n = state.p, state.n
    table = np.array(
        [np.exp(2j * np.pi * gate_phase(g, j).numerator / g.denominator) for j in range(p)]
    )
    indices = np.arange(state.amplitudes.shape[0], dtype=np.int64)
    amp = np.array(state.amplitudes)
    for pos in range(n):
        amp *= table[_digit(p, n, indices, pos)]
    return QuditState(state.modulus, n, amp)


def apply_x_string(state: QuditState, h: FpVector) -> QuditState:
    """X^h: |w> -> |w + h> digit-wise mod p."""
    p, n = state.p, state.n
    if len(h) != n or h.p != p:
        raise ValueError(f"shift must be a length-{n} vector mod {p}")
    indices = np.arange(state.amplitudes.shape[0], dtype=np.int64)
    target = np.zeros_like(indices)
    for pos in range(n):
        shifted = (_digit(p, n, indices, pos) + int(h[pos])) % p
        target += shifted * p ** (n - 1 - pos)
    amp = np.zeros_like(state.amplitudes)
    amp[target] = state.amplitudes
    return QuditState(state.modulus, n, amp)


def apply_z_string(state: QuditState, f: FpVector) -> QuditState:
    """Z^f: |w> gains omega^(f·w), omega = exp(2 pi i / p)."""
    p, n = state.p, state.n
    if len(f) != n or f.p != p:
        raise ValueError(f"phase vector must be a length-{n} vector mod {p}")
    indices = np.arange(state.amplitudes.shape[0], dtype=np.int64)
    exponent = np.zeros_like(indices)
    for pos in range(n):
        exponent = (exponent + _digit(p, n, indices, pos) * int(f[pos])) % p
    amp = state.amplitudes * np.exp(2j * np.pi * exponent / p)
    return QuditState(state.modulus, n, amp)


def _claimed_numerators(code: TriorthogonalCode, g: GateSpec, coeffs: np.ndarray) -> np.ndarray:
    """Phase numerators each logical label u should collect, by the stored cubic weights.

    U_{1,3} at p >= 5 gives sum_a u_a^3 eps_a mod p; U_{2,1} at p = 3 gives
    sum_a u_a eps_a mod 9, eps_a the lifted sum of H1 row a.
    """
    p = code.p
    if p >= 5:
        if (g.m, g.a) != (1, 3):
            raise ValueError(f"no logical-action prediction for {g.label()} at p = {p}")
        return matmul_mod(powers_mod(coeffs, 3, p), code.epsilon.array, p)
    if (g.m, g.a) != (2, 1):
        raise ValueError(f"no logical-action prediction for {g.label()} at p = 3")
    return coeffs @ (code.H1.array.sum(axis=1) % 9) % 9


def verify_transversal_action(code: TriorthogonalCode, g: GateSpec, tol: float = 1e-9) -> dict:
    """Simulate the transversal gate on every logical basis state.

    For each u in F_p^k the simulated U^(tensor n) |u_enc> is compared with
    the predicted global phase on |u_enc>; deviations are |1 - <s2|s1>|.
    The prediction is also checked against the exact phase algebra, so a
    wrong stored epsilon lands in `failures` too, and a failing identity
    raises PhaseIdentityError.
    """
    if g.p != code.p:
        raise ValueError("gate and code moduli disagree")
    _check_cap(code.p, code.n)
    count = code.p**code.k
    coeffs = _coefficients(0, count, code.k, code.p)
    claimed_all = _claimed_numerators(code, g, coeffs)
    # the first p^k coefficient vectors of H = [H1; H0] are the logical labels, zero-padded
    exact_all = phase_identity_sweep(code.H, count)
    denom = g.denominator
    max_dev = 0.0
    failures = []
    for row, claimed, exact in zip(coeffs, claimed_all.tolist(), exact_all.tolist()):
        u = FpVector(code.modulus, row)
        base = encode(code, u)
        s1 = apply_transversal_diagonal(base, g)
        predicted = np.exp(2j * np.pi * claimed / denom)
        deviation = float(abs(1.0 - np.conj(predicted) * base.inner(s1)))
        max_dev = max(max_dev, deviation)
        if deviation > tol or claimed != exact:
            entry = {"u": u.tolist(), "deviation": deviation}
            if claimed != exact:
                entry["claimed_numerator"] = claimed
                entry["exact_numerator"] = exact
            failures.append(entry)
    return {
        "code_id": code.code_id,
        "gate": g.label(),
        "max_deviation": max_dev,
        "failures": failures,
    }
