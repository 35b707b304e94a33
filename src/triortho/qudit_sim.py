"""State-vector simulation of qudit registers, each state held on its support.

A state keeps the basis labels of its support, rows of n base-p digits (qudit
0 first) in lexicographic order, one amplitude each; every other label has
amplitude 0.  An encoded |u> takes the p^rank(H0) words of its coset, not p^n
amplitudes: span(H0) is enumerated once per code and shifted by u·H1 for
each u.  Everything here is double precision; exact phase arithmetic
lives in the gates module, and the end-to-end check compares the two as
independent implementations of the same transversal-gate action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fplinalg import FpVector, PrimeModulus, ResourceCapError, _span_basis, _SpanEnumerator, matmul_mod, powers_mod
from .gates import GateSpec, _coefficients, gate_phase, phase_identity_sweep
from .triortho_css import TriorthogonalCode, encoded_state_support

__all__ = [
    "STATE_CAP",
    "DEVIATION_TOL",
    "ResourceCapError",
    "QuditState",
    "encode",
    "apply_transversal_diagonal",
    "apply_x_string",
    "apply_z_string",
    "verify_transversal_action",
]

STATE_CAP = 2**24  # hard limit on the label digits held: rows times n
DEVIATION_TOL = 1e-9  # largest |1 - <s2|s1>| a logical state may show and still pass


@dataclass(frozen=True)
class QuditState:
    """Unit vector in (C^p)^(tensor n): amplitudes[i] on the basis label labels[i]."""

    modulus: PrimeModulus
    n: int
    labels: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        p, n = self.modulus.p, self.n
        shape = np.shape(self.labels)
        if len(shape) != 2 or shape[1] != n:
            raise ValueError(f"labels must be rows of {n} digits")
        if shape[0] * n > STATE_CAP:
            raise ResourceCapError(f"{shape[0]} labels of {n} digits exceed the cap {STATE_CAP} on label digits")
        labels = np.asarray(self.labels, dtype=np.int64)
        amp = np.asarray(self.amplitudes, dtype=np.complex128)
        if amp.shape != (shape[0],):
            raise ValueError(f"need one amplitude per label, {shape[0]} in all")
        if ((labels < 0) | (labels >= p)).any():
            raise ValueError(f"label digits must lie in [0, {p})")
        order = np.lexsort(labels.T[::-1])
        labels, amp = labels[order], amp[order]
        if (labels[1:] == labels[:-1]).all(axis=1).any():
            raise ValueError("duplicate basis label")
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state norm {norm} deviates from 1 beyond 1e-9")
        labels.setflags(write=False)
        amp.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def p(self) -> int:
        return self.modulus.p

    def inner(self, other: "QuditState") -> complex:
        """<self|other> (conjugates this state's amplitudes), correctly rounded.

        Over the shared labels, conj(a)·b = (ar·br + ai·bi) + i(ar·bi - ai·br):
        each real product is rounded once, and math.fsum sums those of each
        part exactly, so neither the summation order nor the length of the
        arrays can move the result.
        """
        if (other.p, other.n) != (self.p, self.n):
            raise ValueError("states live on different registers")
        row = np.dtype((np.void, 8 * self.n))  # a label row as one opaque key
        keys = [state.labels.view(row).ravel() for state in (self, other)]
        _, mine, theirs = np.intersect1d(*keys, assume_unique=True, return_indices=True)
        a, b = self.amplitudes[mine], other.amplitudes[theirs]
        real = math.fsum(np.concatenate([a.real * b.real, a.imag * b.imag]))
        return complex(real, math.fsum(np.concatenate([a.real * b.imag, -(a.imag * b.real)])))


def _encoder(code: TriorthogonalCode, k: int):
    """u -> encoded |u>, once p^k such states are known to fit STATE_CAP.

    One elimination of H0 gives the cap its rank and the enumeration its
    basis; span(H0) is enumerated once, after the cap is checked, and shared
    by every u.
    """
    basis, _ = _span_basis(code.H0)
    size = code.p ** (k + len(basis)) * code.n
    if size > STATE_CAP:
        limit = f"p^(k + rank H0) * n = {code.p}^{k + len(basis)} * {code.n} = {size}"
        raise ResourceCapError(f"{limit} exceeds the cap {STATE_CAP} on label digits")
    stabilizers = np.concatenate([block for _, block in _SpanEnumerator(basis, code.p).blocks()])
    amp = np.full(len(stabilizers), 1.0 / np.sqrt(len(stabilizers)), dtype=np.complex128)
    return lambda u: QuditState(code.modulus, code.n, encoded_state_support(code, u, stabilizers), amp)


def encode(code: TriorthogonalCode, u: FpVector) -> QuditState:
    """Uniform superposition over the coset u·H1 + span(H0)."""
    return _encoder(code, 0)(u)


def apply_transversal_diagonal(state: QuditState, g: GateSpec) -> QuditState:
    """Multiply each amplitude by the product of per-digit gate phases, in qudit order."""
    if g.p != state.p:
        raise ValueError("gate and state moduli disagree")
    digits, index = np.unique(state.labels, return_inverse=True)
    phases = np.array([np.exp(2j * np.pi * gate_phase(g, int(j)).numerator / g.denominator) for j in digits])
    index, amp = index.reshape(state.labels.shape), state.amplitudes
    for pos in range(state.n):
        amp = amp * phases[index[:, pos]]  # numpy's in-place product rounds one-row arrays apart
    return QuditState(state.modulus, state.n, state.labels, amp)


def apply_x_string(state: QuditState, h: FpVector) -> QuditState:
    """X^h: |w> -> |w + h> digit-wise mod p."""
    p, n = state.p, state.n
    if len(h) != n or h.p != p:
        raise ValueError(f"shift must be a length-{n} vector mod {p}")
    return QuditState(state.modulus, n, (state.labels + h.array) % p, state.amplitudes)


def apply_z_string(state: QuditState, f: FpVector) -> QuditState:
    """Z^f: |w> gains omega^(f·w), omega = exp(2 pi i / p)."""
    p, n = state.p, state.n
    if len(f) != n or f.p != p:
        raise ValueError(f"phase vector must be a length-{n} vector mod {p}")
    exponent = matmul_mod(state.labels, f.array, p)
    return QuditState(state.modulus, n, state.labels, state.amplitudes * np.exp(2j * np.pi * exponent / p))


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


def verify_transversal_action(code: TriorthogonalCode, g: GateSpec) -> dict:
    """Simulate the transversal gate on every logical basis state.

    For each u in F_p^k the simulated U^(tensor n) |u_enc> is compared with
    the predicted global phase on |u_enc>; deviations are |1 - <s2|s1>|, and
    one above DEVIATION_TOL is a failure.
    The prediction is also checked against the exact phase algebra, so a
    wrong stored epsilon lands in `failures` too, and a failing identity
    raises PhaseIdentityError.  The p^(k + rank H0) labels of all the
    encoded states, n digits each, must fit STATE_CAP.
    """
    if g.p != code.p:
        raise ValueError("gate and code moduli disagree")
    encode_u = _encoder(code, code.k)
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
        base = encode_u(u)
        s1 = apply_transversal_diagonal(base, g)
        predicted = np.exp(2j * np.pi * claimed / denom)
        deviation = float(abs(1.0 - np.conj(predicted) * base.inner(s1)))
        max_dev = max(max_dev, deviation)
        if deviation > DEVIATION_TOL or claimed != exact:
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
