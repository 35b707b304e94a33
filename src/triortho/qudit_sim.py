"""Dense state-vector simulation of small qudit registers.

Basis labels are base-p digit strings with qudit 0 the most significant
digit.  Everything here is double precision; exact phase arithmetic lives
in the gates module, and the end-to-end check compares the two against each
other as independent implementations of the same transversal-gate action.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fplinalg import FpMatrix, FpVector, PrimeModulus
from .gates import GateSpec, cubic_phase_sum, gate_phase, p3_phase_sum
from .triortho_css import TriorthogonalCode, encoded_state_support

__all__ = [
    "STATE_CAP",
    "ResourceCapError",
    "QuditState",
    "basis_state",
    "encode",
    "apply_transversal_diagonal",
    "apply_x_string",
    "apply_z_string",
    "verify_transversal_action",
]

STATE_CAP = 2**24  # hard limit on p^n amplitudes


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
        """<self|other> (conjugates this state's amplitudes)."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def _place_values(p: int, n: int) -> np.ndarray:
    return np.array([p ** (n - 1 - i) for i in range(n)], dtype=np.int64)


def _digit(p: int, n: int, indices: np.ndarray, position: int) -> np.ndarray:
    return (indices // p ** (n - 1 - position)) % p


def basis_state(p, n: int, digits: FpVector) -> QuditState:
    """|digits>: unit amplitude at one basis label."""
    mod = PrimeModulus.of(p)
    if len(digits) != n or digits.p != mod.p:
        raise ValueError(f"digits must be a length-{n} vector mod {mod.p}")
    size = _check_cap(mod.p, n)
    amp = np.zeros(size, dtype=np.complex128)
    amp[int(digits.array @ _place_values(mod.p, n))] = 1.0
    return QuditState(mod, n, amp)


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


def _predicted_numerators(code: TriorthogonalCode, g: GateSpec, u: FpVector):
    """(claimed, exact) phase numerators for logical |u| under the transversal gate.

    The claim comes from the stored cubic weights; the exact value re-derives
    both sides of the phase identity from H itself (and raises if they split).
    """
    p = code.p
    padded = FpVector(code.modulus, list(u) + [0] * code.H0.nrows)
    if p >= 5:
        if (g.m, g.a) != (1, 3):
            raise ValueError(f"no logical-action prediction for {g.label()} at p = {p}")
        claimed = sum(pow(int(ua), 3, p) * int(e) for ua, e in zip(u, code.epsilon)) % p
        exact = cubic_phase_sum(code.H, padded).numerator
        return claimed, exact
    if (g.m, g.a) != (2, 1):
        raise ValueError(f"no logical-action prediction for {g.label()} at p = 3")
    eps9 = [int(code.H1.array[a].sum()) % 9 for a in range(code.k)]
    claimed = sum(int(ua) * e for ua, e in zip(u, eps9)) % 9
    exact = p3_phase_sum(code.H, padded).numerator
    return claimed, exact


def verify_transversal_action(code: TriorthogonalCode, g: GateSpec, tol: float = 1e-9) -> dict:
    """Simulate the transversal gate on every logical basis state.

    For each u in F_p^k the simulated U^(tensor n) |u_enc> is compared with
    the predicted global phase on |u_enc>; deviations are |1 - <s2|s1>|.
    The prediction is also checked against the exact phase algebra, so a
    wrong stored epsilon or a failing identity lands in `failures` too.
    """
    if g.p != code.p:
        raise ValueError("gate and code moduli disagree")
    _check_cap(code.p, code.n)
    p = code.p
    denom = g.denominator
    max_dev = 0.0
    failures = []
    for idx in range(p**code.k):
        u = FpVector(code.modulus, [(idx // p**r) % p for r in range(code.k)])
        claimed, exact = _predicted_numerators(code, g, u)
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
