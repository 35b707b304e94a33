"""Evaluation (Reed-Solomon) codes over F_p and the codes derived from them.

RS_l is the span of the evaluations of 1, x, ..., x^(l-1) at the points
0, 1, ..., p-1, in that fixed order; its dual is RS_(p-l).  Shortening at a
position set A keeps the subcode vanishing on A and drops those coordinates;
puncturing drops the coordinates outright.  Evaluation is a ring map from
F_p[x]/(x^p - x), so star products of codewords mirror polynomial products.

The systematic split of PRS_l,A and the shortened code SRS_l,A are written
here by formula (MacWilliams-Sloane, ch. 10 §8), with no elimination.  With
L_S(T) the Lagrange basis of the points S on T, one row per s, and C the
points outside A in ascending order, PRS_l,A = span([H1; H0]) with
  H1 = -L_A(C), rows in the order A is given, and
  H0 = x^j minus its interpolant on A, on C, for j = k .. l-1: SRS_l,A.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from .fplinalg import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    FpMatrix,
    PrimeModulus,
    _check_entries,
    coset_min_weight,
    is_prime,
    matmul_mod,
    powers_mod,
)

__all__ = [
    "RsCodeSpec",
    "rs_generator",
    "shorten",
    "puncture",
    "rs_triply_even",
    "prs_min_distance",
    "family_grid",
    "audit_distance_formula",
]


def rs_generator(p, l: int) -> FpMatrix:
    """Generator of RS_l: rows are the evaluations of x^0 .. x^(l-1); rank l."""
    mod = PrimeModulus.of(p)
    pv = mod.p
    if not 1 <= l <= pv:
        raise ValueError(f"need 1 <= l <= p, got l={l}, p={pv}")
    _check_entries(l, pv, f"the RS_{l} generator")
    points = np.arange(pv, dtype=np.int64)
    rows = np.empty((l, pv), dtype=np.int64)
    rows[0] = 1  # x^0 evaluates to 1 everywhere, including at 0
    for j in range(1, l):
        rows[j] = rows[j - 1] * points % pv
    return FpMatrix(mod, rows)


@dataclass(frozen=True)
class RsCodeSpec:
    """(p, l, A): the RS dimension l and the puncture position set A, |A| = k <= l."""

    modulus: PrimeModulus
    l: int
    A: Tuple[int, ...] = ()

    def __post_init__(self):
        p = self.modulus.p
        if not 1 <= self.l <= p:
            raise ValueError(f"need 1 <= l <= p, got l={self.l}")
        if len(set(self.A)) != len(self.A):
            raise ValueError("puncture positions must be distinct")
        if any(a < 0 or a >= p for a in self.A):
            raise ValueError(f"puncture positions must lie in [0, {p})")
        if len(self.A) > self.l:
            raise ValueError(f"need |A| <= l, got {len(self.A)} > {self.l}")

    @classmethod
    def make(cls, p, l: int, A=()) -> "RsCodeSpec":
        return cls(PrimeModulus.of(p), l, tuple(int(a) for a in A))

    @property
    def p(self) -> int:
        return self.modulus.p

    @property
    def k(self) -> int:
        return len(self.A)

    def complement(self) -> Tuple[int, ...]:
        aset = set(self.A)
        return tuple(u for u in range(self.p) if u not in aset)


def puncture(spec: RsCodeSpec) -> FpMatrix:
    """Generator of PRS_(p-l),A: the RS_(p-l) generator with the A columns deleted."""
    if spec.l == spec.p:
        return FpMatrix.empty(spec.modulus, spec.p - spec.k)  # RS_0 is the zero code
    gen = rs_generator(spec.modulus, spec.p - spec.l)
    return FpMatrix(spec.modulus, gen.array[:, list(spec.complement())])


def _inverses(a: np.ndarray, p: int) -> np.ndarray:
    """Elementwise inverses of nonzero residues, a^(p-2); at p = 2 each is 1 already."""
    return powers_mod(a, p - 2, p) if p > 2 else a


def _products(a: np.ndarray, p: int) -> np.ndarray:
    """Product mod p of each row of a 2-D array, reduced after every factor."""
    out = np.ones(a.shape[0], dtype=np.int64)
    for column in a.T:
        out = out * column % p
    return out


def _lagrange(S: np.ndarray, T: np.ndarray, p: int) -> np.ndarray:
    """L_S(T): entry [i, j] = M_S(t_j) / ((t_j - s_i)·M_S'(s_i)), with M_S(x) = prod_s (x - s).

    Row i is the Lagrange basis polynomial of s_i, evaluated on T.  S and T are
    disjoint, so no difference vanishes.
    """
    gaps = (T[None, :] - S[:, None]) % p
    own = (S[:, None] - S[None, :]) % p
    np.fill_diagonal(own, 1)
    m_t = _products(gaps.T, p)
    return m_t * _inverses(gaps, p) % p * _inverses(_products(own, p), p)[:, None] % p


def _systematic_split(spec: RsCodeSpec) -> Tuple[np.ndarray, np.ndarray]:
    """(H1, H0) of PRS_l,A on the complement of A, from their closed forms (module docstring)."""
    p, l, k = spec.p, spec.l, spec.k
    A = np.array(spec.A, dtype=np.int64)
    C = np.array(spec.complement(), dtype=np.int64)
    h1 = -_lagrange(A, C, p) % p
    # row j-k of the powers is x^j on C, then a_i^j on A
    points = np.concatenate([C, A])
    powers = np.empty((l - k, p), dtype=np.int64)
    power = powers_mod(points, k, p) if k else np.ones(p, dtype=np.int64)
    for row in powers:
        row[:] = power
        power = power * points % p
    h0 = (powers[:, : C.size] + matmul_mod(powers[:, C.size :], h1, p)) % p
    return h1, h0


def shorten(spec: RsCodeSpec) -> FpMatrix:
    """Generator of SRS_l,A, the subcode of RS_l vanishing on A, on the complement: H0, rows x^k .. x^(l-1)."""
    _check_entries(spec.l, spec.p, f"the RS_{spec.l} generator")
    return FpMatrix(spec.modulus, _systematic_split(spec)[1])


def rs_triply_even(p, l: int) -> bool:
    """Exact criterion for RS_l to be triply even: 3l <= p + 1.

    Products of three degree-(l-1) polynomials have degree 3l - 3; power sums
    over all of F_p vanish unless the degree reaches p - 1, so the boundary
    case 3l = p + 1 (degree p - 2) is still triply even.  Cross-checked
    against check_triply_even exhaustively in the test suite.
    """
    pv = PrimeModulus.of(p).p
    if not 1 <= l <= pv:
        raise ValueError(f"need 1 <= l <= p, got l={l}")
    return 3 * l <= pv + 1


def prs_min_distance(spec: RsCodeSpec, budget: int = DEFAULT_BUDGET) -> int:
    """Exact minimum weight of PRS_(p-l),A — the punctured code of the distance claim.

    The cheaper side is enumerated (a tie goes to direct enumeration): the
    code itself, or its dual SRS_l,A, whose weight distribution is
    MacWilliams-transformed.  Raises BudgetExceeded when both sides overflow
    the budget.
    """
    p = spec.p
    code, dual = puncture(spec), shorten(spec)
    # the shortened code must really be the dual of the punctured one
    if matmul_mod(code.array, dual.array.T, p).any() or dual.nrows != spec.l - spec.k:
        raise ArithmeticError("shortened code is not the dual of the punctured code")
    # puncturing cannot drop rank here (k <= l), so PRS_(p-l),A has dimension p - l
    routes = sorted((("direct", p - spec.l), ("macwilliams", spec.l - spec.k)), key=lambda route: route[1])
    d, _ = coset_min_weight(code, None, dual, None, routes, budget)
    if d is None:
        raise BudgetExceeded(
            f"both enumeration sides exceed budget {budget} "
            f"(direct {p ** (p - spec.l)}, dual {p ** (spec.l - spec.k)})"
        )
    return d


def family_grid(p_max: int) -> Iterator[Tuple[int, int, int]]:
    """Yield (p, l, k) for every prime 5 <= p <= p_max, 2 <= l <= (p+1)/3 and 1 <= k < l, in that nesting."""
    for p in range(5, p_max + 1):
        if is_prime(p):
            for l in range(2, (p + 1) // 3 + 1):
                for k in range(1, l):
                    yield p, l, k


def audit_distance_formula(p_max: int, budget: int = DEFAULT_BUDGET) -> list:
    """Check the claimed punctured-code distance l-k on every in-budget instance.

    Returns one named entry per family_grid(p_max) member, punctured at {0..k-1}:
    {"name", "p", "l", "k", "claimed", "computed", "matches", "skipped"}.
    Mismatches are reported, never silently accepted.
    """
    entries = []
    for p, l, k in family_grid(p_max):
        entry = {
            "name": f"p{p}-l{l}-k{k}",
            "p": p,
            "l": l,
            "k": k,
            "claimed": l - k,
            "computed": None,
            "matches": None,
            "skipped": False,
        }
        try:
            d = prs_min_distance(RsCodeSpec.make(p, l, tuple(range(k))), budget=budget)
        except BudgetExceeded:
            entry["skipped"] = True
        else:
            entry["computed"] = d
            entry["matches"] = d == l - k
        entries.append(entry)
    return entries
