"""Evaluation (Reed-Solomon) codes over F_p, their duals, and derived codes.

RS_l is the span of the evaluations of 1, x, ..., x^(l-1) at the points
0, 1, ..., p-1, in that fixed order.  Shortening at a position set A keeps
the subcode vanishing on A and drops those coordinates; puncturing drops
the coordinates outright.  Polynomials live in F_p[x]/(x^p - x), so every
code maps onto vectors of length p and star products mirror polynomial
products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .fplinalg import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    FpMatrix,
    FpVector,
    PrimeModulus,
    kernel_basis,
    macwilliams_dual_distribution,
    matmul_mod,
    min_weight,
    weight_distribution,
)

__all__ = [
    "Polynomial",
    "RsCodeSpec",
    "ev",
    "rs_generator",
    "rs_dual",
    "shorten",
    "puncture",
    "rs_triply_even",
    "prs_min_distance",
    "audit_distance_formula",
]


def _fold_exponent(e: int, p: int) -> int:
    # x^p = x in F_p[x]/(x^p - x); constants are untouched
    if e < p:
        return e
    return (e - 1) % (p - 1) + 1


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial with degree < p; index i holds the coefficient of x^i."""

    modulus: PrimeModulus
    coeffs: Tuple[int, ...]

    def __post_init__(self):
        p = self.modulus.p
        if len(self.coeffs) != p:
            raise ValueError(f"coefficient vector must have length p={p}")
        if any(c < 0 or c >= p for c in self.coeffs):
            raise ValueError("coefficients must be canonical representatives")

    @classmethod
    def from_coeffs(cls, modulus, coeffs) -> "Polynomial":
        mod = PrimeModulus.of(modulus)
        p = mod.p
        dense = [0] * p
        for e, c in enumerate(coeffs):
            dense[_fold_exponent(e, p)] = (dense[_fold_exponent(e, p)] + c) % p
        return cls(mod, tuple(dense))

    @classmethod
    def monomial(cls, modulus, e: int, c: int = 1) -> "Polynomial":
        mod = PrimeModulus.of(modulus)
        dense = [0] * mod.p
        dense[_fold_exponent(e, mod.p)] = c % mod.p
        return cls(mod, tuple(dense))

    @property
    def p(self) -> int:
        return self.modulus.p

    def degree(self) -> int:
        for e in range(self.p - 1, -1, -1):
            if self.coeffs[e]:
                return e
        return -1  # zero polynomial

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.p != other.p:
            raise ValueError("modulus mismatch")
        p = self.p
        dense = [0] * p
        for e1, c1 in enumerate(self.coeffs):
            if not c1:
                continue
            for e2, c2 in enumerate(other.coeffs):
                if not c2:
                    continue
                e = _fold_exponent(e1 + e2, p)
                dense[e] = (dense[e] + c1 * c2) % p
        return Polynomial(self.modulus, tuple(dense))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if self.p != other.p:
            raise ValueError("modulus mismatch")
        return Polynomial(self.modulus, tuple((a + b) % self.p for a, b in zip(self.coeffs, other.coeffs)))

    def evaluate(self, x: int) -> int:
        p = self.p
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % p
        return acc


def ev(poly: Polynomial) -> FpVector:
    """Evaluation vector (poly(0), poly(1), ..., poly(p-1))."""
    p = poly.p
    points = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for c in reversed(poly.coeffs):
        acc = (acc * points + c) % p
    return FpVector(poly.modulus, acc)


def rs_generator(p, l: int) -> FpMatrix:
    """Generator of RS_l: rows are the evaluations of x^0 .. x^(l-1); rank l."""
    mod = PrimeModulus.of(p)
    pv = mod.p
    if not 1 <= l <= pv:
        raise ValueError(f"need 1 <= l <= p, got l={l}, p={pv}")
    points = np.arange(pv, dtype=np.int64)
    rows = np.empty((l, pv), dtype=np.int64)
    rows[0] = 1  # x^0 evaluates to 1 everywhere, including at 0
    for j in range(1, l):
        rows[j] = rows[j - 1] * points % pv
    return FpMatrix(mod, rows)


def rs_dual(p, l: int) -> FpMatrix:
    """Generator of the dual code: RS_l-perp equals RS_(p-l)."""
    mod = PrimeModulus.of(p)
    if not 1 <= l <= mod.p - 1:
        raise ValueError(f"need 1 <= l <= p-1, got l={l}, p={mod.p}")
    return rs_generator(mod, mod.p - l)


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


def _dimension_for(spec: RsCodeSpec, which: str) -> int:
    if which == "l":
        return spec.l
    if which == "p-l":
        return spec.p - spec.l
    raise ValueError(f"which must be 'l' or 'p-l', got {which!r}")


def puncture(spec: RsCodeSpec, which: str = "l") -> FpMatrix:
    """Generator of PRS: rows of the RS generator with the A columns deleted."""
    dim = _dimension_for(spec, which)
    gen = rs_generator(spec.modulus, dim)
    keep = list(spec.complement())
    return FpMatrix(spec.modulus, gen.array[:, keep])


def shorten(spec: RsCodeSpec, which: str = "p-l") -> FpMatrix:
    """Generator of SRS: the subcode vanishing on A, restricted to the complement."""
    dim = _dimension_for(spec, which)
    if spec.k > dim:
        raise ValueError(f"need |A| <= dimension, got {spec.k} > {dim}")
    gen = rs_generator(spec.modulus, dim)
    if spec.k == 0:
        return gen
    # combinations c with c @ gen[:, A] = 0 give the codewords vanishing on A
    acols = FpMatrix(spec.modulus, gen.array[:, list(spec.A)].T)
    combos = kernel_basis(acols)
    words = matmul_mod(combos.array, gen.array, spec.p)
    return FpMatrix(spec.modulus, words[:, list(spec.complement())])


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

    Uses the cheaper of direct span enumeration and the dual-side route
    (enumerate SRS_l,A, MacWilliams-transform its weight distribution).
    Raises BudgetExceeded when both sides overflow the budget.
    """
    p = spec.p
    n = p - spec.k
    dim_code = p - spec.l  # puncturing cannot drop rank here: k <= l
    dim_dual = spec.l - spec.k
    cost_direct = p**dim_code
    cost_dual = p**dim_dual
    if min(cost_direct, cost_dual) > budget:
        raise BudgetExceeded(
            f"both enumeration sides exceed budget {budget} "
            f"(direct {cost_direct}, dual {cost_dual})"
        )
    if cost_direct <= cost_dual:
        return min_weight(puncture(spec, "p-l"), budget=budget)
    dual_gen = shorten(spec, "l")
    # the shortened code must really be the dual of the punctured one
    prod = matmul_mod(puncture(spec, "p-l").array, dual_gen.array.T, p)
    if prod.any() or dual_gen.nrows != dim_dual:
        raise ArithmeticError("shortened code is not the dual of the punctured code")
    dist = weight_distribution(dual_gen, budget=budget)
    full = macwilliams_dual_distribution(dist, n, p)
    for w in range(1, n + 1):
        if full[w]:
            return w
    raise ArithmeticError("dual transform produced no nonzero codeword")


def audit_distance_formula(p_max: int, budget: int = DEFAULT_BUDGET) -> list:
    """Check the claimed punctured-code distance l-k on every in-budget instance.

    Returns one named entry per (p, l, k) with the default puncture positions
    {0..k-1}: {"name", "p", "l", "k", "claimed", "computed", "matches",
    "skipped"}.  Mismatches are reported, never silently accepted.
    """
    from .fplinalg import is_prime

    entries = []
    for p in range(5, p_max + 1):
        if not is_prime(p):
            continue
        for l in range(2, (p + 1) // 3 + 1):
            for k in range(1, l):
                spec = RsCodeSpec.make(p, l, tuple(range(k)))
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
                    d = prs_min_distance(spec, budget=budget)
                except BudgetExceeded:
                    entry["skipped"] = True
                else:
                    entry["computed"] = d
                    entry["matches"] = d == l - k
                entries.append(entry)
    return entries
