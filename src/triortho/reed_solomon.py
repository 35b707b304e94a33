"""Evaluation (Reed-Solomon) codes over F_p and the codes derived from them.

RS_l is the span of the evaluations of 1, x, ..., x^(l-1) at the points
0, 1, ..., p-1, in that fixed order; its dual is RS_(p-l).  Shortening at a
position set A keeps the subcode vanishing on A and drops those coordinates;
puncturing drops the coordinates outright.  Evaluation is a ring map from
F_p[x]/(x^p - x), so star products of codewords mirror polynomial products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .fplinalg import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    FpMatrix,
    PrimeModulus,
    _check_entries,
    coset_min_weight,
    kernel_basis,
    matmul_mod,
)

__all__ = [
    "RsCodeSpec",
    "rs_generator",
    "shorten",
    "puncture",
    "rs_triply_even",
    "prs_min_distance",
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


def shorten(spec: RsCodeSpec) -> FpMatrix:
    """Generator of SRS_l,A: the subcode of RS_l vanishing on A, restricted to the complement."""
    gen = rs_generator(spec.modulus, spec.l)
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
