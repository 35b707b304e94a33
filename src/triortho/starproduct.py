"""Componentwise (star) products, the two orthogonality predicates and the cubic phase identity.

A matrix is tri-orthogonal when every pair and every triple of *distinct*
rows has vanishing star-product weight.  A space is triply even when every
triple of codewords — repetitions allowed — does.  The two predicates differ
exactly on repeated indices: both read one triple-sum kernel, which walks the
triples with c > b > a for the first and c >= b >= a for the second.

The kernel takes row a's star products with a panel of rows b and multiplies
them by the rows c from the panel's first row on.  While n (p-1)^3 < 2^53
(every p up to 9739 at n = p) the unreduced triple sums of a length-n row
are exact in float64, so H is converted once and only the product is reduced
mod p.  Above that bound the star products are reduced first and matmul_mod
takes the product, in float64 or Python integers as its own bound allows.
Panels are visited in (a, b) order and each is scanned row-major, so the
first nonzero sum found is the lexicographically first violated triple.

At p >= 5 the cubic phase identity sum_i (u·H)_i^3 = sum_a u_a^3 eps_a,
eps_a = sum_i h_ai^3, holds on all of F_p^m exactly when the sums over the
triples (a, a, b), a != b, and over the distinct triples vanish: the gap
between the two sides is a cubic form in u with coefficients
3 sum_i h_ai^2 h_bi and 6 sum_i h_ai h_bi h_ci, every variable has degree
below p, and 3 and 6 are units mod p.  One product (H∘H)·H^T gives the
first kind, the triple kernel the second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .fplinalg import FpMatrix, FpVector, _float64_exact, matmul_mod, power_sums

__all__ = [
    "StarWitness",
    "power_weight",
    "check_triorthogonal",
    "check_triply_even",
    "check_phase_identity",
]


@dataclass(frozen=True)
class StarWitness:
    """A violated orthogonality condition: which indices, and the nonzero sum.

    Pair witnesses have strictly increasing indices (distinct rows); triple
    witnesses from the triply-even predicate may repeat (non-decreasing),
    e.g. (2,2,2) for a cube-sum violation.
    """

    kind: str  # "pair" or "triple"
    indices: Tuple[int, ...]
    value: int

    def __post_init__(self):
        if self.kind not in ("pair", "triple"):
            raise ValueError(f"unknown witness kind {self.kind!r}")
        if len(self.indices) != (2 if self.kind == "pair" else 3):
            raise ValueError("index count does not match witness kind")
        if list(self.indices) != sorted(self.indices):
            raise ValueError("witness indices must be non-decreasing")
        if self.value == 0:
            raise ValueError("witness value must be nonzero")


def power_weight(u: FpVector, t: int) -> int:
    """Sum of t-th powers of the entries, mod p."""
    return int(power_sums(u.array, t, u.p))


def check_triorthogonal(H: FpMatrix):
    """All distinct row pairs and triples must have zero star-product weight.

    Returns (True, None) or (False, witness); the witness is the first
    violation scanning pairs (a,b) in lexicographic order, then triples.
    """
    p = H.p
    A = H.array
    # pairwise inner products in one shot; the first nonzero above the diagonal,
    # in row-major order, is the lexicographically first pair
    sums = np.triu(matmul_mod(A, A.T, p), 1)
    pairs = np.argwhere(sums)
    if pairs.size:
        a, b = (int(x) for x in pairs[0])
        return False, StarWitness("pair", (a, b), int(sums[a, b]))
    return _triple_verdict(A, p, 1)


def check_triply_even(G: FpMatrix):
    """Is rowspan(G) triply even?  Returns (flag, witness).

    Sums g^a * g^b * g^c over all non-decreasing index triples of the rows,
    which suffices by trilinearity of the triple weight.
    """
    return _triple_verdict(G.array, G.p, 0)


def check_phase_identity(H: FpMatrix):
    """Does sum_i (u·H)_i^3 = sum_a u_a^3 eps_a hold for every u in F_p^m?  (p >= 5)

    Returns (True, None) or (False, witness).  The witness is the first
    nonzero off-diagonal entry (a, b) of (H∘H)·H^T in row-major order, as the
    triple (a, a, b) or (b, a, a), else the first distinct triple that
    check_triorthogonal would report.  eps is H's own cubic weights, so no
    stored weight is read.
    """
    p = H.p
    if p < 5:
        raise ValueError(f"the cubic phase identity is a cubic form only at p >= 5, got p = {p}")
    A = H.array
    sums = matmul_mod(A * A % p, A.T, p)
    np.fill_diagonal(sums, 0)
    hits = np.argwhere(sums)
    if hits.size:
        a, b = (int(x) for x in hits[0])
        return False, StarWitness("triple", (a, a, b) if a < b else (b, a, a), int(sums[a, b]))
    return _triple_verdict(A, p, 1)


_PANEL = 64  # rows b whose star products with row a are multiplied at once


def _triple_verdict(A: np.ndarray, p: int, step: int):
    """(True, None), or (False, witness) for the first triple a, b, c in
    lexicographic order with b >= a + step, c >= b + step and
    sum_i A[a,i] A[b,i] A[c,i] != 0 (mod p).

    step = 1 walks the distinct triples, step = 0 the non-decreasing ones.
    For each a the rows b come in panels [b0, b1): the star products of a
    with the panel are multiplied by the rows c >= b0 + step only, and the
    mask keeps entry (i, j), the triple (a, b0+i, b0+step+j), when j >= i.
    """
    m, n = A.shape
    exact = _float64_exact(n, (p - 1) ** 3)
    if exact:
        F = A.astype(np.float64)
        Ft = np.ascontiguousarray(F.T)
    upper = np.triu(np.ones((_PANEL, m), dtype=bool))
    for a in range(m - 2 * step):
        for b0 in range(a + step, m - step, _PANEL):
            b1 = min(b0 + _PANEL, m - step)
            c0 = b0 + step
            if exact:
                # unreduced triple sums stay below 2^53, so one reduction of the product suffices
                sums = ((F[a] * F[b0:b1]) @ Ft[:, c0:]).astype(np.int64)
                sums %= p
            else:
                sums = matmul_mod(A[a] * A[b0:b1] % p, A[c0:].T, p)
            sums *= upper[: b1 - b0, : m - c0]
            hits = np.flatnonzero(sums)
            if hits.size:
                i, j = divmod(int(hits[0]), m - c0)
                return False, StarWitness("triple", (a, b0 + i, c0 + j), int(sums[i, j]))
    return True, None
