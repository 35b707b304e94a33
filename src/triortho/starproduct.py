"""Componentwise (star) products and the two orthogonality predicates.

A matrix is tri-orthogonal when every pair and every triple of *distinct*
rows has vanishing star-product weight.  A space is triply even when every
triple of codewords — repetitions allowed — does.  The two predicates differ
exactly on repeated indices and are implemented separately, never conflated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .fplinalg import (
    FpMatrix,
    FpVector,
    _span_basis,
    _SpanEnumerator,
    in_rowspan,
    kernel_basis,
    matmul_mod,
    power_sums,
)

__all__ = [
    "StarWitness",
    "star",
    "power_weight",
    "triple_weight",
    "check_triorthogonal",
    "check_triply_even",
    "triply_even_exhaustive",
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


def star(u: FpVector, v: FpVector, *more: FpVector) -> FpVector:
    """Componentwise product mod p, folded over two or more vectors."""
    out = u.array
    for w in (v,) + more:
        if w.p != u.p or len(w) != len(u):
            raise ValueError("length or modulus mismatch in star product")
        out = out * w.array % u.p
    return FpVector(u.modulus, out)


def power_weight(u: FpVector, t: int) -> int:
    """Sum of t-th powers of the entries, mod p."""
    return int(power_sums(u.array, t, u.p))


def triple_weight(u: FpVector, v: FpVector, w: FpVector) -> int:
    """|u * v * w| — the summed componentwise triple product, mod p."""
    return int(star(u, v, w).array.sum() % u.p)


def check_triorthogonal(H: FpMatrix):
    """All distinct row pairs and triples must have zero star-product weight.

    Returns (True, None) or (False, witness); the witness is the first
    violation scanning pairs (a,b) in lexicographic order, then triples.
    """
    p = H.p
    A = H.array
    m = H.nrows
    # pairwise inner products in one shot; the first nonzero above the diagonal,
    # in row-major order, is the lexicographically first pair
    sums = np.triu(matmul_mod(A, A.T, p), 1)
    pairs = np.argwhere(sums)
    if pairs.size:
        a, b = (int(x) for x in pairs[0])
        return False, StarWitness("pair", (a, b), int(sums[a, b]))
    for a in range(m - 2):
        # entry (i, j) is the triple (a, a+1+i, a+2+j); the upper triangle j >= i keeps c > b
        sums = np.triu(matmul_mod(A[a] * A[a + 1 :] % p, A[a + 2 :].T, p))
        triples = np.argwhere(sums)
        if triples.size:
            i, j = (int(x) for x in triples[0])
            return False, StarWitness("triple", (a, a + 1 + i, a + 2 + j), int(sums[i, j]))
    return True, None


def check_triply_even(G: FpMatrix, mode: str = "basis_triples"):
    """Is rowspan(G) triply even?  Two independent routes, always in agreement.

    basis_triples sums g^a * g^b * g^c over all non-decreasing index triples
    (sufficient by trilinearity of the triple weight); dual_containment tests
    g^a * g^b against the kernel span of G for a <= b (the V*V inside V-perp
    characterization).  Returns (flag, witness).
    """
    if mode == "basis_triples":
        return _triply_even_basis_triples(G)
    if mode == "dual_containment":
        return _triply_even_dual_containment(G)
    raise ValueError(f"unknown mode {mode!r}")


def _triply_even_basis_triples(G: FpMatrix):
    p = G.p
    A = G.array
    m = G.nrows
    for a in range(m):
        for b in range(a, m):
            ab = A[a] * A[b] % p
            sums = matmul_mod(A[b:], ab[:, None], p).ravel()
            for off, val in enumerate(sums):
                if val:
                    return False, StarWitness("triple", (a, b, b + off), int(val))
    return True, None


def _triply_even_dual_containment(G: FpMatrix):
    p = G.p
    K = kernel_basis(G)
    m = G.nrows
    for a in range(m):
        for b in range(a, m):
            prod = star(G.row(a), G.row(b))
            ok, _ = in_rowspan(K, prod)
            if not ok:
                # locate the first row certifying non-membership
                sums = matmul_mod(G.array, prod.array[:, None], p).ravel()
                c = int(np.nonzero(sums)[0][0])
                idx = tuple(sorted((a, b, c)))
                return False, StarWitness("triple", idx, int(sums[c]))
    return True, None


def triply_even_exhaustive(G: FpMatrix, max_words: int = 1000) -> bool:
    """Direct oracle: every codeword triple (with repetition) has zero weight.

    Only viable for p^rank <= max_words; used to validate the basis check.
    """
    p = G.p
    basis, _ = _span_basis(G)
    count = p ** basis.shape[0]
    if count > max_words:
        raise ValueError(f"span too large for the exhaustive oracle ({count} words)")
    # enumerate the whole span, then check all pair-star x codeword sums
    words = np.vstack([w for _, w in _SpanEnumerator(basis, p).blocks()])
    for i in range(count):
        # triple weight is symmetric, so pairs (i, j >= i) against all words suffice
        pair_stars = words[i:] * words[i] % p
        sums = matmul_mod(pair_stars, words.T, p)
        if np.any(sums):
            return False
    return True
