"""Componentwise (star) products and the two orthogonality predicates.

A matrix is tri-orthogonal when every pair and every triple of *distinct*
rows has vanishing star-product weight.  A space is triply even when every
triple of codewords — repetitions allowed — does.  The two predicates differ
exactly on repeated indices and are implemented separately, never conflated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .fplinalg import FpMatrix, FpVector, matmul_mod, power_sums

__all__ = [
    "StarWitness",
    "power_weight",
    "check_triorthogonal",
    "check_triply_even",
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


def check_triply_even(G: FpMatrix):
    """Is rowspan(G) triply even?  Returns (flag, witness).

    Sums g^a * g^b * g^c over all non-decreasing index triples of the rows,
    which suffices by trilinearity of the triple weight.
    """
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
