"""Exact linear algebra over the prime field F_p.

Everything downstream (code construction, orthogonality predicates, distance
enumeration) runs on the types and routines in this module.  Entries are kept
as canonical representatives in [0, p) inside int64 numpy arrays, and p is
capped below 2^31, so the product of two entries fits in 62 bits but a sum of
such products need not fit in 64.  Hence the invariant: every sum of products
goes through matmul_mod (float64 BLAS while the exact sum stays below 2^53,
Python integers beyond), and power sums reduce each term mod p before adding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

DEFAULT_BUDGET = 10**8

__all__ = [
    "PrimeModulus",
    "FpVector",
    "FpMatrix",
    "BudgetExceeded",
    "MatrixFormatError",
    "is_prime",
    "normalize",
    "inv_mod",
    "pow_mod",
    "rref",
    "rref_with_transform",
    "kernel_basis",
    "in_rowspan",
    "min_weight",
    "weight_distribution",
    "macwilliams_dual_distribution",
    "krawtchouk",
    "format_matrix",
    "parse_matrix",
]


class BudgetExceeded(Exception):
    """Enumeration budget ran out; carries the best bound found so far."""

    def __init__(self, message: str, partial_bound: Optional[int] = None):
        super().__init__(message)
        self.partial_bound = partial_bound


class MatrixFormatError(ValueError):
    """Malformed matrix text or descriptor content."""


def is_prime(n: int) -> bool:
    """Trial division; n < 2^31 keeps the sqrt loop below 46341 iterations."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PrimeModulus:
    """A verified prime p with 2 <= p < 2^31."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int):
            raise TypeError(f"modulus must be int, got {type(self.p).__name__}")
        if self.p >= 2**31:
            raise ValueError(f"modulus {self.p} too large (must be < 2^31)")
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def __int__(self) -> int:
        return self.p

    @classmethod
    def of(cls, modulus) -> "PrimeModulus":
        """The given PrimeModulus itself, or a raw int validated once."""
        return modulus if isinstance(modulus, cls) else cls(modulus)


# field arithmetic on canonical representatives


def normalize(x, p: int):
    """Map any integer (including negatives) into [0, p)."""
    return x % p


def inv_mod(x: int, p: int) -> int:
    """Multiplicative inverse by Fermat: x^(p-2). Rejects x = 0 (mod p)."""
    x = x % p
    if x == 0:
        raise ZeroDivisionError(f"0 has no inverse mod {p}")
    return pow(x, p - 2, p)


def pow_mod(x: int, e: int, p: int) -> int:
    return pow(x % p, e, p)


class FpVector:
    """Immutable vector with entries in [0, p)."""

    __slots__ = ("modulus", "_a")

    def __init__(self, modulus, entries):
        modulus = PrimeModulus.of(modulus)
        object.__setattr__(self, "modulus", modulus)
        a = np.asarray(entries, dtype=np.int64) % modulus.p
        if a.ndim != 1:
            raise ValueError(f"expected 1-D entries, got shape {a.shape}")
        a.setflags(write=False)
        object.__setattr__(self, "_a", a)

    def __setattr__(self, name, value):
        raise AttributeError("FpVector is immutable")

    @property
    def p(self) -> int:
        return self.modulus.p

    @property
    def array(self) -> np.ndarray:
        return self._a

    def __len__(self) -> int:
        return int(self._a.shape[0])

    def __getitem__(self, i) -> int:
        return int(self._a[i])

    def __iter__(self):
        return iter(int(x) for x in self._a)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpVector):
            return NotImplemented
        return self.p == other.p and np.array_equal(self._a, other._a)

    def __hash__(self) -> int:
        return hash((self.p, self._a.tobytes()))

    def __repr__(self) -> str:
        return f"FpVector(p={self.p}, {self._a.tolist()})"

    def tolist(self) -> list:
        return self._a.tolist()

    def weight(self) -> int:
        """Hamming weight."""
        return int(np.count_nonzero(self._a))


class FpMatrix:
    """Immutable rectangular matrix over F_p (rows share one modulus)."""

    __slots__ = ("modulus", "_a")

    def __init__(self, modulus, rows):
        modulus = PrimeModulus.of(modulus)
        object.__setattr__(self, "modulus", modulus)
        if isinstance(rows, FpMatrix):
            rows = rows._a
        a = np.asarray(rows, dtype=np.int64)
        if a.ndim == 1:
            # allow an empty row list only with an explicit shape
            raise ValueError("rows must be 2-D; use FpMatrix.empty for 0-row matrices")
        if a.ndim != 2:
            raise ValueError(f"expected 2-D rows, got shape {a.shape}")
        a = a % modulus.p
        a.setflags(write=False)
        object.__setattr__(self, "_a", a)

    def __setattr__(self, name, value):
        raise AttributeError("FpMatrix is immutable")

    @classmethod
    def empty(cls, modulus, ncols: int) -> "FpMatrix":
        return cls(modulus, np.zeros((0, ncols), dtype=np.int64))

    @classmethod
    def from_rows(cls, modulus, rows: Iterable[Sequence[int]], ncols: Optional[int] = None) -> "FpMatrix":
        rows = [list(r) for r in rows]
        if not rows:
            if ncols is None:
                raise ValueError("ncols required for an empty matrix")
            return cls.empty(modulus, ncols)
        return cls(modulus, rows)

    @property
    def p(self) -> int:
        return self.modulus.p

    @property
    def array(self) -> np.ndarray:
        return self._a

    @property
    def nrows(self) -> int:
        return int(self._a.shape[0])

    @property
    def ncols(self) -> int:
        return int(self._a.shape[1])

    def row(self, i: int) -> FpVector:
        return FpVector(self.modulus, self._a[i])

    def rows(self) -> list:
        return [self.row(i) for i in range(self.nrows)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpMatrix):
            return NotImplemented
        return self.p == other.p and self._a.shape == other._a.shape and np.array_equal(self._a, other._a)

    def __hash__(self) -> int:
        return hash((self.p, self._a.shape, self._a.tobytes()))

    def __repr__(self) -> str:
        return f"FpMatrix(p={self.p}, {self.nrows}x{self.ncols})"

    def tolist(self) -> list:
        return self._a.tolist()

    def stack(self, other: "FpMatrix") -> "FpMatrix":
        if self.p != other.p or self.ncols != other.ncols:
            raise ValueError("modulus or width mismatch")
        return FpMatrix(self.modulus, np.vstack([self._a, other._a]))


def _rref_array(a: np.ndarray, p: int, pivot_cols: Optional[int] = None):
    """The one row elimination: reduced row-echelon form of an int64 array mod p.

    Pivots are sought in the first `pivot_cols` columns only (all of them by
    default); later columns just follow the row operations, which is how
    rref_with_transform records its transform.  Returns (R, rank, pivots).
    """
    r = a.copy()
    nrows = r.shape[0]
    pivots = []
    row = 0
    for col in range(r.shape[1] if pivot_cols is None else pivot_cols):
        if row >= nrows:
            break
        # deterministic pivot: first nonzero entry at or below `row`
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            r[[row, piv]] = r[[piv, row]]
        r[row] = (r[row] * inv_mod(int(r[row, col]), p)) % p
        mask = np.ones(nrows, dtype=bool)
        mask[row] = False
        factors = r[mask, col]
        r[mask] = (r[mask] - np.outer(factors, r[row])) % p
        pivots.append(col)
        row += 1
    return r, row, pivots


def rref(M: FpMatrix):
    """Reduced row-echelon form; returns (R, rank, pivot column indices)."""
    R, rank, pivots = _rref_array(M.array, M.p)
    return FpMatrix(M.modulus, R), rank, pivots


def rref_with_transform(M: FpMatrix):
    """rref plus the transform T with R = T @ M (mod p); T from an augmented identity."""
    aug = np.hstack([M.array, np.eye(M.nrows, dtype=np.int64)])
    r, rank, pivots = _rref_array(aug, M.p, pivot_cols=M.ncols)
    return FpMatrix(M.modulus, r[:, : M.ncols]), rank, pivots, FpMatrix(M.modulus, r[:, M.ncols :])


def matmul_mod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """Exact A @ B mod p. Uses BLAS when sums fit in float64's 53-bit mantissa."""
    inner = A.shape[1] if A.ndim == 2 else A.shape[0]
    if inner * (p - 1) * (p - 1) < 2**53:
        # every partial sum is an integer below 2^53, so the float result is exact
        out = np.asarray((A.astype(np.float64) @ B.astype(np.float64)).astype(np.int64))
        out %= p
        return out
    return np.asarray(A.astype(object) @ B.astype(object) % p, dtype=np.int64)


def powers_mod(A: np.ndarray, t: int, p: int) -> np.ndarray:
    """Elementwise A^t mod p by square-and-multiply; no product exceeds (p-1)^2."""
    if t < 1:
        raise ValueError(f"power must be >= 1, got {t}")
    out = None
    while True:
        if t & 1:
            out = A if out is None else out * A % p
        t >>= 1
        if not t:
            return out
        A = A * A % p


def power_sums(A: np.ndarray, t: int, p: int) -> np.ndarray:
    """sum_i A[..., i]^t mod p over the last axis: one power sum per row.

    Every term is reduced mod p before the sum, so a row shorter than 2^32
    stays exact in int64.
    """
    return powers_mod(A, t, p).sum(axis=-1) % p


def kernel_basis(M: FpMatrix) -> FpMatrix:
    """Basis of the right kernel {v : M v = 0 (mod p)}; ncols - rank rows."""
    R, rank, pivots = _rref_array(M.array, M.p)
    free = [c for c in range(M.ncols) if c not in set(pivots)]
    basis = np.zeros((len(free), M.ncols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -R[:rank, free].T % M.p
    return FpMatrix(M.modulus, basis)


def _residue(R: np.ndarray, pivots, V: np.ndarray, p: int) -> np.ndarray:
    """Each row of V minus its projection onto the rowspan of a reduced echelon R.

    Row i < len(pivots) of R holds the only nonzero of column pivots[i], a 1,
    so V[:, pivots] are the coefficients; a row of V lies in the span exactly
    when its residue is zero.
    """
    return (V - matmul_mod(V[:, pivots], R[: len(pivots)], p)) % p


def in_rowspan(M: FpMatrix, v: FpVector):
    """Is v an F_p-combination of the rows of M?  Returns (flag, coefficients).

    The coefficient vector refers to the original rows of M, so that
    coeffs @ M == v (mod p) whenever flag is True.
    """
    if v.p != M.p or len(v) != M.ncols:
        raise ValueError("length or modulus mismatch")
    R, rank, pivots, T = rref_with_transform(M)
    V = v.array[None, :]
    if _residue(R.array, pivots, V, M.p).any():
        return False, None
    return True, FpVector(M.modulus, matmul_mod(V[:, pivots], T.array[:rank], M.p)[0])


_TABLE_WORDS = 1 << 15  # most words in an enumerator's low-digit table
_STEP = 1 << 12  # words per table-build step, and per block of a one-digit range


class _SpanEnumerator:
    """Lexicographic enumeration of rowspan(R) for a basis R (independent rows).

    Word i is digits(i) · R mod p, digits(i) being the base-p digits of i with
    digit 0 most significant: the odometer order, which keeps failures
    reproducible.  The `low` least significant digits index a table, the span
    of the last `low` rows, precomputed once, column-major, in the narrowest
    dtype that holds a residue (uint8 for p < 256, uint16 otherwise).  Its
    memory is bounded for every p: at most 2^15 words, built 2^12 at a time.
    Above that cap, when p alone exceeds it, a one-digit range j · R[-1]
    (2^12 values of j at a time) takes the table's place.

    A prefix of the high digits (a Python integer, as p^rank runs far past
    int64) owns radix = p^low consecutive words: (low part + base) mod p, with
    base = prefix · R[:high] one small product, so words cost additions, not
    a matmul over all rank rows.  A segment is one low part shared by m
    consecutive prefixes, its words prefix by prefix: the whole table for as
    many whole prefixes as fit in 2^15 words, else a slice of the table (or
    of the one-digit range) for one prefix.  So a range takes at most one
    segment per 2^12 words, plus one per prefix end and one for each end of
    the range, however small the table.
    segments() yields (first index, bases of shape (m, n), low part of shape
    (n, size)); weights() counts the segment's word weights without building
    the words, words() builds those it is asked for, and blocks() yields the
    int64 words, 2^12 at a time.
    """

    def __init__(self, R: np.ndarray, p: int):
        self.R = R
        self.p = p
        self.rank, self.n = R.shape
        self.total = p**self.rank
        self.low = min(self.rank, 1)
        while self.low < self.rank and p ** (self.low + 1) <= _TABLE_WORDS:
            self.low += 1
        self.high = self.rank - self.low
        self.radix = p**self.low
        self.places = [p ** (self.high - 1 - j) for j in range(self.high)]
        # when p alone exceeds the cap, a one-digit range takes the table's place
        self.table = self._build_table() if self.radix <= _TABLE_WORDS else None

    def _build_table(self) -> np.ndarray:
        place = self.p ** np.arange(self.low - 1, -1, -1, dtype=np.int64)
        rows_t = self.R[self.high :].T
        table = np.empty((self.n, self.radix), dtype=np.uint8 if self.p < 256 else np.uint16)
        for a in range(0, self.radix, _STEP):
            idx = np.arange(a, min(a + _STEP, self.radix), dtype=np.int64)
            # exact in int64: at most 15 products, each below p^2 <= 2^30
            chunk = rows_t @ (idx // place[:, None] % self.p)
            chunk %= self.p
            table[:, a : a + idx.size] = chunk
        return table

    def segments(self, start: int = 0, stop: Optional[int] = None):
        stop = self.total if stop is None else min(stop, self.total)
        pos = start
        while pos < stop:
            q, r = divmod(pos, self.radix)
            m = 1
            if self.table is None:
                size = min(stop - pos, self.radix - r, _STEP)
                part = self.R[-1][:, None] * np.arange(r, r + size, dtype=np.int64) % self.p
            elif r == 0 and stop - pos >= self.radix:
                m = min(max(1, _TABLE_WORDS // self.radix), (stop - pos) // self.radix)
                part = self.table
            else:
                size = min(stop - pos, self.radix - r)
                part = self.table[:, r : r + size]
            prefixes = [[c // place % self.p for place in self.places] for c in range(q, q + m)]
            bases = matmul_mod(np.array(prefixes, dtype=np.int64).reshape(m, self.high), self.R[: self.high], self.p)
            yield pos, bases, part
            pos += m * part.shape[1]

    def weights(self, bases: np.ndarray, part: np.ndarray) -> np.ndarray:
        """Weights of a segment's words: an entry part + base is 0 exactly when part == -base."""
        weights = np.full((len(bases), part.shape[1]), self.n, dtype=np.min_scalar_type(self.n))
        for column, targets in zip(part, (-bases.T % self.p).astype(part.dtype)):
            weights -= column == targets[:, None]
        return weights.ravel()

    def words(self, bases: np.ndarray, part: np.ndarray, index: np.ndarray) -> np.ndarray:
        """The segment's words at the given positions, one per row, as int64 in [0, p)."""
        prefix, column = np.divmod(index, part.shape[1])
        words = part.T[column].astype(np.int64)
        words += bases[prefix] if len(bases) > 1 else bases
        np.subtract(words, self.p, out=words, where=words >= self.p)
        return words

    def blocks(self, start: int = 0, stop: Optional[int] = None):
        """(index of the first word, int64 words) for [start, stop), at most 2^12 words at a time."""
        for pos, bases, part in self.segments(start, stop):
            count = len(bases) * part.shape[1]
            for a in range(0, count, _STEP):
                yield pos + a, self.words(bases, part, np.arange(a, min(a + _STEP, count)))


def _span_basis(M: FpMatrix):
    """(basis rows, pivots) of rowspan(M), the basis in reduced echelon form."""
    R, rank, pivots = _rref_array(M.array, M.p)
    return R[:rank], pivots


def min_weight(M: FpMatrix, exclude: Optional[FpMatrix] = None, budget: int = DEFAULT_BUDGET) -> int:
    """Exact minimum Hamming weight over nonzero codewords of rowspan(M).

    Codewords lying in rowspan(exclude) are skipped.  Enumeration walks the
    whole span (p^rank codewords) in deterministic odometer order; if that
    exceeds `budget` evaluations the partial bound found so far is raised
    inside BudgetExceeded.
    """
    p = M.p
    basis, _ = _span_basis(M)
    rank = basis.shape[0]
    if rank == 0:
        raise ValueError("zero code has no nonzero codewords")
    if exclude is not None and (exclude.p != p or exclude.ncols != M.ncols):
        raise ValueError("exclude matrix shape or modulus mismatch")
    excl_basis, excl_pivots = _span_basis(exclude) if exclude is not None else (None, None)

    total = p**rank
    limit = min(total, budget)
    best = M.ncols + 1
    enum = _SpanEnumerator(basis, p)
    for _, bases, part in enum.segments(1, limit + 1 if total > limit else None):
        weights = enum.weights(bases, part)
        # lightest weight class first; the first one with a word outside the excluded span wins,
        # and only the words of a class tested against that span are built
        for w in np.unique(weights[weights < best]):
            words = None if excl_basis is None else enum.words(bases, part, np.flatnonzero(weights == w))
            if words is None or _residue(excl_basis, excl_pivots, words, p).any():
                best = int(w)
                break
    if total - 1 > limit:
        raise BudgetExceeded(
            f"{total - 1} codewords exceed budget {budget}",
            partial_bound=None if best > M.ncols else best,
        )
    if best > M.ncols:
        raise ValueError("every nonzero codeword lies in the excluded span")
    return best


def weight_distribution(M: FpMatrix, budget: int = DEFAULT_BUDGET) -> list:
    """Full weight distribution [A_0, ..., A_n] of rowspan(M) (A_0 = 1)."""
    p = M.p
    basis, _ = _span_basis(M)
    rank = basis.shape[0]
    n = M.ncols
    if p**rank > budget:
        raise BudgetExceeded(f"{p**rank} codewords exceed budget {budget}")
    counts = np.zeros(n + 1, dtype=np.int64)
    enum = _SpanEnumerator(basis, p)
    for _, bases, part in enum.segments():
        counts += np.bincount(enum.weights(bases, part), minlength=n + 1)
    return counts.tolist()


def krawtchouk(j: int, w: int, n: int, q: int) -> int:
    """Krawtchouk polynomial K_j(w) over an alphabet of size q, exact integer."""
    total = 0
    for s in range(0, j + 1):
        total += (-1) ** s * (q - 1) ** (j - s) * math.comb(w, s) * math.comb(n - w, j - s)
    return total


def macwilliams_dual_distribution(dist: Sequence[int], n: int, q: int) -> list:
    """Weight distribution of the dual code from a code's distribution.

    Exact integer MacWilliams transform; the division by |C| must come out
    exact and the result must be a nonnegative integer distribution summing
    to q^(n - dim C) — both are asserted, which doubles as a self-check of
    the enumeration feeding this.
    """
    size = sum(dist)
    out = []
    for j in range(n + 1):
        acc = 0
        for w in range(n + 1):
            aw = dist[w]
            if aw:
                acc += aw * krawtchouk(j, w, n, q)
        quot, rem = divmod(acc, size)
        if rem != 0 or quot < 0:
            raise ArithmeticError("MacWilliams transform is not an integer distribution")
        out.append(quot)
    if out[0] != 1 or sum(out) * size != q**n:
        # sum over the dual distribution must be q^n / |C|
        raise ArithmeticError("MacWilliams transform failed consistency checks")
    return out


# matrix text format: first line "p nrows ncols", then one row per line


def format_matrix(M: FpMatrix) -> str:
    lines = [f"{M.p} {M.nrows} {M.ncols}"]
    for row in M.array:
        lines.append(" ".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> FpMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise MatrixFormatError("empty matrix text")
    head = lines[0].split()
    if len(head) != 3:
        raise MatrixFormatError(f"header must be 'p nrows ncols', got {lines[0]!r}")
    try:
        p, nrows, ncols = (int(x) for x in head)
    except ValueError as exc:
        raise MatrixFormatError(f"non-integer header: {lines[0]!r}") from exc
    try:
        modulus = PrimeModulus(p)
    except (ValueError, TypeError) as exc:
        raise MatrixFormatError(str(exc)) from exc
    if len(lines) - 1 != nrows:
        raise MatrixFormatError(f"expected {nrows} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        try:
            row = [int(x) for x in ln.split()]
        except ValueError as exc:
            raise MatrixFormatError(f"non-integer entry in row {ln!r}") from exc
        if len(row) != ncols:
            raise MatrixFormatError(f"row width {len(row)} != {ncols}")
        if any(x < 0 or x >= p for x in row):
            raise MatrixFormatError(f"entry out of range [0, {p}) in row {ln!r}")
        rows.append(row)
    return FpMatrix.from_rows(modulus, rows, ncols=ncols)
