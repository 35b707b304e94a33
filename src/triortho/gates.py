"""Diagonal phase gates, the level-3 gate, and exact phase-sum identities.

The gate U_{m,a} multiplies |j> by exp(2 pi i j^a / p^m).  Applied
transversally to an encoded state, the phase collected by a basis word f is
a cubic (p >= 5) or lifted-linear (p = 3) sum over its entries; the
identities verified here reduce that word-wise sum to a per-logical-qudit
sum weighted by the cubic weights of the H1 rows.  One sweep checks them
for every prime, a block of coefficient vectors at a time, with a mod-p
cubic kernel (p >= 5) or a mod-9 lifted-sum kernel (p = 3).  At p >= 5
the identity is a cubic form in the coefficients, so
starproduct.check_phase_identity decides it on all of F_p^m from the
triple sums; verify uses that, and the sweep stays the independent
re-derivation for the simulator, the acceptance criteria and p = 3.  The
qutrit code is assembled, not searched: the shortest full-support motifs, each on
its own columns, already give the shortest code that keeps the identity.
All arithmetic is exact integer work — complex numbers only appear in the
state-vector simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product

import numpy as np

from .fplinalg import FpMatrix, FpVector, PrimeModulus, matmul_mod, power_sums, powers_mod

__all__ = [
    "GateSpec",
    "PhaseExponent",
    "PhaseIdentityError",
    "gate_phase",
    "third_level_gate",
    "cubic_phase_sum",
    "ternary_mod9_sum",
    "p3_phase_sum",
    "phase_identity_sweep",
    "find_p3_code",
]


class PhaseIdentityError(ArithmeticError):
    """The two sides of a phase-sum identity disagreed."""


@dataclass(frozen=True)
class GateSpec:
    """U_{m,a}: |j> gains exp(2 pi i j^a / p^m)."""

    modulus: PrimeModulus
    m: int
    a: int

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError(f"precision m must be a positive integer, got {self.m}")
        if not isinstance(self.a, int) or not 1 <= self.a <= self.modulus.p - 1:
            raise ValueError(f"degree a must satisfy 1 <= a <= p-1, got {self.a}")
        if self.modulus.p**self.m >= 2**63:
            raise ValueError(f"phase denominator p^m = {self.modulus.p}^{self.m} overflows 64 bits")

    @classmethod
    def make(cls, p, m: int, a: int) -> "GateSpec":
        return cls(PrimeModulus.of(p), m, a)

    @property
    def p(self) -> int:
        return self.modulus.p

    @property
    def denominator(self) -> int:
        return self.p**self.m

    def label(self) -> str:
        return f"U_{{{self.m},{self.a}}}"


@dataclass(frozen=True)
class PhaseExponent:
    """exp(2 pi i numerator / modulus), held exactly."""

    numerator: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        if not 0 <= self.numerator < self.modulus:
            raise ValueError(f"numerator {self.numerator} not reduced mod {self.modulus}")

    def __int__(self) -> int:
        return self.numerator


def gate_phase(g: GateSpec, j: int) -> PhaseExponent:
    """Phase exponent picked up by |j>: j^a mod p^m, j canonical in [0, p)."""
    if not 0 <= j < g.p:
        raise ValueError(f"basis label must lie in [0, {g.p})")
    return PhaseExponent(pow(j, g.a, g.denominator), g.denominator)


def third_level_gate(p) -> GateSpec:
    """The canonical level-3 gate: U_{1,3} for p >= 5, U_{2,1} for p = 3."""
    mod = PrimeModulus.of(p)
    if mod.p == 3:
        return GateSpec(mod, 2, 1)
    if mod.p >= 5:
        return GateSpec(mod, 1, 3)
    raise ValueError("no third-level diagonal gate for p = 2 in this family")


def _coefficients(start: int, stop: int, rows: int, p: int) -> np.ndarray:
    """Coefficient vectors start..stop-1 in odometer order: u_r = (index // p^r) % p.

    Digits come off by repeated divmod, so no power p^r is formed: p^r leaves
    int64 long before the index does (from r = 9 at p = 211).
    """
    index = np.arange(start, stop, dtype=np.int64)
    coeffs = np.empty((stop - start, rows), dtype=np.int64)
    for r in range(rows):
        index, coeffs[:, r] = np.divmod(index, p)
    return coeffs


def _checked(lhs: np.ndarray, rhs: np.ndarray, coeffs: np.ndarray, name: str, power: str, modulus: int) -> np.ndarray:
    """lhs, once it equals rhs row for row; else PhaseIdentityError at the first row u where they differ."""
    bad = np.flatnonzero(lhs != rhs)
    if bad.size:
        i = bad[0]
        raise PhaseIdentityError(
            f"{name} phase identity fails for u={coeffs[i].tolist()}: "
            f"sum f{power} = {lhs[i]} but sum u{power} eps = {rhs[i]} (mod {modulus})"
        )
    return lhs


def _cubic_numerators(A: np.ndarray, eps: np.ndarray, coeffs: np.ndarray, p: int) -> np.ndarray:
    """sum_i (u·H)_i^3 mod p for each coefficient row u, checked against sum_a u_a^3 eps_a."""
    lhs = power_sums(matmul_mod(coeffs, A, p), 3, p)
    return _checked(lhs, matmul_mod(powers_mod(coeffs, 3, p), eps, p), coeffs, "cubic", "^3", p)


def _mod9_numerators(A: np.ndarray, eps9: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_i (u·H)_i mod 9, entries lifted from F_3, for each coefficient row u; checked against sum_a u_a eps9_a."""
    lhs = matmul_mod(coeffs, A, 3).sum(axis=-1) % 9
    return _checked(lhs, coeffs @ eps9 % 9, coeffs, "qutrit", "", 9)


def cubic_phase_sum(H: FpMatrix, u: FpVector) -> PhaseExponent:
    """Both sides of the cubic identity sum_i f_i^3 = sum_a u_a^3 eps_a (mod p).

    f = u·H with u running over all rows (coefficients on H1 rows carry the
    logical label, coefficients on H0 rows shift within the coset; the H0
    rows contribute cubic weight 0 for construction codes).  Raises
    PhaseIdentityError when the two sides disagree.  Tri-orthogonality alone
    does not force the identity: it holds for every u exactly when the sums
    over the triples (a, a, b) vanish as well
    (starproduct.check_phase_identity).
    """
    p = H.p
    if p < 5:
        raise ValueError("cubic identity applies to p >= 5; use p3_phase_sum for p = 3")
    if u.p != p or len(u) != H.nrows:
        raise ValueError(f"u must have one coefficient per row of H ({H.nrows})")
    lhs = _cubic_numerators(H.array, power_sums(H.array, 3, p), u.array[None, :], p)
    return PhaseExponent(int(lhs[0]), p)


def ternary_mod9_sum(values):
    """Sum mod 9 assembled purely from ternary digits, along the last axis.

    Writing each value as a0 + 3 a1, the sum mod 9 equals

        e1 - 3 e2 - 3 s + 3 e3 + 3 t1   (mod 9)

    where e1, e2, e3 are the elementary symmetric sums of the a0 digits,
    s = sum over ordered pairs of a0_i^2 a0_j, t1 = sum of the a1 digits,
    and every one of those five quantities is reduced mod 3 first.  Agrees
    with plain integer addition on every input (tested exhaustively for
    short sequences).  A sequence gives an int; an integer array gives one
    sum per row, the recurrences running over all rows at once.
    """
    if not isinstance(values, np.ndarray):
        values = list(values)
        for v in values:
            if not isinstance(v, (int, np.integer)) or not 0 <= v < 9:
                raise ValueError(f"values must be integers in [0, 9), got {v!r}")
    elif values.size:
        # an array of another dtype fails at its first entry, as the sequence loop does
        bad = (values < 0) | (values >= 9) if values.dtype.kind in "iu" else np.ones(values.shape, bool)
        if bad.any():
            raise ValueError(f"values must be integers in [0, 9), got {values[bad][0]!r}")
    values = np.asarray(values, dtype=np.int64)
    e1 = e2 = e3 = p2 = t1 = np.zeros(values.shape[:-1], dtype=np.int64)
    for v in np.moveaxis(values, -1, 0):
        a0 = v % 3
        a1 = v // 3
        e3 = (e3 + e2 * a0) % 3
        e2 = (e2 + e1 * a0) % 3
        e1 = (e1 + a0) % 3
        p2 = (p2 + a0 * a0) % 3
        t1 = (t1 + a1) % 3
    # s = sum_{i != j} a_i^2 a_j = (sum a^2)(sum a) - sum a^3, with a^3 = a mod 3
    s = (p2 * e1 - e1) % 3
    total = (e1 - 3 * e2 - 3 * s + 3 * e3 + 3 * t1) % 9
    return int(total) if values.ndim == 1 else total


def p3_phase_sum(H: FpMatrix, u: FpVector) -> PhaseExponent:
    """Both sides of the qutrit identity sum_i f_i = sum_a u_a eps_a (mod 9).

    Entries of f = u·H (mod 3) are lifted to integers and summed mod 9;
    eps_a is the plain integer sum of the lifted row a, reduced mod 9.  This
    is the sweep's kernel on one row (ternary_mod9_sum gives the same sum
    from ternary digits alone).  Raises PhaseIdentityError on mismatch.
    """
    if H.p != 3 or u.p != 3:
        raise ValueError("p3_phase_sum is specific to F_3")
    if len(u) != H.nrows:
        raise ValueError(f"u must have one coefficient per row of H ({H.nrows})")
    lhs = _mod9_numerators(H.array, H.array.sum(axis=1) % 9, u.array[None, :])
    return PhaseExponent(int(lhs[0]), 9)


_SWEEP_ENTRIES = 1 << 15  # most entries of u·H held at once by the sweep


def phase_identity_sweep(H: FpMatrix, count: int) -> np.ndarray:
    """Exact phase numerators of the first `count` coefficient vectors of H.

    The vectors come in odometer order, u_r = (index // p^r) % p, so with the
    logical rows first the first p^k of them are the zero-padded logical
    labels.  The numerators are sum_i (u·H)_i^3 mod p at p >= 5 and
    p3_phase_sum's lifted sums mod 9 at p = 3, both taken in blocks of at
    most 2^15 entries of u·H.  Raises PhaseIdentityError at the first u where
    the identity fails.
    """
    p, rows = H.p, H.nrows
    if not 0 <= count <= p**rows:
        raise ValueError(f"count must lie in [0, {p}^{rows}], got {count}")
    if p == 3:
        numerators = partial(_mod9_numerators, H.array, H.array.sum(axis=1) % 9)
    elif p >= 5:
        numerators = partial(_cubic_numerators, H.array, power_sums(H.array, 3, p), p=p)
    else:
        raise ValueError(f"no cubic phase identity at p = {p}")
    step = max(1, _SWEEP_ENTRIES // max(H.ncols, rows, 1))
    out = np.empty(count, dtype=np.int64)
    for start in range(0, count, step):
        stop = min(start + step, count)
        out[start:stop] = numerators(_coefficients(start, stop, rows, p))
    return out


def _p3_motifs(max_len: int, logical: bool):
    """Full-support candidate rows v, shortest first, that keep the mod-9 identity on their own support.

    Each multiple c·v (c = 1, 2) must have lifted sum c·eps mod 9.  Logical
    rows have square weight != 0 and eps = sum v; stabilizer rows have square
    weight 0 and eps = 0, so coset shifts never move the phase.  Rows of one
    length come in base-3 counting order, digit 0 least significant, and are
    yielded lazily, so taking the first costs only the lengths below it.
    """
    for length in range(1, max_len + 1):
        for digits in product((1, 2), repeat=length):
            v = digits[::-1]
            if (sum(x * x for x in v) % 3 != 0) != logical:
                continue
            eps = sum(v) % 9 if logical else 0
            if all(sum(c * x % 3 for x in v) % 9 == c * eps % 9 for c in (1, 2)):
                yield v


def find_p3_code(max_cols: int = 14, logical_rows: int = 2, stabilizer_rows: int = 1):
    """The shortest qutrit code of full-support motifs on disjoint supports that keeps the mod-9 identity.

    The code is assembled, not searched for: the first logical motif, (1,),
    fills logical_rows rows and the first stabilizer motif of length at most
    min(9, max_cols), (2, 2, 2, 1, 1, 1), fills stabilizer_rows rows, each row
    on its own block of columns.  Among all such assemblies this one is the
    answer.  Disjoint supports make every pair and triple star product vanish
    and make the lifted sums add, so the identity each motif keeps on its own
    support holds for every assembly; motifs come shortest first, so no
    assembly is shorter, and if this one exceeds max_cols every one does.
    One exhaustive sweep over F_3^rows checks the result.  Returns the
    assembled TriorthogonalCode.
    """
    from .triortho_css import code_from_matrix

    if logical_rows < 1 or stabilizer_rows < 1:
        raise ValueError("need at least one logical and one stabilizer row")
    logical = next(_p3_motifs(4, logical=True))
    stabilizer = next(_p3_motifs(min(9, max_cols), logical=False), None)
    motifs = [logical] * logical_rows + [stabilizer] * stabilizer_rows
    if stabilizer is None or sum(map(len, motifs)) > max_cols:
        raise ValueError(f"no qutrit code with the mod-9 identity found within {max_cols} columns")
    lengths = [len(v) for v in motifs]
    H = np.zeros((len(motifs), sum(lengths)), dtype=np.int64)
    H[np.repeat(np.arange(len(motifs)), lengths), np.arange(sum(lengths))] = np.concatenate(motifs)
    H = FpMatrix(3, H)
    phase_identity_sweep(H, 3**H.nrows)
    return code_from_matrix(3, H)
