"""Tri-orthogonal CSS code assembly from punctured evaluation codes.

build_code writes the family's matrices from closed forms, with no
elimination.  H1 (square weight != 0, the logical representatives) and H0
(square weight 0, the X stabilizers) are reed_solomon's systematic split of
PRS_l,A.  With P the first l points outside A and F the rest, ascending,
and L as in reed_solomon,
  G = [-L_P(F)^T | I]: the Z stabilizers.  span(H) = PRS_l,A is MDS, so its
      reduced echelon form is [I | L_P(F)], and G is the kernel basis that
      elimination reads off it.
These are the arrays that eliminating the RS_l generator over A, and then
H = [H1; H0], gives; the test suite keeps that route as the oracle.
CSS(X, H0; Z, G) then encodes k qudits.  code_from_matrix splits an
arbitrary matrix by square weight and still takes G by elimination: such a
matrix has no formula.

Distances are exact whenever one enumeration fits the budget.  Every exact
distance comes from one router, fplinalg.coset_min_weight: the least weight
of a span C outside a subspan D, by enumerating C ("direct") or by the
MacWilliams transforms of the weight distributions of D^⊥ ⊃ C^⊥
("macwilliams", which also gives the least weight of D^⊥ outside C^⊥).  Each
caller gives its route order and the dimension each route enumerates:
  build_code  MacWilliams, then direct, on C = span([H1; G]) ⊃ D = span(G),
              whose duals are span(H) ⊃ span(H0), so d_X comes with d_Z.
              rank H = n - rows(G), and rank [H1; G] = k + rows(G) because
              H1 H1^T is diagonal and invertible and H1 G^T = 0.
  verify      direct, then MacWilliams, with the ranks that validate_code
              derives by elimination: a descriptor's G is untrusted, and only
              the direct route reads it.
  the audit   the cheaper side first, a tie going to direct
              (reed_solomon.prs_min_distance).
Out-of-budget codes carry the family-formula d flagged d_verified = False.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .fplinalg import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    FpMatrix,
    FpVector,
    MatrixFormatError,
    PrimeModulus,
    _check_entries,
    coset_min_weight,
    inv_mod,
    kernel_basis,
    matmul_mod,
    power_sums,
    prefix_ranks,
)
from .reed_solomon import RsCodeSpec, _lagrange, _systematic_split, rs_triply_even
from .starproduct import check_triorthogonal

__all__ = [
    "TriorthogonalCode",
    "partition_rows",
    "build_code",
    "code_from_matrix",
    "validate_code",
    "encoded_state_support",
    "to_descriptor",
    "from_descriptor",
]


def partition_rows(H: FpMatrix) -> Tuple[FpMatrix, FpMatrix]:
    """Split rows by square weight: (H0: rows with sum h_i^2 = 0, H1: the rest)."""
    zero = power_sums(H.array, 2, H.p) == 0
    return FpMatrix(H.modulus, H.array[zero]), FpMatrix(H.modulus, H.array[~zero])


@dataclass(frozen=True)
class TriorthogonalCode:
    """A verified tri-orthogonal code: CSS(X, H0; Z, G) with logical rows H1."""

    modulus: PrimeModulus
    l: Optional[int]
    A: Tuple[int, ...]
    H0: FpMatrix
    H1: FpMatrix
    G: FpMatrix
    epsilon: FpVector
    n: int
    k: int
    d: int
    d_verified: bool
    d_x: Optional[int]

    @property
    def p(self) -> int:
        return self.modulus.p

    @property
    def params(self) -> Tuple[int, int, int]:
        return (self.n, self.k, self.d)

    @property
    def H(self) -> FpMatrix:
        """Stacked tri-orthogonal matrix, logical rows first."""
        return self.H1.stack(self.H0)

    @property
    def code_id(self) -> str:
        if self.l is not None:
            aid = ".".join(str(a) for a in self.A)
            return f"p{self.p}-l{self.l}-k{self.k}-A{aid}"
        digest = hashlib.sha256(self.H.array.tobytes()).hexdigest()[:10]
        return f"p{self.p}-custom-{digest}"


def _assemble(modulus, l, A, H0, H1, G, budget, claimed: Optional[int]) -> TriorthogonalCode:
    stacked = H1.stack(H0)
    ok, witness = check_triorthogonal(stacked)
    if not ok:
        raise ValueError(f"matrix is not tri-orthogonal: {witness}")
    square0 = power_sums(H0.array, 2, modulus.p)
    if square0.any():
        raise ValueError(f"H0 row {int(np.flatnonzero(square0)[0])} has nonzero square weight")
    square1 = power_sums(H1.array, 2, modulus.p)
    if not square1.all():
        raise ValueError(f"H1 row {int(np.flatnonzero(square1 == 0)[0])} has zero square weight")
    eps = FpVector(modulus, power_sums(H1.array, 3, modulus.p))
    # ranks from row counts, no elimination (module docstring)
    routes = (("macwilliams", stacked.ncols - G.nrows), ("direct", H1.nrows + G.nrows))
    d_z, d_x = coset_min_weight(H1, G, H0, stacked, routes, budget) if H1.nrows else (None, None)
    if H1.nrows == 0:
        d, verified = 0, True  # no logical classes: distance is vacuous
    elif d_z is not None:
        d, verified = d_z, True
    elif claimed is not None:
        d, verified = claimed, False
    else:
        raise BudgetExceeded("distance enumeration exceeds budget and no family formula applies")
    return TriorthogonalCode(
        modulus=modulus,
        l=l,
        A=tuple(int(a) for a in A),
        H0=H0,
        H1=H1,
        G=G,
        epsilon=eps,
        n=stacked.ncols,
        k=H1.nrows,
        d=d,
        d_verified=verified,
        d_x=d_x,
    )


def build_code(p, l: int, k: int, A=None, budget: int = DEFAULT_BUDGET) -> TriorthogonalCode:
    """Full pipeline from (p, l, k) to a verified code with params (p-k, k, d).

    H1 and H0 come from reed_solomon's closed form of the systematic split,
    and G from the closed form in the module docstring: none needs
    elimination.  The sizes are checked against fplinalg.ENTRY_CAP before
    anything is allocated: the l x p systematic RS_l generator that H1 and H0
    restrict, and G.  The independent checks stay (tri-orthogonality, the
    square-weight partition, unit cubic weights), and H·G^T = 0 guards the
    formula for G.
    """
    modulus = PrimeModulus.of(p)
    p = modulus.p
    if not rs_triply_even(modulus, l):
        raise ValueError(f"3l <= p+1 failed for p={p}, l={l}: RS_l is not triply even")
    if A is None:
        A = tuple(range(k))
    A = tuple(int(a) for a in A)
    if len(A) != k:
        raise ValueError(f"|A| = {len(A)} does not match k = {k}")
    spec = RsCodeSpec.make(modulus, l, A)  # validates k <= l and position ranges
    _check_entries(l, p, f"the RS_{l} generator")
    _check_entries(p - k - l, p - k, "a kernel basis")
    H1, H0 = (FpMatrix(modulus, a) for a in _systematic_split(spec))
    C = np.array(spec.complement(), dtype=np.int64)
    G = FpMatrix(modulus, np.hstack([-_lagrange(C[:l], C[l:], p).T % p, np.eye(p - k - l, dtype=np.int64)]))
    if matmul_mod(H1.stack(H0).array, G.array.T, p).any():
        raise AssertionError("H·G^T != 0: the closed-form G is not a kernel basis of H")
    code = _assemble(modulus, l, spec.A, H0, H1, G, budget, claimed=l - k)
    if any(e != 1 for e in code.epsilon):
        raise AssertionError(f"cubic weights {code.epsilon.tolist()} deviate from 1")
    return code


def code_from_matrix(p, H: FpMatrix, budget: int = DEFAULT_BUDGET) -> TriorthogonalCode:
    """Build a code from a user-supplied tri-orthogonal matrix (rows any order)."""
    modulus = PrimeModulus.of(p)
    if H.p != modulus.p:
        raise ValueError("matrix modulus disagrees with p")
    H0, H1 = partition_rows(H)
    return _assemble(modulus, None, (), H0, H1, kernel_basis(H1.stack(H0)), budget, claimed=None)


def _check(name: str, passed: bool, detail: str = "") -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def validate_code(code: TriorthogonalCode) -> dict:
    """Re-derive every structural requirement; report one named check each.

    Every rank comes from three eliminations (fplinalg.prefix_ranks).  The
    report's "ranks" entry holds rank H and rank [H1; G] under the keys "H"
    and "H1_G": the dimensions that verify's distance routes enumerate.
    """
    p = code.p
    checks = []

    ok, witness = check_triorthogonal(code.H)
    checks.append(_check("tri_orthogonality", ok, "" if ok else str(witness)))

    part_ok = not power_sums(code.H0.array, 2, p).any() and power_sums(code.H1.array, 2, p).all()
    checks.append(_check("square_weight_partition", part_ok))

    comm = not matmul_mod(code.H1.stack(code.H0).array, code.G.array.T, p).any()
    checks.append(_check("stabilizer_commutation", comm, "" if comm else "H·G^T != 0"))

    q = matmul_mod(code.H1.array, code.H1.array.T, p)
    diag_ok = not (q - np.diag(np.diag(q))).any()
    invertible = bool(np.all(np.diag(q) % p != 0)) if code.k else True
    rescale = [inv_mod(int(q[a, a]), p) for a in range(code.k)] if diag_ok and invertible else []
    checks.append(
        _check(
            "canonical_pairing",
            diag_ok and invertible,
            f"rescale to unit pairing: {rescale}" if rescale else "pairing matrix not invertible-diagonal",
        )
    )

    # [H1; G; H0] spans [H; G], and [H0; H1] spans H
    rank_h1, rank_h1_g, rank_all = prefix_ranks(code.H1, code.G, code.H0)
    rank_h0, rank_h = prefix_ranks(code.H0, code.H1)
    rank_g, rank_g_h0 = prefix_ranks(code.G, code.H0)

    indep = rank_h1 == code.k and rank_h == code.k + rank_h0
    checks.append(_check("logical_independence", indep))

    # a repeated row in H0 or G would leave every rank and span unchanged
    independent_rows = rank_h0 == code.H0.nrows and rank_g == code.G.nrows
    dim_ok = code.k == code.n - rank_h0 - rank_g and code.k == code.H1.nrows and independent_rows
    checks.append(_check("dimension", dim_ok, f"n={code.n}, rank H0={rank_h0}, rank G={rank_g}"))

    inside = rank_g_h0 == rank_g
    checks.append(_check("x_stabilizers_inside_z_span", inside))

    span_ok = rank_all == code.k + rank_g
    checks.append(
        _check(
            "span_count",
            span_ok,
            f"rank [H; G] = {rank_all} = k + rank G (H0 lies inside span G, so n is not reached)",
        )
    )

    eps_ok = code.epsilon == FpVector(code.modulus, power_sums(code.H1.array, 3, p))
    checks.append(_check("cubic_weights", eps_ok))

    if code.d_x is not None and code.d_verified:
        checks.append(
            _check("distance_ordering", code.d <= code.d_x, f"d_Z = {code.d}, d_X = {code.d_x}")
        )
    else:
        checks.append(_check("distance_ordering", True, "skipped: distances not both enumerated"))

    return {
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
        "ranks": {"H": rank_h, "H1_G": rank_h1_g},
    }


def encoded_state_support(code: TriorthogonalCode, u: FpVector, stabilizers: np.ndarray) -> np.ndarray:
    """Basis labels of the encoded |u>: the coset u·H1 + span(H0), one int64 row per word.

    `stabilizers` holds every word of span(H0), one int64 row each: the labels of
    the encoded |0>, enumerated once and shared by every u.
    """
    if len(u) != code.k or u.p != code.p:
        raise ValueError(f"u must be a length-{code.k} vector mod {code.p}")
    return (stabilizers + matmul_mod(u.array, code.H1.array, code.p)) % code.p


def to_descriptor(code: TriorthogonalCode) -> dict:
    """JSON-ready interchange form of a code."""
    return {
        "p": code.p,
        "l": code.l,
        "k": code.k,
        "A": list(code.A),
        "H0": code.H0.tolist(),
        "H1": code.H1.tolist(),
        "G": code.G.tolist(),
        "epsilon": code.epsilon.tolist(),
        "params": {
            "n": code.n,
            "k": code.k,
            "d": code.d,
            "d_verified": code.d_verified,
        },
    }


def _require(cond: bool, message: str):
    if not cond:
        raise MatrixFormatError(message)


def from_descriptor(data) -> TriorthogonalCode:
    """Parse the interchange form; structural validation only, no re-derivation.

    Every integer field must be exactly an int: JSON's true and false parse to
    bools, which isinstance(_, int) would take as the residues 1 and 0.
    """
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise MatrixFormatError(f"descriptor is not valid JSON: {exc}") from exc
    _require(isinstance(data, dict), "descriptor must be a JSON object")
    for key in ("p", "l", "k", "A", "H0", "H1", "G", "epsilon", "params"):
        _require(key in data, f"descriptor missing field {key!r}")
    _require(type(data["p"]) is int, "p must be an integer")
    try:
        modulus = PrimeModulus(data["p"])
    except (ValueError, TypeError) as exc:
        raise MatrixFormatError(str(exc)) from exc
    params = data["params"]
    _require(isinstance(params, dict), "params must be an object")
    for key in ("n", "k", "d", "d_verified"):
        _require(key in params, f"params missing field {key!r}")
    n, k, d = params["n"], params["k"], params["d"]
    _require(type(n) is int and n >= 1, "params.n must be a positive integer")
    _require(type(k) is int and k >= 0, "params.k must be a non-negative integer")
    _require(type(d) is int and d >= 0, "params.d must be a non-negative integer")
    _require(isinstance(params["d_verified"], bool), "params.d_verified must be a boolean")
    _require(type(data["k"]) is int and data["k"] == k, "top-level k disagrees with params.k")
    l = data["l"]
    _require(l is None or (type(l) is int and 1 <= l <= modulus.p), "l must be null or in [1, p]")

    def matrix(key, expected_rows=None):
        raw = data[key]
        _require(isinstance(raw, list), f"{key} must be a list of rows")
        for row in raw:
            _require(
                isinstance(row, list)
                and len(row) == n
                and all(type(x) is int and 0 <= x < modulus.p for x in row),
                f"{key} rows must be length-{n} lists of canonical residues",
            )
        if expected_rows is not None:
            _require(len(raw) == expected_rows, f"{key} must have {expected_rows} rows")
        if raw:
            return FpMatrix.from_rows(modulus, raw)
        return FpMatrix.empty(modulus, n)

    H0 = matrix("H0")
    H1 = matrix("H1", expected_rows=k)
    G = matrix("G")
    eps = data["epsilon"]
    _require(
        isinstance(eps, list) and len(eps) == k and all(type(x) is int and 0 <= x < modulus.p for x in eps),
        "epsilon must be a length-k list of canonical residues",
    )
    A = data["A"]
    _require(
        isinstance(A, list) and all(type(a) is int and 0 <= a < modulus.p for a in A) and len(set(A)) == len(A),
        "A must be a list of distinct positions in [0, p)",
    )
    return TriorthogonalCode(
        modulus=modulus,
        l=l,
        A=tuple(A),
        H0=H0,
        H1=H1,
        G=G,
        epsilon=FpVector(modulus, eps),
        n=n,
        k=k,
        d=d,
        d_verified=params["d_verified"],
        d_x=None,
    )
