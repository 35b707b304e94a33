"""Tri-orthogonal CSS code assembly from punctured evaluation codes.

The pipeline: bring the RS_l generator to systematic form over the puncture
positions A (those columns become -Identity on the first k rows and vanish
below), restrict to the complement, split rows into H1 (square weight != 0,
logical representatives) and H0 (square weight 0, X stabilizers), and take
G = a kernel basis of the stacked H as the Z stabilizers.  CSS(X, H0; Z, G)
then encodes k qudits.

Distances are computed exactly whenever an enumeration side fits the
budget, and each span is enumerated at most once.  When span(H) fits, the
weight distributions of span(H0) ⊂ span(H) give both distances: d_Z through
their MacWilliams transforms (the duals span([H1; G]) ⊃ span(G)), d_X as the
lightest weight where span(H) has more words than span(H0).  Otherwise d_Z
comes from enumerating span([H1; G]) minus span(G) directly, and d_X is left
unknown.  Out-of-budget codes carry the family-formula value flagged
d_verified = False.  verify recomputes d_Z with the direct route first, since
a descriptor's G is untrusted (_distance_exact_z).
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
    _span_basis,
    _SpanEnumerator,
    inv_mod,
    kernel_basis,
    matmul_mod,
    min_weight,
    macwilliams_dual_distribution,
    power_sums,
    rref,
    rref_with_transform,
    weight_distribution,
)
from .reed_solomon import RsCodeSpec, rs_generator, rs_triply_even
from .starproduct import check_triorthogonal

__all__ = [
    "PunctureRankError",
    "TriorthogonalCode",
    "systematic_puncture",
    "partition_rows",
    "build_code",
    "code_from_matrix",
    "validate_code",
    "encoded_state_support",
    "to_descriptor",
    "from_descriptor",
]


class PunctureRankError(ValueError):
    """The chosen puncture columns are not independent, so no systematic form exists."""


def systematic_puncture(rs_gen: FpMatrix, A) -> Tuple[FpMatrix, FpMatrix]:
    """Row-reduce so the A columns read [-Identity; 0], then restrict to A^c.

    Only the A columns are eliminated; the remaining columns keep their
    evaluation-code texture (full reduced echelon form would mix extra
    stabilizer rows into the logical ones).  Returns (H1, H0): the first k
    rows and the remaining rows, both with the A columns deleted.
    """
    p = rs_gen.p
    A = tuple(int(a) for a in A)
    k = len(A)
    if len(set(A)) != k:
        raise PunctureRankError("puncture positions must be distinct")
    if any(a < 0 or a >= rs_gen.ncols for a in A):
        raise PunctureRankError("puncture position out of range")
    # with rank k the A block of T @ rs_gen is [Identity; 0]
    _, rank, _, T = rref_with_transform(FpMatrix(rs_gen.modulus, rs_gen.array[:, list(A)]))
    if rank < k:
        raise PunctureRankError(f"puncture set unusable: columns {A} are rank deficient")
    arr = matmul_mod(T.array, rs_gen.array, p)
    rest = [c for c in range(rs_gen.ncols) if c not in set(A)]
    h1 = (-arr[:k][:, rest]) % p  # flip sign so the A block is -Identity
    h0 = arr[k:][:, rest]
    return (
        FpMatrix(rs_gen.modulus, h1),
        FpMatrix(rs_gen.modulus, h0),
    )


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


def _first_excess(larger, smaller, message: str) -> int:
    """Least w >= 1 with larger[w] > smaller[w]: the lightest word of a span outside a subspan.

    Exact when the distributions belong to spans C ⊃ D: each weight class of D
    lies inside C's, so C has a word of weight w outside D exactly then.
    """
    for w in range(1, len(larger)):
        if larger[w] > smaller[w]:
            return w
    raise ArithmeticError(message)


def _distance_z_dual(dist_h0, dist_h, p: int) -> int:
    """d_Z from the span(H0) and span(H) distributions by their MacWilliams transforms.

    Their duals are span([H1; G]) ⊃ span(G), whose difference is the logical Z words.
    """
    n = len(dist_h) - 1
    outer = macwilliams_dual_distribution(dist_h0, n, p)
    inner = macwilliams_dual_distribution(dist_h, n, p)
    return _first_excess(outer, inner, "no logical Z codeword found; H1 must be dependent on [H0; G]")


def _distance_exact_z(H0, H1, G, budget: int) -> Optional[int]:
    """Minimum weight over span([H1; G]) \\ span(G), or None when out of budget.

    The route of verify, whose G is read from a descriptor and so untrusted:
    ranks come from elimination, and the direct route, which enumerates the
    coset space through G, is tried first; the MacWilliams route, which never
    reads G, is the fallback.
    """
    p = H0.p
    if H1.nrows == 0:
        return None
    stacked = H1.stack(G)
    _, rank_z, _ = rref(stacked)
    if p**rank_z <= budget:
        return min_weight(stacked, exclude=G, budget=budget)
    full_h = H1.stack(H0)
    _, rank_h, _ = rref(full_h)
    if p**rank_h <= budget:
        return _distance_z_dual(weight_distribution(H0, budget=budget), weight_distribution(full_h, budget=budget), p)
    return None


def _distances(H0, H1, H, G, budget: int):
    """(d_Z, d_X) of a code being assembled, each None when out of budget.

    G = kernel_basis(H), so rank H = n - rows(G) without elimination.  H1 H1^T
    is diagonal and invertible and H1 G^T = 0, so no combination of H1 rows
    lies in span(G) and rank [H1; G] = k + rows(G).  span(H) is enumerated
    when it fits, with span(H0) ⊂ span(H): both distances then come from the
    two distributions, d_X as the lightest word of span(H) outside span(H0).
    Otherwise the coset space span([H1; G]) is enumerated directly for d_Z.
    """
    p, n, k = H.p, H.ncols, H1.nrows
    if k == 0:
        return None, None
    if p ** (n - G.nrows) <= budget:
        dist_h0 = weight_distribution(H0, budget=budget)
        dist_h = weight_distribution(H, budget=budget)
        d_x = _first_excess(dist_h, dist_h0, "no logical X codeword found; H1 must be dependent on H0")
        return _distance_z_dual(dist_h0, dist_h, p), d_x
    if p ** (k + G.nrows) <= budget:
        return min_weight(H1.stack(G), exclude=G, budget=budget), None
    return None, None


def _assemble(modulus, l, A, H0, H1, budget, claimed: Optional[int]) -> TriorthogonalCode:
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
    G = kernel_basis(stacked)
    eps = FpVector(modulus, power_sums(H1.array, 3, modulus.p))
    d_z, d_x = _distances(H0, H1, stacked, G, budget)
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
    """Full pipeline from (p, l, k) to a verified code with params (p-k, k, d)."""
    modulus = PrimeModulus.of(p)
    if not rs_triply_even(modulus, l):
        raise ValueError(f"3l <= p+1 failed for p={modulus.p}, l={l}: RS_l is not triply even")
    if A is None:
        A = tuple(range(k))
    A = tuple(int(a) for a in A)
    if len(A) != k:
        raise ValueError(f"|A| = {len(A)} does not match k = {k}")
    spec = RsCodeSpec.make(modulus, l, A)  # validates k <= l and position ranges
    gen = rs_generator(modulus, l)
    H1, H0 = systematic_puncture(gen, spec.A)
    part0, part1 = partition_rows(H1.stack(H0))
    if part1.tolist() != H1.tolist() or part0.tolist() != H0.tolist():
        raise AssertionError("square-weight partition disagrees with systematic form")
    code = _assemble(modulus, l, spec.A, H0, H1, budget, claimed=l - k)
    if any(e != 1 for e in code.epsilon):
        raise AssertionError(f"cubic weights {code.epsilon.tolist()} deviate from 1")
    return code


def code_from_matrix(p, H: FpMatrix, budget: int = DEFAULT_BUDGET) -> TriorthogonalCode:
    """Build a code from a user-supplied tri-orthogonal matrix (rows any order)."""
    modulus = PrimeModulus.of(p)
    if H.p != modulus.p:
        raise ValueError("matrix modulus disagrees with p")
    H0, H1 = partition_rows(H)
    return _assemble(modulus, None, (), H0, H1, budget, claimed=None)


def _check(name: str, passed: bool, detail: str = "") -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def validate_code(code: TriorthogonalCode) -> dict:
    """Re-derive every structural requirement; report one named check each."""
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

    _, rank_h1, _ = rref(code.H1)
    _, rank_h0, _ = rref(code.H0)
    _, rank_h, _ = rref(code.H)
    indep = rank_h1 == code.k and rank_h == code.k + rank_h0
    checks.append(_check("logical_independence", indep))

    _, rank_g, _ = rref(code.G)
    dim_ok = code.k == code.n - rank_h0 - rank_g and code.k == code.H1.nrows
    checks.append(_check("dimension", dim_ok, f"n={code.n}, rank H0={rank_h0}, rank G={rank_g}"))

    _, rank_g_h0, _ = rref(code.G.stack(code.H0))
    inside = rank_g_h0 == rank_g
    checks.append(_check("x_stabilizers_inside_z_span", inside))

    _, rank_all, _ = rref(code.H.stack(code.G))
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

    return {"passed": all(c["passed"] for c in checks), "checks": checks}


def encoded_state_support(code: TriorthogonalCode, u: FpVector) -> set:
    """Basis labels of the encoded |u>: the coset u·H1 + span(H0)."""
    if len(u) != code.k or u.p != code.p:
        raise ValueError(f"u must be a length-{code.k} vector mod {code.p}")
    p = code.p
    base = matmul_mod(u.array, code.H1.array, p)
    basis, _ = _span_basis(code.H0)
    return {
        FpVector(code.modulus, (base + word) % p)
        for _, words in _SpanEnumerator(basis, p).blocks()
        for word in words
    }


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
    """Parse the interchange form; structural validation only, no re-derivation."""
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise MatrixFormatError(f"descriptor is not valid JSON: {exc}") from exc
    _require(isinstance(data, dict), "descriptor must be a JSON object")
    for key in ("p", "l", "k", "A", "H0", "H1", "G", "epsilon", "params"):
        _require(key in data, f"descriptor missing field {key!r}")
    _require(isinstance(data["p"], int), "p must be an integer")
    try:
        modulus = PrimeModulus(data["p"])
    except (ValueError, TypeError) as exc:
        raise MatrixFormatError(str(exc)) from exc
    params = data["params"]
    _require(isinstance(params, dict), "params must be an object")
    for key in ("n", "k", "d", "d_verified"):
        _require(key in params, f"params missing field {key!r}")
    n, k, d = params["n"], params["k"], params["d"]
    _require(isinstance(n, int) and n >= 1, "params.n must be a positive integer")
    _require(isinstance(k, int) and k >= 0, "params.k must be a non-negative integer")
    _require(isinstance(d, int) and d >= 0, "params.d must be a non-negative integer")
    _require(isinstance(params["d_verified"], bool), "params.d_verified must be a boolean")
    _require(data["k"] == k, "top-level k disagrees with params.k")
    l = data["l"]
    _require(l is None or (isinstance(l, int) and 1 <= l <= modulus.p), "l must be null or in [1, p]")

    def matrix(key, expected_rows=None):
        raw = data[key]
        _require(isinstance(raw, list), f"{key} must be a list of rows")
        for row in raw:
            _require(
                isinstance(row, list)
                and len(row) == n
                and all(isinstance(x, int) and 0 <= x < modulus.p for x in row),
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
        isinstance(eps, list) and len(eps) == k and all(isinstance(x, int) and 0 <= x < modulus.p for x in eps),
        "epsilon must be a length-k list of canonical residues",
    )
    A = data["A"]
    _require(
        isinstance(A, list) and all(isinstance(a, int) and 0 <= a < modulus.p for a in A) and len(set(A)) == len(A),
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
