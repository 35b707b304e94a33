"""Distillation-overhead exponent gamma and the parameter search over primes.

gamma = ln(n/k)/ln(d) for an (n, k, d) family member; the family from a
prime p offers n = p - k, d = l - k under 3l <= p + 1, so growing p drives
the best achievable gamma toward zero like 1/ln(p).  The distance parameter
is read as l - k throughout — the value that reproduces the family's own
reference numbers — and every report carries that interpretation note.

The per-prime search bisects over k, where gamma is quasiconvex, instead of
scanning every k; search_best_gamma gives the argument, the float window
and the exhaustive check that makes its records those of the full scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

__all__ = [
    "INTERPRETATION_NOTE",
    "OverheadRecord",
    "gamma",
    "primes_up_to",
    "search_best_gamma",
    "gamma_scaling_check",
    "to_csv",
    "scaling_summary",
]

WINDOW = 2  # ks evaluated on each side of the bisection's minimiser

INTERPRETATION_NOTE = (
    "gamma = ln(n/k)/ln(d) with the family distance parameter read as d = l - k; "
    "exact enumeration shows the realized minimum distance can exceed this value"
)


@dataclass(frozen=True)
class OverheadRecord:
    """Best (l, k) found for one prime, with the resulting gamma."""

    p: int
    l: int
    k: int
    n: int
    d: int
    gamma: float

    def __post_init__(self):
        if 3 * self.l > self.p + 1:
            raise ValueError(f"3l <= p+1 violated: l={self.l}, p={self.p}")
        if not 1 <= self.k < self.l:
            raise ValueError(f"need 1 <= k < l, got k={self.k}, l={self.l}")
        if self.n != self.p - self.k or self.d != self.l - self.k:
            raise ValueError("n, d must equal p - k and l - k")


def gamma(n: int, k: int, d: int) -> float:
    """ln(n/k)/ln(d); base-independent ratio."""
    if not n > k >= 1:
        raise ValueError(f"need n > k >= 1, got n={n}, k={k}")
    if d < 2:
        raise ValueError(f"gamma is undefined for d < 2 (got d={d})")
    return math.log(n / k) / math.log(d)


def primes_up_to(n: int) -> List[int]:
    """Eratosthenes sieve."""
    if n < 2:
        return []
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for q in range(2, int(n**0.5) + 1):
        if flags[q]:
            flags[q * q :: q] = False
    return [int(q) for q in np.nonzero(flags)[0]]


def _gamma_at(p: np.ndarray, l: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Elementwise gamma at d = l - k, n = p - k, in float64 as a full scan over k computes it."""
    k = k.astype(np.float64)
    return np.log((p - k) / k) / np.log(l - k)


def search_best_gamma(p_max: int) -> List[OverheadRecord]:
    """Per-prime minimum of gamma over the family's (l, k) grid.

    For fixed k, gamma strictly decreases as l grows (larger d at the same
    n/k), so the minimum sits at l = floor((p+1)/3) and only k in 1..l-2
    is left.  There f(k) = ln((p-k)/k) / ln(l-k) is quasiconvex: the
    numerator is positive and convex for k < p/2, the denominator positive
    and concave, so each sublevel set {N - cD <= 0}, c > 0, is an interval.
    A bisection on the sign of f(k+1) - f(k), run over all primes at once,
    therefore lands on the integer minimiser in about log2(l) steps.  Float
    rounding only matters on the flat bottom, so the record is the first
    argmin of f over a window of WINDOW ks on each side of that point, each
    value computed by the same float64 expression a full scan over k uses.
    The test suite checks the result against that full scan, record for
    record and bit for bit, for every prime up to the 10^5 cap; a prime's
    record does not depend on p_max, so that covers every accepted search.
    """
    if p_max > 10**5:
        raise ValueError("search capped at p_max <= 10^5")
    p = np.array(primes_up_to(p_max), dtype=np.int64)
    l = (p + 1) // 3
    p, l = p[l >= 3], l[l >= 3]  # l < 3 leaves no k with d >= 2

    lo, hi = np.ones_like(l), l - 2
    while (lo < hi).any():
        mid = (lo + hi) // 2
        # f(k+1) < f(k): the minimiser lies right of mid; a converged row compares f(hi) with itself
        down = _gamma_at(p, l, np.minimum(mid + 1, hi)) < _gamma_at(p, l, mid)
        lo, hi = np.where(down, mid + 1, lo), np.where(down, hi, mid)
    k = np.clip(lo[:, None] + np.arange(-WINDOW, WINDOW + 1), 1, (l - 2)[:, None])
    g = _gamma_at(p[:, None], l[:, None], k)
    best = np.argmin(g, axis=1)  # first occurrence: smallest k on ties
    rows = np.arange(len(p))
    k, g = k[rows, best], g[rows, best]
    return [
        OverheadRecord(p=pi, l=li, k=ki, n=pi - ki, d=li - ki, gamma=gi)
        for pi, li, ki, gi in zip(p.tolist(), l.tolist(), k.tolist(), g.tolist())
    ]


def gamma_scaling_check(records: Sequence[OverheadRecord]):
    """(c_fit, monotone_ok): envelope constant for gamma <= c/ln(p) and
    non-increase of the running minimum of gamma across primes.

    monotone_ok is always True: a running minimum never rises, whatever the
    records hold, so no input can make it False.  It is kept because
    `search --format json` and criterion 9 report it.
    """
    if len(records) < 10:
        raise ValueError(f"need at least 10 records, got {len(records)}")
    c_fit = max(r.gamma * math.log(r.p) for r in records)
    return (c_fit, True)


def to_csv(records: Sequence[OverheadRecord]) -> str:
    lines = ["p,l,k,n,d,gamma"]
    for r in records:
        lines.append(f"{r.p},{r.l},{r.k},{r.n},{r.d},{r.gamma!r}")
    return "\n".join(lines) + "\n"


def scaling_summary(records: Sequence[OverheadRecord]) -> dict:
    """JSON-ready summary of a search run."""
    c_fit, monotone_ok = gamma_scaling_check(records)
    best = min(records, key=lambda r: (r.gamma, r.p))
    return {
        "count": len(records),
        "c_fit": c_fit,
        "monotone_ok": monotone_ok,
        "best": {
            "p": best.p,
            "l": best.l,
            "k": best.k,
            "n": best.n,
            "d": best.d,
            "gamma": best.gamma,
        },
        "interpretation": INTERPRETATION_NOTE,
    }
