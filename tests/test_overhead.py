"""Overhead exponent, prime search and scaling check."""

import math

import numpy as np
import pytest

from triortho.overhead import (
    INTERPRETATION_NOTE,
    OverheadRecord,
    gamma,
    gamma_scaling_check,
    primes_up_to,
    scaling_summary,
    search_best_gamma,
    to_csv,
)
from triortho.triortho_css import build_code, validate_code


def test_gamma_examples():
    g1 = gamma(35, 6, 6)
    assert round(g1, 2) == 0.98
    assert 0.979 <= g1 <= 0.989
    g2 = gamma(83, 14, 15)
    assert 0.6570 <= g2 <= 0.6578
    assert gamma(12, 4, 3) == 1.0  # n/k = d


def test_gamma_preconditions():
    with pytest.raises(ValueError):
        gamma(10, 10, 3)
    with pytest.raises(ValueError):
        gamma(10, 0, 3)
    with pytest.raises(ValueError):
        gamma(10, 1, 1)


def test_gamma_base_invariance():
    for n, k, d in ((35, 6, 6), (83, 14, 15), (74, 23, 9)):
        assert gamma(n, k, d) == pytest.approx(math.log10(n / k) / math.log10(d), abs=1e-12)


def test_overhead_record_validation():
    OverheadRecord(41, 14, 9, 32, 5, gamma(32, 9, 5))
    with pytest.raises(ValueError):
        OverheadRecord(41, 15, 9, 32, 6, 0.5)  # 3l > p+1
    with pytest.raises(ValueError):
        OverheadRecord(41, 14, 14, 27, 0, 0.5)
    with pytest.raises(ValueError):
        OverheadRecord(41, 14, 9, 31, 5, 0.5)  # n != p-k


def test_primes_up_to():
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_up_to(1) == []


def test_search_records_small():
    recs = search_best_gamma(100)
    by_p = {r.p: r for r in recs}
    assert min(by_p) == 11  # smaller primes cannot reach d >= 2
    r41 = by_p[41]
    assert (r41.l, r41.k, r41.n, r41.d) == (14, 9, 32, 5)
    assert r41.gamma == pytest.approx(math.log(32 / 9) / math.log(5), abs=1e-12)
    assert r41.gamma <= 0.984  # beats the reference (l=12, k=6) instance
    r97 = by_p[97]
    assert (r97.l, r97.k, r97.n, r97.d) == (32, 23, 74, 9)
    assert r97.gamma <= 0.658
    assert r97.gamma == pytest.approx(math.log(74 / 23) / math.log(9), abs=1e-12)


def test_search_deterministic():
    assert search_best_gamma(300) == search_best_gamma(300)


def test_search_matches_full_grid():
    # independent oracle: scan every (l, k), smallest l then smallest k on ties
    recs = {r.p: r for r in search_best_gamma(200)}
    for p in primes_up_to(200):
        best = None
        for l in range(3, (p + 1) // 3 + 1):
            for k in range(1, l - 1):
                g = math.log((p - k) / k) / math.log(l - k)
                if best is None or g < best[0]:
                    best = (g, l, k)
        if best is None:
            assert p not in recs
            continue
        r = recs[p]
        assert (r.l, r.k) == (best[1], best[2]), p
        assert r.gamma == pytest.approx(best[0], abs=1e-12)


def full_scan(p_max):
    """Oracle: gamma at every k in 1..l-2, l = floor((p+1)/3), first argmin per prime."""
    records = []
    for p in primes_up_to(p_max):
        l = (p + 1) // 3
        if l < 3:
            continue  # no k gives d >= 2
        k = np.arange(1, l - 1, dtype=np.float64)
        g = np.log((p - k) / k) / np.log(l - k)
        best = int(np.argmin(g)) + 1
        records.append(OverheadRecord(p, l, best, p - best, l - best, float(g[best - 1])))
    return records


def test_search_equals_full_scan_for_every_accepted_prime():
    # a prime's record does not depend on p_max, and p_max <= 10^5 is enforced,
    # so equality here covers every search the CLI accepts
    recs, oracle = search_best_gamma(10**5), full_scan(10**5)
    assert len(recs) == len(oracle) == 9588
    for r, o in zip(recs, oracle):
        assert (r.p, r.l, r.k, r.n, r.d) == (o.p, o.l, o.k, o.n, o.d)
        assert r.gamma == o.gamma, r.p  # bit for bit, not approx


@pytest.mark.parametrize("p_max", [0, 1, 2, 7, 10, 11, 13])
def test_search_small_bounds_and_types(p_max):
    recs = search_best_gamma(p_max)
    assert recs == full_scan(p_max)
    # no prime below 11 has l = floor((p+1)/3) >= 3, and none has l = 3 (p would be 8, 9 or 10),
    # so the narrowest range is l = 4 at p = 11 and 13: k in {1, 2}, clipped from both sides
    assert [r.p for r in recs] == [p for p in (11, 13) if p <= p_max]
    for r in recs:
        assert r.l == 4
        assert all(type(v) is int for v in (r.p, r.l, r.k, r.n, r.d))
        assert type(r.gamma) is float  # a numpy scalar would print np.float64(...) in to_csv


def test_search_cap():
    with pytest.raises(ValueError):
        search_best_gamma(10**5 + 1)


def test_gamma_scaling_check():
    recs = search_best_gamma(1000)
    assert len(recs) >= 10
    c_fit, monotone_ok = gamma_scaling_check(recs)
    assert monotone_ok
    assert 0 < c_fit < 10
    by_p = {r.p: r for r in recs}
    assert by_p[97].gamma < by_p[41].gamma
    with pytest.raises(ValueError):
        gamma_scaling_check(recs[:2])


def test_search_spot_check_codes():
    recs = [r for r in search_best_gamma(101)]
    for r in recs[::10]:
        code = build_code(r.p, r.l, r.k, budget=10**4)
        assert code.n == r.n and code.k == r.k
        assert validate_code(code)["passed"], r


def test_to_csv():
    recs = search_best_gamma(100)
    text = to_csv(recs)
    lines = text.strip().split("\n")
    assert lines[0] == "p,l,k,n,d,gamma"
    assert len(lines) == len(recs) + 1
    first = lines[1].split(",")
    assert first[0] == "11"
    assert to_csv(recs) == to_csv(search_best_gamma(100))  # byte-for-byte stable


def test_scaling_summary():
    summary = scaling_summary(search_best_gamma(100))
    assert summary["best"]["p"] == 97
    assert summary["monotone_ok"] is True
    assert "l - k" in summary["interpretation"]
    assert summary["interpretation"] == INTERPRETATION_NOTE
