"""End-to-end acceptance checks tying every module to its headline claims.

Each criterion function re-derives its facts from scratch (no cached state)
and returns {"criterion", "name", "passed", "detail", ...}.  The `selftest`
CLI command runs them all and prints one line per criterion.  Several
criteria pin reference values for the punctured-code distance; where exact
enumeration contradicts those values the checks report the enumerated truth
and fail loudly rather than bending the measurement.
"""

from __future__ import annotations

import math
from itertools import product
from typing import List

import numpy as np

from .fplinalg import FpVector, power_sums
from .gates import (
    PhaseIdentityError,
    find_p3_code,
    phase_identity_sweep,
    ternary_mod9_sum,
    third_level_gate,
)
from .overhead import gamma, gamma_scaling_check, primes_up_to, search_best_gamma
from .qudit_sim import apply_x_string, apply_z_string, encode, verify_transversal_action
from .reed_solomon import audit_distance_formula, family_grid, rs_generator, rs_triply_even
from .starproduct import check_triorthogonal, check_triply_even
from .triortho_css import build_code

__all__ = ["run_all", "format_report"] + [f"criterion_{i}" for i in range(1, 11)]


def _result(number: int, name: str, passed: bool, detail: str, **extra) -> dict:
    out = {"criterion": number, "name": name, "passed": bool(passed), "detail": detail}
    out.update(extra)
    return out


def criterion_1() -> dict:
    g1 = gamma(35, 6, 6)
    g2 = gamma(83, 14, 15)
    ok = 0.979 <= g1 <= 0.989 and round(g1, 2) == 0.98 and 0.6570 <= g2 <= 0.6578
    return _result(
        1,
        "gamma reproduction",
        ok,
        f"gamma(35,6,6) = {g1:.6f} (rounds to {round(g1, 2)}), gamma(83,14,15) = {g2:.6f}",
    )


def criterion_2() -> dict:
    clauses = []
    c41 = build_code(41, 12, 6)
    clauses.append(("41: params (35,6,6) unverified", c41.params == (35, 6, 6) and not c41.d_verified))
    c97 = build_code(97, 29, 14)
    clauses.append(("97: params (83,14,15) unverified", c97.params == (83, 14, 15) and not c97.d_verified))
    c13 = build_code(13, 4, 1)
    clauses.append(
        (
            f"13: params (12,1,3) with d verified — enumeration gives d = {c13.d} "
            f"(verified = {c13.d_verified})",
            c13.params == (12, 1, 3) and c13.d_verified,
        )
    )
    detail = "; ".join(f"[{'ok' if ok else 'FAIL'}] {text}" for text, ok in clauses)
    return _result(2, "construction reproduction", all(ok for _, ok in clauses), detail)


def criterion_3() -> dict:
    records = search_best_gamma(100)
    hits = [r for r in records if r.n == 83 and r.gamma < 0.6779]
    best = min(records, key=lambda r: r.gamma)
    detail = (
        f"records with n = 83 and gamma < 0.6779: {len(hits)}; "
        f"overall best is p={best.p} (l={best.l}, k={best.k}) with n={best.n}, "
        f"gamma={best.gamma:.4f} — the per-prime optimum at p=97 does not use n=83"
    )
    return _result(3, "sub-reference point at block size 83", bool(hits), detail)


def criterion_4() -> dict:
    bad = []
    count = 0
    for p, l, k in family_grid(31):
        code = build_code(p, l, k, budget=10**4)
        count += 1
        ok, witness = check_triorthogonal(code.H)
        if not ok:
            bad.append(f"p{p}-l{l}-k{k}: {witness}")
            continue
        if any(e != 1 for e in code.epsilon):
            bad.append(f"p{p}-l{l}-k{k}: epsilon {code.epsilon.tolist()}")
        if (power_sums(code.H1.array, 2, p) != p - 1).any():
            bad.append(f"p{p}-l{l}-k{k}: H1 square weight not -1")
        if power_sums(code.H0.array, 2, p).any():
            bad.append(f"p{p}-l{l}-k{k}: H0 square weight not 0")
    detail = f"{count} constructions checked" + (f"; failures: {bad[:5]}" if bad else "")
    return _result(4, "tri-orthogonality suite p <= 31", not bad, detail)


def criterion_5() -> dict:
    bad = []
    count = 0
    boundary = 0
    for p in primes_up_to(31):
        for l in range(1, p + 1):
            count += 1
            direct, _ = check_triply_even(rs_generator(p, l))
            if direct != rs_triply_even(p, l):
                bad.append((p, l))
            if 3 * l == p + 1:
                boundary += 1
    detail = f"{count} (p,l) pairs agree, including {boundary} boundary cases 3l = p+1"
    if bad:
        detail = f"disagreements: {bad}"
    return _result(5, "triply-even criterion vs direct predicate", not bad, detail)


def criterion_6() -> dict:
    checked = 0
    total_u = 0
    bad = []
    for p, l, k in family_grid(31):
        if p**k > 10**6:
            continue
        code = build_code(p, l, k, budget=10**4)
        checked += 1
        total_u += p**k
        try:
            phase_identity_sweep(code.H1, p**k)
        except PhaseIdentityError as exc:
            bad.append(f"p{p}-l{l}-k{k}: {exc}")
    detail = f"{checked} codes, {total_u} logical vectors, both sides equal"
    if bad:
        detail = f"identity violations: {bad[:5]}"
    return _result(6, "cubic phase identity over all logical u", not bad, detail)


def _amplitude_gap(a, b) -> float:
    """Largest amplitude difference of two states; inf when their supports differ."""
    same = np.array_equal(a.labels, b.labels)
    return float(np.abs(a.amplitudes - b.amplitudes).max()) if same else math.inf


def criterion_7() -> dict:
    code = build_code(7, 2, 1)
    report = verify_transversal_action(code, third_level_gate(7))
    stab_dev = 0.0
    for uval in range(7):
        state = encode(code, FpVector(7, [uval]))
        for i in range(code.H0.nrows):
            stab_dev = max(stab_dev, _amplitude_gap(state, apply_x_string(state, code.H0.row(i))))
        for i in range(code.G.nrows):
            stab_dev = max(stab_dev, _amplitude_gap(state, apply_z_string(state, code.G.row(i))))
    ok = report["max_deviation"] < 1e-9 and not report["failures"] and stab_dev < 1e-9
    return _result(
        7,
        "end-to-end simulation p=7",
        ok,
        f"gate deviation {report['max_deviation']:.2e} over 7 logical states, "
        f"stabilizer deviation {stab_dev:.2e}",
    )


def criterion_8() -> dict:
    for length in (2, 3):
        cases = np.array(list(product(range(9), repeat=length)))
        wrong = np.flatnonzero(ternary_mod9_sum(cases) != cases.sum(axis=1) % 9)
        if wrong.size:
            vals = tuple(int(v) for v in cases[wrong[0]])
            return _result(8, "qutrit machinery", False, f"mod-9 formula fails on {vals}")
    code = find_p3_code()
    rows = code.H.nrows
    try:
        phase_identity_sweep(code.H, 3**rows)
    except PhaseIdentityError as exc:
        return _result(8, "qutrit machinery", False, f"identity failed: {exc}")
    report = verify_transversal_action(code, third_level_gate(3))
    ok = report["max_deviation"] < 1e-9 and not report["failures"]
    return _result(
        8,
        "qutrit machinery",
        ok,
        f"mod-9 formula exhaustive on pairs/triples; identity exhaustive on {code.code_id} "
        f"({3**rows} coefficient vectors); gate deviation {report['max_deviation']:.2e}",
    )


def criterion_9() -> dict:
    records = search_best_gamma(10**4)
    c_fit, monotone_ok = gamma_scaling_check(records)
    ok = monotone_ok and math.isfinite(c_fit)
    return _result(
        9,
        "gamma scaling toward zero",
        ok,
        f"{len(records)} primes; c_fit = {c_fit:.4f}; running minimum non-increasing: {monotone_ok}",
    )


def criterion_10() -> dict:
    entries = audit_distance_formula(31, budget=10**8)
    checked = [e for e in entries if not e["skipped"]]
    mismatched = [e for e in checked if not e["matches"]]
    sample = ", ".join(
        f"{e['name']}: computed {e['computed']} != claimed {e['claimed']}" for e in mismatched[:5]
    )
    detail = (
        f"{len(checked)}/{len(entries)} instances enumerated, {len(mismatched)} mismatches"
        + (f" (e.g. {sample}, ...)" if mismatched else "")
    )
    return _result(10, "distance-formula audit p <= 31", not mismatched, detail, entries=entries)


def run_all() -> List[dict]:
    return [globals()[f"criterion_{i}"]() for i in range(1, 11)]


def format_report(results: List[dict]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        lines.append(f"CRITERION {r['criterion']:>2} {status} [{r['name']}]: {r['detail']}")
    return "\n".join(lines) + "\n"
