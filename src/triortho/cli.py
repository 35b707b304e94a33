"""Command-line front end: construct, verify, simulate, gamma, search, selftest.

Exit codes: 0 success, 1 verification failure, 2 parameter error,
3 I/O or format error, 4 resource cap exceeded.  All JSON output uses
lexicographically sorted keys and the pipeline is deterministic, so repeated
runs with identical flags are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence, Tuple

from .fplinalg import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    EmptyCoset,
    MatrixFormatError,
    ResourceCapError,
    coset_min_weight,
    parse_matrix,
)
from .gates import PhaseIdentityError, find_p3_code, phase_identity_sweep, third_level_gate
from .overhead import (
    INTERPRETATION_NOTE,
    gamma,
    scaling_summary,
    search_best_gamma,
    to_csv,
)
from .qudit_sim import verify_transversal_action
from .starproduct import check_phase_identity, check_triorthogonal
from .triortho_css import (
    TriorthogonalCode,
    build_code,
    code_from_matrix,
    from_descriptor,
    to_descriptor,
    validate_code,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARAM = 2
EXIT_IO = 3
EXIT_CAP = 4

MIN_BUDGET = 10**4
PHASE_SAMPLE_CAP = 10**4  # coefficient vectors the p = 3 sweep takes and a pass detail counts


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _positions(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"--positions must be a comma-separated integer list: {exc}") from exc


def cmd_construct(args: argparse.Namespace) -> int:
    code = build_code(args.p, args.l, args.k, A=args.positions, budget=args.budget)
    _emit(args, _dump_json(to_descriptor(code)))
    return EXIT_OK


def _witness_detail(witness) -> str:
    return f"{witness.kind} sum at rows {list(witness.indices)} is {witness.value}, not 0"


def _identity_check(code: TriorthogonalCode) -> Tuple[bool, str]:
    """Recheck the phase identity on H.

    At p >= 5 check_phase_identity decides it on all of F_p^m, so a pass
    also covers the first PHASE_SAMPLE_CAP coefficient vectors its detail
    names.  At p = 3 the lifted identity is no cubic form over F_3, and the
    mod-9 sweep checks the first PHASE_SAMPLE_CAP vectors.
    """
    p, m = code.p, code.H.nrows
    if p < 3:
        return True, "no cubic phase claim at p = 2"
    count = min(p**m, PHASE_SAMPLE_CAP)
    if p == 3:
        try:
            phase_identity_sweep(code.H, count)
        except PhaseIdentityError as exc:
            return False, str(exc)
    else:
        ok, witness = check_phase_identity(code.H)
        if not ok:
            return False, f"cubic phase identity fails: {_witness_detail(witness)}"
    return True, f"phase identity holds on {count} coefficient vectors"


def _verify_code(code: TriorthogonalCode, budget: int) -> dict:
    report = validate_code(code)
    checks: List[dict] = report["checks"]

    if code.k == 0:
        checks.append({"name": "distance", "passed": True, "detail": "no logical classes"})
    elif code.d_verified:
        # a descriptor's G is untrusted: ranks by elimination, and the route that reads G first
        ranks = report["ranks"]
        routes = (("direct", ranks["H1_G"]), ("macwilliams", ranks["H"]))
        try:
            recomputed, _ = coset_min_weight(code.H1, code.G, code.H0, code.H, routes, budget)
        except EmptyCoset:
            passed, detail = False, "no logical Z word: every word of span([H1; G]) lies in span(G)"
        else:
            if recomputed is None:
                passed, detail = False, "budget too small to confirm the claimed exact distance"
            else:
                passed = recomputed == code.d
                detail = f"claimed exact d = {code.d}, enumeration gives {recomputed}"
        checks.append({"name": "distance", "passed": passed, "detail": detail})
    elif code.l is not None:
        passed = code.d == code.l - code.k
        checks.append(
            {
                "name": "distance",
                "passed": passed,
                "detail": f"unverified d = {code.d} against family formula l - k = {code.l - code.k}",
            }
        )
    else:
        checks.append(
            {"name": "distance", "passed": True, "detail": "unverified d with no family formula to check"}
        )

    ok, detail = _identity_check(code)
    checks.append({"name": "phase_identity", "passed": ok, "detail": detail})

    return {
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
        "params": {"n": code.n, "k": code.k, "d": code.d, "d_verified": code.d_verified},
    }


def cmd_verify(args: argparse.Namespace) -> int:
    if args.matrix is not None:
        H = parse_matrix(_read_text(args.matrix))
        ok, witness = check_triorthogonal(H)
        if not ok:
            report = {
                "passed": False,
                "checks": [{"name": "tri_orthogonality", "passed": False, "detail": _witness_detail(witness)}],
                "params": None,
            }
            _emit(args, _dump_json(report))
            return EXIT_VERIFY
        code = code_from_matrix(H.p, H, budget=args.budget)
    else:
        code = from_descriptor(_read_text(args.input))
    report = _verify_code(code, args.budget)
    _emit(args, _dump_json(report))
    return EXIT_OK if report["passed"] else EXIT_VERIFY


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.input is not None:
        code = from_descriptor(_read_text(args.input))
    elif args.p == 3 and args.l is None:
        if args.k is not None or args.positions is not None:
            raise ValueError("--p 3 without --l builds the assembled qutrit code, which takes no --k or --positions")
        code = find_p3_code()
    else:
        if args.l is None or args.k is None:
            raise ValueError("simulate needs --l and --k (or --input, or --p 3 for the assembled qutrit code)")
        code = build_code(args.p, args.l, args.k, A=args.positions, budget=args.budget)
    report = verify_transversal_action(code, third_level_gate(code.p))
    _emit(args, _dump_json(report))
    return EXIT_OK if not report["failures"] else EXIT_VERIFY


def cmd_gamma(args: argparse.Namespace) -> int:
    value = gamma(args.n, args.k, args.d)
    if args.format == "json":
        payload = {"n": args.n, "k": args.k, "d": args.d, "gamma": value, "interpretation": INTERPRETATION_NOTE}
        _emit(args, _dump_json(payload))
    else:
        _emit(args, f"gamma({args.n},{args.k},{args.d}) = {value!r}\n{INTERPRETATION_NOTE}\n")
    return EXIT_OK


def cmd_search(args: argparse.Namespace) -> int:
    records = search_best_gamma(args.pmax)
    if args.format == "csv":
        _emit(args, to_csv(records))
    else:
        payload = {
            "records": [
                {"p": r.p, "l": r.l, "k": r.k, "n": r.n, "d": r.d, "gamma": r.gamma}
                for r in records
            ],
            "summary": scaling_summary(records) if len(records) >= 10 else None,
        }
        _emit(args, _dump_json(payload))
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace) -> int:
    from .acceptance import format_report, run_all

    results = run_all()
    _emit(args, format_report(results))
    return EXIT_OK if all(r["passed"] for r in results) else EXIT_VERIFY


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triortho",
        description="Tri-orthogonal qudit codes from punctured Reed-Solomon codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p_, fmt_choices=("json",), fmt_default="json"):
        p_.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="enumeration cap (>= 10^4)")
        p_.add_argument("--output", default=None, help="output path ('-' or omitted for stdout)")
        p_.add_argument("--format", choices=fmt_choices, default=fmt_default)

    c = sub.add_parser("construct", help="build a code and write its JSON descriptor")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--l", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--positions", default=None, help="comma-separated puncture positions")
    common(c)
    c.set_defaults(handler=cmd_construct)

    v = sub.add_parser("verify", help="recheck every claim in a descriptor or raw matrix")
    src = v.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", default=None, help="JSON descriptor path")
    src.add_argument("--matrix", default=None, help="whitespace matrix file path")
    common(v)
    v.set_defaults(handler=cmd_verify)

    s = sub.add_parser("simulate", help="coset-state check of the transversal gate on every encoded basis state")
    s.add_argument("--p", type=int, default=None)
    s.add_argument("--l", type=int, default=None)
    s.add_argument("--k", type=int, default=None)
    s.add_argument("--positions", default=None)
    s.add_argument("--input", default=None, help="JSON descriptor path")
    common(s)
    s.set_defaults(handler=cmd_simulate)

    g = sub.add_parser("gamma", help="overhead exponent ln(n/k)/ln(d)")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--d", type=int, required=True)
    common(g, fmt_choices=("json", "text"), fmt_default="text")
    g.set_defaults(handler=cmd_gamma)

    r = sub.add_parser("search", help="best overhead exponent per prime")
    r.add_argument("--pmax", type=int, required=True)
    common(r, fmt_choices=("csv", "json"), fmt_default="csv")
    r.set_defaults(handler=cmd_search)

    t = sub.add_parser("selftest", help="run the full acceptance suite")
    t.add_argument("--output", default=None)
    t.set_defaults(handler=cmd_selftest)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "positions", None) is not None:
            args.positions = _positions(args.positions)
        if getattr(args, "budget", MIN_BUDGET) < MIN_BUDGET:
            return _fail(EXIT_PARAM, f"budget must be at least {MIN_BUDGET}")
        return args.handler(args)
    except (ResourceCapError, BudgetExceeded) as exc:
        return _fail(EXIT_CAP, str(exc))
    except (MatrixFormatError, OSError) as exc:
        return _fail(EXIT_IO, str(exc))
    except PhaseIdentityError as exc:
        return _fail(EXIT_VERIFY, str(exc))
    except ValueError as exc:
        return _fail(EXIT_PARAM, str(exc))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
