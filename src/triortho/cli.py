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
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .fplinalg import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    EmptyCoset,
    MatrixFormatError,
    coset_min_weight,
    parse_matrix,
    rref,
)
from .gates import PhaseIdentityError, find_p3_code, phase_identity_sweep, third_level_gate
from .overhead import (
    INTERPRETATION_NOTE,
    gamma,
    scaling_summary,
    search_best_gamma,
    to_csv,
)
from .qudit_sim import ResourceCapError, verify_transversal_action
from .starproduct import check_triorthogonal
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
PHASE_SAMPLE_CAP = 10**4  # identity check sweeps at most this many coefficient vectors


@dataclass(frozen=True)
class RunConfig:
    """Normalized arguments for one CLI invocation."""

    command: str
    p: Optional[int] = None
    l: Optional[int] = None
    k: Optional[int] = None
    A: Optional[Tuple[int, ...]] = None
    budget: int = DEFAULT_BUDGET
    output_path: Optional[str] = None
    format: str = "json"
    input_path: Optional[str] = None
    matrix_path: Optional[str] = None
    n: Optional[int] = None
    d: Optional[int] = None
    p_max: Optional[int] = None


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.output_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(cfg.output_path, "w", encoding="utf-8") as fh:
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


def cmd_construct(cfg: RunConfig) -> int:
    code = build_code(cfg.p, cfg.l, cfg.k, A=cfg.A, budget=cfg.budget)
    _emit(cfg, _dump_json(to_descriptor(code)))
    return EXIT_OK


def _identity_check(code: TriorthogonalCode) -> Tuple[bool, str]:
    """Exhaustively (up to a cap) recheck the cubic phase identity on H."""
    p, m = code.p, code.H.nrows
    if p < 3:
        return True, "no cubic phase claim at p = 2"
    count = min(p**m, PHASE_SAMPLE_CAP)
    try:
        phase_identity_sweep(code.H, count)
    except PhaseIdentityError as exc:
        return False, str(exc)
    return True, f"phase identity holds on {count} coefficient vectors"


def _verify_code(code: TriorthogonalCode, budget: int) -> dict:
    report = validate_code(code)
    checks: List[dict] = report["checks"]

    if code.k == 0:
        checks.append({"name": "distance", "passed": True, "detail": "no logical classes"})
    elif code.d_verified:
        # a descriptor's G is untrusted: ranks by elimination, and the route that reads G first
        H = code.H
        routes = (("direct", rref(code.H1.stack(code.G))[1]), ("macwilliams", rref(H)[1]))
        try:
            recomputed, _ = coset_min_weight(code.H1, code.G, code.H0, H, routes, budget)
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


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.matrix_path is not None:
        H = parse_matrix(_read_text(cfg.matrix_path))
        ok, witness = check_triorthogonal(H)
        if not ok:
            detail = f"{witness.kind} sum at rows {list(witness.indices)} is {witness.value}, not 0"
            report = {
                "passed": False,
                "checks": [{"name": "tri_orthogonality", "passed": False, "detail": detail}],
                "params": None,
            }
            _emit(cfg, _dump_json(report))
            return EXIT_VERIFY
        code = code_from_matrix(H.p, H, budget=cfg.budget)
    else:
        code = from_descriptor(_read_text(cfg.input_path))
    report = _verify_code(code, cfg.budget)
    _emit(cfg, _dump_json(report))
    return EXIT_OK if report["passed"] else EXIT_VERIFY


def cmd_simulate(cfg: RunConfig) -> int:
    if cfg.input_path is not None:
        code = from_descriptor(_read_text(cfg.input_path))
    elif cfg.p == 3 and cfg.l is None:
        code = find_p3_code()
    else:
        if cfg.l is None or cfg.k is None:
            raise ValueError("simulate needs --l and --k (or --input, or --p 3 for the searched code)")
        code = build_code(cfg.p, cfg.l, cfg.k, A=cfg.A, budget=cfg.budget)
    report = verify_transversal_action(code, third_level_gate(code.p))
    _emit(cfg, _dump_json(report))
    return EXIT_OK if not report["failures"] else EXIT_VERIFY


def cmd_gamma(cfg: RunConfig) -> int:
    value = gamma(cfg.n, cfg.k, cfg.d)
    if cfg.format == "json":
        _emit(
            cfg,
            _dump_json(
                {
                    "n": cfg.n,
                    "k": cfg.k,
                    "d": cfg.d,
                    "gamma": value,
                    "interpretation": INTERPRETATION_NOTE,
                }
            ),
        )
    else:
        _emit(cfg, f"gamma({cfg.n},{cfg.k},{cfg.d}) = {value!r}\n{INTERPRETATION_NOTE}\n")
    return EXIT_OK


def cmd_search(cfg: RunConfig) -> int:
    records = search_best_gamma(cfg.p_max)
    if cfg.format == "csv":
        _emit(cfg, to_csv(records))
    else:
        payload = {
            "records": [
                {"p": r.p, "l": r.l, "k": r.k, "n": r.n, "d": r.d, "gamma": r.gamma}
                for r in records
            ],
            "summary": scaling_summary(records) if len(records) >= 10 else None,
        }
        _emit(cfg, _dump_json(payload))
    return EXIT_OK


def cmd_selftest(cfg: RunConfig) -> int:
    from .acceptance import format_report, run_all

    results = run_all()
    _emit(cfg, format_report(results))
    return EXIT_OK if all(r["passed"] for r in results) else EXIT_VERIFY


_HANDLERS = {
    "construct": cmd_construct,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
    "gamma": cmd_gamma,
    "search": cmd_search,
    "selftest": cmd_selftest,
}


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

    v = sub.add_parser("verify", help="recheck every claim in a descriptor or raw matrix")
    src = v.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", default=None, help="JSON descriptor path")
    src.add_argument("--matrix", default=None, help="whitespace matrix file path")
    common(v)

    s = sub.add_parser("simulate", help="coset-state check of the transversal gate on every encoded basis state")
    s.add_argument("--p", type=int, default=None)
    s.add_argument("--l", type=int, default=None)
    s.add_argument("--k", type=int, default=None)
    s.add_argument("--positions", default=None)
    s.add_argument("--input", default=None, help="JSON descriptor path")
    common(s)

    g = sub.add_parser("gamma", help="overhead exponent ln(n/k)/ln(d)")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--d", type=int, required=True)
    common(g, fmt_choices=("json", "text"), fmt_default="text")

    r = sub.add_parser("search", help="best overhead exponent per prime")
    r.add_argument("--pmax", type=int, required=True)
    common(r, fmt_choices=("csv", "json"), fmt_default="csv")

    t = sub.add_parser("selftest", help="run the full acceptance suite")
    t.add_argument("--output", default=None)
    return parser


def _config(args: argparse.Namespace) -> RunConfig:
    A = None
    if getattr(args, "positions", None) is not None:
        A = _positions(args.positions)
    return RunConfig(
        command=args.command,
        p=getattr(args, "p", None),
        l=getattr(args, "l", None),
        k=getattr(args, "k", None),
        A=A,
        budget=getattr(args, "budget", DEFAULT_BUDGET),
        output_path=getattr(args, "output", None),
        format=getattr(args, "format", "json"),
        input_path=getattr(args, "input", None),
        matrix_path=getattr(args, "matrix", None),
        n=getattr(args, "n", None),
        d=getattr(args, "d", None),
        p_max=getattr(args, "pmax", None),
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config(args)
        if cfg.budget < MIN_BUDGET:
            return _fail(EXIT_PARAM, f"budget must be at least {MIN_BUDGET}")
        return _HANDLERS[cfg.command](cfg)
    except ResourceCapError as exc:
        return _fail(EXIT_CAP, str(exc))
    except BudgetExceeded as exc:
        return _fail(EXIT_CAP, str(exc))
    except MatrixFormatError as exc:
        return _fail(EXIT_IO, str(exc))
    except (FileNotFoundError, IsADirectoryError, PermissionError, OSError) as exc:
        return _fail(EXIT_IO, str(exc))
    except PhaseIdentityError as exc:
        return _fail(EXIT_VERIFY, str(exc))
    except ValueError as exc:
        return _fail(EXIT_PARAM, str(exc))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
