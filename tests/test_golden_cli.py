"""Golden CLI output: sha256 of stdout and the exit code of a few fast runs.

The digests pin the exact bytes printed, so a change to the arithmetic
underneath cannot silently move a descriptor (G is a kernel basis), a
verify report or a witness.  They were recorded before the F_p kernel was
consolidated (the (17,6,3) and p=701 constructs before the distance routes
and the span enumerator were reworked, the clean verify reports, the
distance table and the audit before the three distance routers became one,
the search output and the selftest gamma lines before the per-prime scan over
k became a bisection, the qutrit code search, simulate --p 3 and selftest's
criterion 8 line before the p = 3 identity and motif search were vectorised,
the qutrit codes with three stabilizer rows before the search became one
assembly);
a deliberate output change must re-record them and say why.
"""

import hashlib
import json

import pytest

from triortho.acceptance import format_report
from triortho.cli import main
from triortho.fplinalg import is_prime
from triortho.gates import find_p3_code
from triortho.reed_solomon import audit_distance_formula
from triortho.triortho_css import build_code

GOLDEN = {
    "construct-11-4-2-positions": (
        ["construct", "--p", "11", "--l", "4", "--k", "2", "--positions", "1,5"],
        "7bc1f042a8d0256a409def48a111e75583ed1c22bf0ede37bd5d8eba5c4d4388",
        0,
    ),
    "construct-41-12-6": (
        ["construct", "--p", "41", "--l", "12", "--k", "6"],
        "6b9bc8a8f8ae7c5f400bf013c9b715533193e03f42bffa81c6ceed75e5d55a9c",
        0,
    ),
    # the largest exactly enumerated family member, and elimination at size
    "construct-17-6-3-positions": (
        ["construct", "--p", "17", "--l", "6", "--k", "3", "--positions", "2,7,11"],
        "c84331f6f465eaae0631467a3b556dca5ce387d1a457039c8bf069408f736848",
        0,
    ),
    "construct-701-234-100": (
        ["construct", "--p", "701", "--l", "234", "--k", "100"],
        "9f48ef0351dbe0842d3e134a3f2f64dfa4cc96c52c311ab852bcc4fe2dd3f3b8",
        0,
    ),
    # the largest search the CLI accepts, in both formats: 9,588 records
    "search-100000-csv": (
        ["search", "--pmax", "100000"],
        "c0a35ce20b3df28ae59b35aa1ace60e3698a1324bebeef5d6c3cf4339641f31a",
        0,
    ),
    "search-100000-json": (
        ["search", "--pmax", "100000", "--format", "json"],
        "d21a9811abb4aa27b1580a7784698f0a0a9d1734ec6f1e7b196c67c98a54123e",
        0,
    ),
}
TAMPERED_13_4_1 = ("1421cd9353011ef8f533409e9b5c61aa8f0f9f61116e57169f6c69855ee3d643", 1)
# simulate's max_deviation is a rounding residue whose last digits move with the
# summation order of the inner product, so it is bounded and the rest of the
# report pinned (test_cli checks it does not move with the BLAS thread count)
SIMULATE_7_2_1 = ("cef62bc230454c42da6bc2f6921a99ee1fc8c917428b5e18a9534ddf9634559c", 0)
SIMULATE_P3 = ("43d72ebd774c261a5f8adc18e7de689faac68e5dcb7959e6a9cdfd6eb72fc1e4", 0)
# verify of clean descriptors: (7,2,1) enumerates span([H1; G]) directly, (13,4,1)
# (13^9 coset words) takes the MacWilliams transforms of span(H0) and span(H)
VERIFY_CLEAN = {
    (7, 2, 1): ("763344dcd1974f1ac1b76805c5aa443e5ec3621baaa49ad09dca5a45f8909d2d", 0),
    (13, 4, 1): ("fa3a6ded61f4b961ea5adf0e4578b0a0b9e056af460ca192b6b6f39522d6c1f0", 0),
}
# (d, d_verified, d_x) of build_code for every 1 <= k < l <= (p+1)/3, p <= 23, both
# end puncture sets, at budgets on each side of the route switches: 288 builds
DISTANCE_TABLE = "094dfa4c5fc8f7c29c987d3fb1c7cece111aa3bb05425985670f380897d86adb"
AUDIT_23 = "09dc85ab1ae43d4d0c3394e2bd8fe26bbe5982037e2f16e1e72a22e2f737ab1e"
# selftest's lines for the gamma criteria 1, 3 (search to 100) and 9 (search to 10^4)
SELFTEST_GAMMA_LINES = "dd1ebd5c121da22aa195868166a18788b8be448546fb4ddb4db44dc1addbefde"
SELFTEST_QUTRIT_LINE = "3f14509314d6e21583d08c00172282acb90e88f95461886733b054b67f440860"
# find_p3_code's H (or its error text) for max_cols 4..16 x logical_rows 1..2 x
# stabilizer_rows 1..2: 52 searches
P3_CODES = "11e8b061d41b86f328698df1e792ae869e42c76a495c51177492074b35b07231"
# the same for stabilizer_rows 3: 26 more, recorded while each still ran the full search
P3_CODES_THREE_STABILIZERS = "d2f39383167fe792247f85001c506593a5a9d8494a109bbfac07dd014fe241cc"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def digest(capsys, argv):
    exit_code = main(argv)
    return sha256(capsys.readouterr().out), exit_code


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_is_golden(capsys, name):
    argv, sha, exit_code = GOLDEN[name]
    assert digest(capsys, argv) == (sha, exit_code)


def test_verify_tampered_descriptor_is_golden(capsys, tmp_path):
    assert main(["construct", "--p", "13", "--l", "4", "--k", "1"]) == 0
    desc = json.loads(capsys.readouterr().out)
    desc["epsilon"][0] = 2
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(desc))
    assert digest(capsys, ["verify", "--input", str(path)]) == TAMPERED_13_4_1


def test_simulate_report_is_golden(capsys):
    exit_code = main(["simulate", "--p", "7", "--l", "2", "--k", "1"])
    report = json.loads(capsys.readouterr().out)
    assert report.pop("max_deviation") < 1e-9
    assert (sha256(json.dumps(report, indent=2, sort_keys=True)), exit_code) == SIMULATE_7_2_1


def test_simulate_p3_report_is_golden(capsys):
    exit_code = main(["simulate", "--p", "3"])
    report = json.loads(capsys.readouterr().out)
    assert report.pop("max_deviation") < 1e-9
    assert (sha256(json.dumps(report, indent=2, sort_keys=True)), exit_code) == SIMULATE_P3


def p3_codes(stabilizer_counts):
    found = []
    for max_cols in range(4, 17):
        for logical_rows in (1, 2):
            for stabilizer_rows in stabilizer_counts:
                try:
                    found.append(find_p3_code(max_cols, logical_rows, stabilizer_rows).H.tolist())
                except ValueError as exc:
                    found.append(str(exc))
    return found


def test_find_p3_code_is_golden():
    assert sha256(json.dumps(p3_codes((1, 2)))) == P3_CODES


def test_find_p3_code_with_three_stabilizer_rows_is_golden():
    assert sha256(json.dumps(p3_codes((3,)))) == P3_CODES_THREE_STABILIZERS


@pytest.mark.parametrize("plk", sorted(VERIFY_CLEAN))
def test_verify_clean_descriptor_is_golden(capsys, tmp_path, plk):
    p, l, k = plk
    assert main(["construct", "--p", str(p), "--l", str(l), "--k", str(k)]) == 0
    path = tmp_path / "code.json"
    path.write_text(capsys.readouterr().out)
    assert digest(capsys, ["verify", "--input", str(path)]) == VERIFY_CLEAN[plk]


def distance_table():
    rows = []
    for p in filter(is_prime, range(24)):
        for l in range(2, (p + 1) // 3 + 1):
            for k in range(1, l):
                for A in (tuple(range(k)), tuple(range(p - k, p))):
                    for budget in (10**4, 10**6):
                        code = build_code(p, l, k, A=A, budget=budget)
                        rows.append([p, l, k, list(A), budget, code.d, code.d_verified, code.d_x])
    return rows


def test_build_code_distance_table_is_golden():
    rows = distance_table()
    assert len(rows) == 288
    assert sha256(json.dumps(rows)) == DISTANCE_TABLE


def test_distance_audit_is_golden():
    assert sha256(json.dumps(audit_distance_formula(23, budget=10**6), sort_keys=True)) == AUDIT_23


def test_selftest_gamma_lines_are_golden(acceptance_results):
    lines = format_report([acceptance_results[i - 1] for i in (1, 3, 9)])
    assert sha256(lines) == SELFTEST_GAMMA_LINES


def test_selftest_qutrit_line_is_golden(acceptance_results):
    assert sha256(format_report([acceptance_results[7]])) == SELFTEST_QUTRIT_LINE
