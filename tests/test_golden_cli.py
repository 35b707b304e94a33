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
assembly, the broken descriptors and the --matrix report before verify's
ranks came from stacked eliminations, the constructs on unsorted, end-point
and random puncture sets and at k = 0 and k = l before build_code took its
matrices from closed forms);
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

RANDOM_211_35 = (
    "144,91,189,61,5,80,161,140,166,158,87,145,149,173,164,33,106,181,"
    "108,152,169,155,204,45,94,42,177,167,131,172,54,209,138,62,114"
)
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
    # unsorted puncture sets, sets holding 0 and p - 1, and k at both ends of 0..l
    "construct-17-6-3-unsorted": (
        ["construct", "--p", "17", "--l", "6", "--k", "3", "--positions", "11,2,7"],
        "29c7f005da5332be8c37f482e2133e0efb4bc751fcbdde45e652dffd59d29d07",
        0,
    ),
    "construct-19-6-3-ends": (
        ["construct", "--p", "19", "--l", "6", "--k", "3", "--positions", "18,9,0"],
        "7c624252d71e39550697adb3b0fe4a8a1d3eca97eb37b583892d87b42a5d78db",
        0,
    ),
    "construct-13-4-2-ends": (
        ["construct", "--p", "13", "--l", "4", "--k", "2", "--positions", "0,12"],
        "93d99d41441f4d06197957afc29c05f5579ab89b19ca851ef00fd07070792961",
        0,
    ),
    "construct-13-4-0": (
        ["construct", "--p", "13", "--l", "4", "--k", "0"],
        "7c4536e6846b2aea209f0544ba8540fdd78d986e22df761136982cf6038b18c6",
        0,
    ),
    "construct-13-4-4": (
        ["construct", "--p", "13", "--l", "4", "--k", "4"],
        "df7aacd5f9a665ef94114f4f7fd7a97455a3f3b605a2310bf16ad365f2213053",
        0,
    ),
    # random.Random(211).sample(range(211), 35), in the order drawn
    "construct-211-70-35-random": (
        ["construct", "--p", "211", "--l", "70", "--k", "35", "--positions", RANDOM_211_35],
        "d3c8e2f78bce9f62a1c751cda27223161a6760a8d324ad53fbe70967bcf1ed1b",
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
# verify of broken descriptors: their check details print rank H0, rank G and
# rank [H; G], and a dropped or emptied G moves the distance route's dimension
VERIFY_BROKEN = {
    ((7, 2, 1), "G-duplicated"): ("419cc37987240d9f200be9d6abb3b8b0b5fd6a45552123724ceef00005590daf", 1),
    ((7, 2, 1), "G-dropped"): ("b563266f8913755a5ece88754d450346bc8ff4b30530d7415a051d23307cba54", 1),
    ((7, 2, 1), "H0-duplicated"): ("7467df3a2160585424f58857c53bb89796d087898faf43b8264910642a83ad7d", 1),
    ((7, 2, 1), "G-off-kernel"): ("b0405a8a72edda3af9c323d391fd0eb75b908423b3a41f4e2f8232847b19c6f0", 1),
    ((7, 2, 1), "G-emptied"): ("95e0061fe36b46540377141f7dbf0523288f8c52b8af70506530db3dc810eee7", 1),
    ((13, 4, 1), "G-duplicated"): ("52d4d176a38b497f081041ef10a93df891a80983047e0bc6c51e103e337fa641", 1),
    ((13, 4, 1), "G-dropped"): ("b6f20b4b862e1cff94c7e59ec4a13570e928dd25be34337468777c382cb6cabf", 1),
    ((13, 4, 1), "H0-duplicated"): ("52d4d176a38b497f081041ef10a93df891a80983047e0bc6c51e103e337fa641", 1),
    ((13, 4, 1), "G-off-kernel"): ("fae351c1edadb59e4800c01f1ae0935d23773d2c5a2144840a3028c3bd937f92", 1),
    ((13, 4, 1), "G-emptied"): ("f9c44115203484bedf1b009be709ec52192dbf2969f75460ec5a5962a2aa7518", 1),
    ((17, 6, 3), "G-duplicated"): ("4e8f21f0f819ca7360871e3330234592d5621717dc013caddb59d5ffda9afe7b", 1),
    ((17, 6, 3), "G-dropped"): ("697ead6b9fe3bda3b0f0bcdc31dac5992699e082e1c1ad82fcf9462db2aec829", 1),
    ((17, 6, 3), "H0-duplicated"): ("4e8f21f0f819ca7360871e3330234592d5621717dc013caddb59d5ffda9afe7b", 1),
    ((17, 6, 3), "G-off-kernel"): ("b140ba4b369223df26e63cbe6944385ec2e564fefe3c7631cf9752997643dc35", 1),
    ((17, 6, 3), "G-emptied"): ("dfb9c1eb16b0be07d763cb5af6929a0ed990771f201479b8ff3accc5f831e00a", 1),
}
# verify --matrix on the H of (13,4,1): code_from_matrix enumerates d_X too
VERIFY_MATRIX_13_4_1 = ("2fa610e8fc0b21c0908c81c2fc0c91be149c56d72c00e7dc59568ba3eb33702c", 0)
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


def break_descriptor(data, mutation):
    p = data["p"]
    if mutation == "G-duplicated":
        data["G"].append(data["G"][0])
    elif mutation == "G-dropped":
        data["G"].pop()
    elif mutation == "H0-duplicated":
        data["H0"].append(data["H0"][0])
    elif mutation == "G-off-kernel":  # the first entry of a G row moved by one
        data["G"][0][0] = (data["G"][0][0] + 1) % p
    elif mutation == "G-emptied":
        data["G"] = []


@pytest.mark.parametrize(
    "plk, mutation", sorted(VERIFY_BROKEN), ids=lambda v: v if isinstance(v, str) else "-".join(map(str, v))
)
def test_verify_broken_descriptor_is_golden(capsys, tmp_path, plk, mutation):
    p, l, k = plk
    assert main(["construct", "--p", str(p), "--l", str(l), "--k", str(k)]) == 0
    data = json.loads(capsys.readouterr().out)
    break_descriptor(data, mutation)
    path = tmp_path / "code.json"
    path.write_text(json.dumps(data))
    assert digest(capsys, ["verify", "--input", str(path)]) == VERIFY_BROKEN[plk, mutation]


def test_verify_matrix_is_golden(capsys, tmp_path):
    H = build_code(13, 4, 1).H
    path = tmp_path / "H.txt"
    path.write_text("\n".join([f"13 {H.nrows} {H.ncols}"] + [" ".join(map(str, row)) for row in H.tolist()]))
    assert digest(capsys, ["verify", "--matrix", str(path)]) == VERIFY_MATRIX_13_4_1


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
