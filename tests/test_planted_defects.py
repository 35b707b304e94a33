"""Planted defects: for each check that `verify` reports, one input that turns it red.

A check with no row of its own is listed with its reason instead: IMPLIED
maps it to the checks it follows from, and UNREACHABLE to the verdict that
every input gives it.  Each row names every check its input turns red, so a
change that silences a check, or makes one fire where it did not, shows up
here.
"""

import json

import pytest

from test_cli import F7_PADDED_COUNTEREXAMPLE
from triortho.cli import main
from triortho.fplinalg import FpMatrix, kernel_basis
from triortho.triortho_css import build_code, to_descriptor


def _descriptor(edit, plk=(7, 2, 1)):
    """verify --input of the (p, l, k) descriptor after edit(data) changes it in place."""

    def write(path):
        data = to_descriptor(build_code(*plk))
        edit(data)
        path.write_text(json.dumps(data))
        return ["--input", str(path)]

    return write


def _matrix(text):
    def write(path):
        path.write_text(text)
        return ["--matrix", str(path)]

    return write


def _logical_row_from_h0(data):
    data["H1"] = [data["H0"][0]]


def _shift_g_entry(data):
    data["G"][0][0] = (data["G"][0][0] + 1) % data["p"]


def _duplicate_g_row(data):
    data["G"].append(data["G"][0])


def _g_without_h0(data):
    # ker([H; e_j]) with H0[0][j] != 0 is a subspace of ker(H) that misses H0[0]
    p, H = data["p"], data["H1"] + data["H0"]
    j = next(c for c, x in enumerate(data["H0"][0]) if x)
    unit = [int(c == j) for c in range(len(H[0]))]
    data["G"] = kernel_basis(FpMatrix.from_rows(p, H + [unit])).tolist()


def _tamper_epsilon(data):
    data["epsilon"][0] = 2


def _overclaim_distance(data):
    data["params"]["d"] += 1


LOGICAL_ROW_FROM_H0 = [
    "square_weight_partition",
    "canonical_pairing",
    "logical_independence",
    "span_count",
    "cubic_weights",
    "distance",
]

# check name -> (input, every check that input turns red, in report order)
DEFECTS = {
    "tri_orthogonality": (_matrix("7 2 3\n1 0 0\n1 1 0\n"), ["tri_orthogonality"]),
    "square_weight_partition": (_descriptor(_logical_row_from_h0), LOGICAL_ROW_FROM_H0),
    "stabilizer_commutation": (
        _descriptor(_shift_g_entry),
        ["stabilizer_commutation", "x_stabilizers_inside_z_span", "span_count", "distance"],
    ),
    "canonical_pairing": (_descriptor(_logical_row_from_h0), LOGICAL_ROW_FROM_H0),
    "logical_independence": (_descriptor(_logical_row_from_h0), LOGICAL_ROW_FROM_H0),
    "dimension": (_descriptor(_duplicate_g_row), ["dimension"]),
    "x_stabilizers_inside_z_span": (
        _descriptor(_g_without_h0),
        ["dimension", "x_stabilizers_inside_z_span", "span_count"],
    ),
    # the tampered copy the benchmark verifies: (41,12,6) with one epsilon entry changed
    "cubic_weights": (_descriptor(_tamper_epsilon, (41, 12, 6)), ["cubic_weights"]),
    "distance": (_descriptor(_overclaim_distance), ["distance"]),
    # tri-orthogonal, but sum h_4^2 h_5 = 1 (mod 7): the identity fails at u = [0,0,0,0,1,1]
    "phase_identity": (_matrix(F7_PADDED_COUNTEREXAMPLE), ["phase_identity"]),
}

SPAN_COUNT_PREMISES = ("canonical_pairing", "stabilizer_commutation", "x_stabilizers_inside_z_span")

IMPLIED = {
    # rank [H1; G; H0] = k + rank G needs H0 inside span(G) and span(H1) ∩ span(G) = 0.
    # A word u·H1 in span(G) has u·H1·H1^T = u·Q = 0 since H1 G^T = 0, and Q is
    # invertible, so u = 0; an invertible Q also gives rank H1 = k.
    "span_count": SPAN_COUNT_PREMISES,
}

UNREACHABLE = {
    # from_descriptor sets d_x = None, so on --input the check is always skipped.
    # Where d_X is enumerated (--matrix), every X logical word u·H1 + s·H0 lies in
    # ker(H0) = span([H1; G]) outside ker(H) = span(G), so it is a Z logical word
    # and d_Z <= d_X holds.
    "distance_ordering": "skipped: distances not both enumerated",
}


def _red(capsys, tmp_path, write):
    exit_code = main(["verify"] + write(tmp_path / "input"))
    report = json.loads(capsys.readouterr().out)
    return exit_code, [c["name"] for c in report["checks"] if not c["passed"]]


def _report(capsys, tmp_path, plk=(7, 2, 1)):
    main(["verify"] + _descriptor(lambda data: None, plk)(tmp_path / "input"))
    return json.loads(capsys.readouterr().out)


def test_every_verify_check_is_planted_implied_or_unreachable(capsys, tmp_path):
    names = [c["name"] for c in _report(capsys, tmp_path)["checks"]]
    assert len(names) == 12
    assert sorted(names) == sorted([*DEFECTS, *IMPLIED, *UNREACHABLE])


@pytest.mark.parametrize("name", sorted(DEFECTS))
def test_planted_defect_turns_its_check_red(capsys, tmp_path, name):
    write, red = DEFECTS[name]
    assert name in red
    assert _red(capsys, tmp_path, write) == (1, red)


def test_span_count_goes_red_only_with_a_premise():
    for _, red in DEFECTS.values():
        if "span_count" in red:
            assert set(SPAN_COUNT_PREMISES) & set(red)


def test_distance_ordering_is_skipped_on_input(capsys, tmp_path):
    checks = {c["name"]: c for c in _report(capsys, tmp_path)["checks"]}
    assert checks["distance_ordering"] == {
        "name": "distance_ordering",
        "passed": True,
        "detail": UNREACHABLE["distance_ordering"],
    }
