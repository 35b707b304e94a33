"""CLI behavior: exit codes, report structure, determinism."""

import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from triortho.cli import main
from triortho.overhead import INTERPRETATION_NOTE
from triortho.triortho_css import build_code


def run(capsys, *argv):
    exit_code = main(list(argv))
    captured = capsys.readouterr()
    return exit_code, captured.out, captured.err


def test_construct_writes_descriptor(capsys):
    exit_code, out, _ = run(capsys, "construct", "--p", "7", "--l", "2", "--k", "1")
    assert exit_code == 0
    data = json.loads(out)
    assert data["params"] == {"n": 6, "k": 1, "d": 2, "d_verified": True}
    assert data["H1"] == [[6, 6, 6, 6, 6, 6]]
    assert data["epsilon"] == [1]


def test_construct_rejects_non_triply_even(capsys):
    exit_code, out, err = run(capsys, "construct", "--p", "7", "--l", "3", "--k", "1")
    assert exit_code == 2
    assert out == ""
    assert "3l <= p+1 failed" in err


def test_construct_reports_verified_distance(capsys):
    exit_code, out, _ = run(capsys, "construct", "--p", "13", "--l", "4", "--k", "1")
    assert exit_code == 0
    params = json.loads(out)["params"]
    assert params["d_verified"] is True
    assert params["d"] == 4


def test_construct_with_positions(capsys):
    exit_code, out, _ = run(
        capsys, "construct", "--p", "7", "--l", "2", "--k", "1", "--positions", "3"
    )
    assert exit_code == 0
    assert json.loads(out)["A"] == [3]


def test_bad_positions_is_parameter_error(capsys):
    exit_code, _, err = run(
        capsys, "construct", "--p", "7", "--l", "2", "--k", "1", "--positions", "x"
    )
    assert exit_code == 2
    assert "positions" in err


def test_budget_floor(capsys):
    exit_code, _, err = run(
        capsys, "construct", "--p", "7", "--l", "2", "--k", "1", "--budget", "100"
    )
    assert exit_code == 2
    assert "budget" in err


def test_bad_positions_wins_over_budget_floor(capsys):
    # --positions is parsed before the budget is checked
    exit_code, out, err = run(
        capsys, "construct", "--p", "7", "--l", "2", "--k", "1", "--budget", "100", "--positions", "x"
    )
    assert (exit_code, out) == (2, "")
    assert err == "error: --positions must be a comma-separated integer list: invalid literal for int() with base 10: 'x'\n"


def test_output_file(capsys, tmp_path):
    target = tmp_path / "code.json"
    exit_code, out, _ = run(
        capsys, "construct", "--p", "7", "--l", "2", "--k", "1", "--output", str(target)
    )
    assert exit_code == 0
    assert out == ""
    assert json.loads(target.read_text())["params"]["n"] == 6


def test_output_to_directory_is_io_error(capsys, tmp_path):
    exit_code, _, err = run(
        capsys, "construct", "--p", "7", "--l", "2", "--k", "1", "--output", str(tmp_path)
    )
    assert exit_code == 3
    assert err.startswith("error:")


def assert_output_file_holds_stdout(capsys, tmp_path, argv):
    exit_code, out, err = run(capsys, *argv)
    target = tmp_path / "out.txt"
    assert run(capsys, *argv, "--output", str(target)) == (exit_code, "", err)
    assert target.read_bytes() == out.encode()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--p", "7", "--l", "2", "--k", "1"],
        ["simulate", "--p", "3"],
        ["gamma", "--n", "83", "--k", "14", "--d", "15"],
        ["gamma", "--n", "83", "--k", "14", "--d", "15", "--format", "json"],
        ["search", "--pmax", "150"],
        ["search", "--pmax", "150", "--format", "json"],
    ],
)
def test_output_file_holds_stdout_bytes(capsys, tmp_path, argv):
    assert_output_file_holds_stdout(capsys, tmp_path, argv)


@pytest.mark.parametrize("source", ["--input", "--matrix"])
def test_verify_output_file_holds_stdout_bytes(capsys, tmp_path, source):
    target = tmp_path / "code.txt"
    if source == "--input":
        assert main(["construct", "--p", "7", "--l", "2", "--k", "1", "--output", str(target)]) == 0
    else:
        H = build_code(7, 2, 1).H
        target.write_text("\n".join([f"7 {H.nrows} {H.ncols}"] + [" ".join(map(str, row)) for row in H.tolist()]))
    assert_output_file_holds_stdout(capsys, tmp_path, ["verify", source, str(target)])


def test_selftest_output_file_holds_stdout_bytes(capsys, tmp_path, monkeypatch, acceptance_results):
    monkeypatch.setattr("triortho.acceptance.run_all", lambda: acceptance_results)
    assert_output_file_holds_stdout(capsys, tmp_path, ["selftest"])


def test_runs_are_byte_identical(capsys):
    first = run(capsys, "construct", "--p", "11", "--l", "4", "--k", "2")
    second = run(capsys, "construct", "--p", "11", "--l", "4", "--k", "2")
    assert first == second
    first = run(capsys, "search", "--pmax", "150")
    second = run(capsys, "search", "--pmax", "150")
    assert first == second


def test_verify_roundtrip(capsys, tmp_path):
    target = tmp_path / "code.json"
    assert main(["construct", "--p", "7", "--l", "2", "--k", "1", "--output", str(target)]) == 0
    capsys.readouterr()
    exit_code, out, _ = run(capsys, "verify", "--input", str(target))
    assert exit_code == 0
    report = json.loads(out)
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert {"tri_orthogonality", "cubic_weights", "distance", "phase_identity"} <= names


def test_verify_tampered_epsilon(capsys, tmp_path):
    target = tmp_path / "code.json"
    assert main(["construct", "--p", "7", "--l", "2", "--k", "1", "--output", str(target)]) == 0
    capsys.readouterr()
    data = json.loads(target.read_text())
    data["epsilon"][0] = 2
    target.write_text(json.dumps(data))
    exit_code, out, _ = run(capsys, "verify", "--input", str(target))
    assert exit_code == 1
    report = json.loads(out)
    assert report["passed"] is False
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "cubic_weights" in failed


def test_boolean_entry_is_format_error(capsys, tmp_path):
    # a JSON true where G holds a 1 is not a residue, though Python's True == 1
    target = tmp_path / "code.json"
    assert main(["construct", "--p", "7", "--l", "2", "--k", "1", "--output", str(target)]) == 0
    data = json.loads(target.read_text())
    row = next(row for row in data["G"] if 1 in row)
    row[row.index(1)] = True
    target.write_text(json.dumps(data))
    for command in ("verify", "simulate"):
        exit_code, out, err = run(capsys, command, "--input", str(target))
        assert (exit_code, out) == (3, "")
        assert "canonical residues" in err


@pytest.mark.parametrize("plk", [(7, 2, 1), (13, 4, 1)])
def test_verify_reports_an_empty_logical_coset(capsys, tmp_path, plk):
    # H1 replaced by a stabilizer row: no logical Z word is left.  (7,2,1) finds
    # that on the direct route, (13,4,1) (13^8 words in span(G)) by MacWilliams
    p, l, k = plk
    target = tmp_path / "code.json"
    assert main(["construct", "--p", str(p), "--l", str(l), "--k", str(k), "--output", str(target)]) == 0
    data = json.loads(target.read_text())
    data["H1"] = [data["H0"][0]]
    target.write_text(json.dumps(data))
    exit_code, out, err = run(capsys, "verify", "--input", str(target))
    assert (exit_code, err) == (1, "")
    distance = next(c for c in json.loads(out)["checks"] if c["name"] == "distance")
    assert distance == {
        "name": "distance",
        "passed": False,
        "detail": "no logical Z word: every word of span([H1; G]) lies in span(G)",
    }


@pytest.mark.parametrize("matrix", ["G", "H0"])
def test_verify_flags_a_duplicated_row(capsys, tmp_path, matrix):
    # a repeated row leaves every rank and span as it was; only the row count gives it away
    target = tmp_path / "code.json"
    assert main(["construct", "--p", "7", "--l", "2", "--k", "1", "--output", str(target)]) == 0
    data = json.loads(target.read_text())
    data[matrix].append(data[matrix][0])
    target.write_text(json.dumps(data))
    exit_code, out, _ = run(capsys, "verify", "--input", str(target))
    assert exit_code == 1
    failed = [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]
    assert failed == ["dimension"]


def test_verify_unreadable_inputs(capsys, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert run(capsys, "verify", "--input", str(empty))[0] == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, "verify", "--input", str(bad))[0] == 3
    assert run(capsys, "verify", "--input", str(tmp_path / "missing.json"))[0] == 3


def test_verify_matrix_file(capsys, tmp_path):
    target = tmp_path / "H.txt"
    H = build_code(7, 2, 1).H
    target.write_text("\n".join([f"7 {H.nrows} {H.ncols}"] + [" ".join(map(str, row)) for row in H.tolist()]))
    exit_code, out, _ = run(capsys, "verify", "--matrix", str(target))
    assert exit_code == 0
    assert json.loads(out)["passed"] is True


def test_verify_matrix_rejects_non_triorthogonal(capsys, tmp_path):
    target = tmp_path / "H.txt"
    target.write_text("7 2 3\n1 0 0\n1 1 0\n")
    exit_code, out, _ = run(capsys, "verify", "--matrix", str(target))
    assert exit_code == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert report["checks"][0]["name"] == "tri_orthogonality"


F7_COUNTEREXAMPLE = "7 2 3\n1 1 2\n2 4 4\n"
# four unit rows ahead of the counterexample: 7^4 vectors in odometer order leave
# row 5 at 0, so the first 10^4 of 7^6 never reach u = [0, 0, 0, 0, 1, 1]
F7_PADDED_COUNTEREXAMPLE = "7 6 7\n" + "".join(
    " ".join(map(str, row)) + "\n"
    for row in [[int(c == r) for c in range(7)] for r in range(4)] + [[0] * 4 + [1, 1, 2], [0] * 4 + [2, 4, 4]]
)


def test_verify_matrix_flags_phase_identity(capsys, tmp_path):
    # Tri-orthogonal by pair/triple sums, yet the cubic identity fails on it.
    target = tmp_path / "H.txt"
    for text in (F7_COUNTEREXAMPLE, F7_PADDED_COUNTEREXAMPLE):
        target.write_text(text)
        exit_code, out, _ = run(capsys, "verify", "--matrix", str(target))
        assert exit_code == 1
        failed = [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]
        assert failed == ["phase_identity"]


def test_verify_sweeps_the_phase_identity_only_at_p3(capsys, tmp_path, monkeypatch):
    swept = []
    monkeypatch.setattr("triortho.cli.phase_identity_sweep", lambda H, count: swept.append((H.p, count)))
    target = tmp_path / "code.json"
    assert main(["construct", "--p", "13", "--l", "4", "--k", "1", "--output", str(target)]) == 0
    assert run(capsys, "verify", "--input", str(target))[0] == 0
    assert swept == []
    target.write_text("3 2 4\n1 0 0 0\n0 1 1 1\n")
    assert run(capsys, "verify", "--matrix", str(target))[0] == 0
    assert swept == [(3, 9)]


def test_simulate_small_code(capsys):
    exit_code, out, _ = run(capsys, "simulate", "--p", "7", "--l", "2", "--k", "1")
    assert exit_code == 0
    report = json.loads(out)
    assert report["gate"] == "U_{1,3}"
    assert report["max_deviation"] < 1e-9
    assert report["failures"] == []


def test_simulate_output_is_independent_of_blas_threads():
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "triortho.cli", "simulate", "--p", "7", "--l", "2", "--k", "1"],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["failures"] == []


def test_simulate_cap_exceeded(capsys):
    exit_code, _, err = run(capsys, "simulate", "--p", "97", "--l", "29", "--k", "14")
    assert exit_code == 4
    assert "exceeds" in err


def test_simulate_reaches_codes_past_the_dense_cap(capsys):
    # 13^12 dense amplitudes, but 13 encoded states of 13^3 labels each
    exit_code, out, _ = run(capsys, "simulate", "--p", "13", "--l", "4", "--k", "1")
    assert exit_code == 0
    report = json.loads(out)
    assert report["failures"] == []
    assert report["max_deviation"] < 1e-9


def cap_address_space():
    # 2 GiB holds the interpreter and numpy; a build that ignored the entry cap would
    # die here on its first huge array instead of filling the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--p", "65537", "--l", "2", "--k", "1"],  # G would be 65534 x 65536
        ["construct", "--p", "2147483647", "--l", "2", "--k", "1"],  # RS_2 would be 2 x (2^31 - 1)
        ["verify", "--matrix", "WIDE"],  # G would be 39999 x 40000
    ],
)
def test_oversized_builds_hit_the_entry_cap(tmp_path, argv):
    wide = tmp_path / "wide.txt"
    wide.write_text("7 1 40000\n" + " ".join(["1"] * 40000) + "\n")
    argv = [str(wide) if arg == "WIDE" else arg for arg in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "triortho.cli", *argv],
        env=env, capture_output=True, text=True, preexec_fn=cap_address_space, timeout=120,
    )
    assert "Traceback" not in done.stderr
    assert (done.returncode, done.stdout) == (4, "")
    assert "exceed" in done.stderr


def test_construct_cap_is_checked_before_the_build(capsys, monkeypatch):
    # l·p = 492 fits a cap of 600, but G would be 23 x 35 = 805 entries
    monkeypatch.setattr("triortho.fplinalg.ENTRY_CAP", 600)
    monkeypatch.setattr(
        "triortho.triortho_css.check_triorthogonal", lambda *args: pytest.fail("built past the entry cap")
    )
    exit_code, out, err = run(capsys, "construct", "--p", "41", "--l", "12", "--k", "6")
    assert (exit_code, out) == (4, "")
    assert "a kernel basis of 23 x 35 entries exceeds the cap 600" in err


def test_simulate_cap_counts_logical_states(capsys, monkeypatch):
    # rank H0 = 1, so one coset fits; the 31^9 logical states do not
    monkeypatch.setattr(
        "triortho.qudit_sim.encoded_state_support", lambda *args: pytest.fail("state built past the cap")
    )
    exit_code, _, err = run(capsys, "simulate", "--p", "31", "--l", "10", "--k", "9")
    assert exit_code == 4
    assert "exceeds" in err


def test_simulate_qutrit_searched_code(capsys):
    exit_code, out, _ = run(capsys, "simulate", "--p", "3")
    assert exit_code == 0
    report = json.loads(out)
    assert report["gate"] == "U_{2,1}"
    assert report["max_deviation"] < 1e-9


@pytest.mark.parametrize("extra", [["--k", "5"], ["--positions", "1,2"], ["--k", "5", "--positions", "1,2"]])
def test_simulate_qutrit_code_takes_no_shape_flags(capsys, extra):
    # without --l, --p 3 means the assembled qutrit code, which has no k or puncture set
    exit_code, out, err = run(capsys, "simulate", "--p", "3", *extra)
    assert (exit_code, out) == (2, "")
    assert "assembled qutrit code" in err


def test_simulate_missing_shape_is_parameter_error(capsys):
    exit_code, _, err = run(capsys, "simulate", "--p", "7")
    assert exit_code == 2
    assert "--l" in err


def test_simulate_missing_shape_names_the_assembled_qutrit_code(capsys):
    exit_code, out, err = run(capsys, "simulate", "--p", "7", "--l", "2")
    assert (exit_code, out) == (2, "")
    assert err == "error: simulate needs --l and --k (or --input, or --p 3 for the assembled qutrit code)\n"


def test_gamma_text(capsys):
    exit_code, out, _ = run(capsys, "gamma", "--n", "83", "--k", "14", "--d", "15")
    assert exit_code == 0
    assert "0.657" in out
    assert INTERPRETATION_NOTE in out


def test_gamma_json(capsys):
    exit_code, out, _ = run(
        capsys, "gamma", "--n", "83", "--k", "14", "--d", "15", "--format", "json"
    )
    assert exit_code == 0
    data = json.loads(out)
    assert abs(data["gamma"] - math.log(83 / 14) / math.log(15)) < 1e-15
    assert list(data) == sorted(data)


def test_gamma_bad_params(capsys):
    assert run(capsys, "gamma", "--n", "83", "--k", "14", "--d", "1")[0] == 2


def test_search_csv(capsys):
    exit_code, out, _ = run(capsys, "search", "--pmax", "100")
    assert exit_code == 0
    lines = out.splitlines()
    assert lines[0] == "p,l,k,n,d,gamma"
    assert lines[1].startswith("11,")
    assert any(line.startswith("97,32,23,74,9,") for line in lines)


def test_search_json_summary(capsys):
    exit_code, out, _ = run(capsys, "search", "--pmax", "100", "--format", "json")
    assert exit_code == 0
    data = json.loads(out)
    assert len(data["records"]) >= 10
    assert data["summary"]["best"]["p"] == 97
    assert math.isfinite(data["summary"]["c_fit"])


def test_search_below_family_threshold(capsys):
    exit_code, out, _ = run(capsys, "search", "--pmax", "7", "--format", "json")
    assert exit_code == 0
    data = json.loads(out)
    assert data["records"] == []
    assert data["summary"] is None


def test_help_and_missing_subcommand(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys)[0] == 2


def test_entry_raises_system_exit(capsys, monkeypatch):
    import triortho.cli as cli

    monkeypatch.setattr("sys.argv", ["triortho", "gamma", "--n", "83", "--k", "14", "--d", "15"])
    with pytest.raises(SystemExit) as excinfo:
        cli.entry()
    assert excinfo.value.code == 0
    capsys.readouterr()


def test_selftest_reports_every_criterion(capsys, monkeypatch, acceptance_results):
    # the criteria run once per session (conftest); selftest formats and grades them
    monkeypatch.setattr("triortho.acceptance.run_all", lambda: acceptance_results)
    exit_code, out, _ = run(capsys, "selftest")
    lines = [line for line in out.splitlines() if line.startswith("CRITERION")]
    assert len(lines) == 10
    # Three named criteria pin distance values that exact enumeration refutes.
    assert exit_code == 1
    verdicts = {int(line.split()[1]): line.split()[2] for line in lines}
    assert verdicts[1] == "PASS"
    assert verdicts[2] == "FAIL"
    assert verdicts[3] == "FAIL"
    assert verdicts[10] == "FAIL"
    assert all(verdicts[i] == "PASS" for i in (4, 5, 6, 7, 8, 9))
