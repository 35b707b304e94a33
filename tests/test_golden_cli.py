"""Golden CLI output: sha256 of stdout and the exit code of a few fast runs.

The digests pin the exact bytes printed, so a change to the arithmetic
underneath cannot silently move a descriptor (G is a kernel basis), a
verify report or a witness.  They were recorded before the F_p kernel was
consolidated (the (17,6,3) and p=701 constructs before the distance routes
and the span enumerator were reworked); a deliberate output change must
re-record them and say why.
"""

import hashlib
import json

import pytest

from triortho.cli import main

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
}
TAMPERED_13_4_1 = ("1421cd9353011ef8f533409e9b5c61aa8f0f9f61116e57169f6c69855ee3d643", 1)
# simulate's max_deviation comes from a BLAS reduction whose last digit moves
# with the BLAS thread count, so it is bounded and the rest of the report pinned
SIMULATE_7_2_1 = ("cef62bc230454c42da6bc2f6921a99ee1fc8c917428b5e18a9534ddf9634559c", 0)


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
