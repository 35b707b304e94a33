"""Tests of the benchmark itself: self-time arithmetic, wrapper restoration,
and a smoke run of every workload.

Run from the repository root with ``python3 -m pytest perfbench``.  The smoke
runs execute one full pass of each workload (about two minutes in all).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, import_program  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and a second b [5, 9];
    # d [11, 12] is a second root
    names = [0, 1, 2, 1, 3]
    starts = [0.0, 1.0, 2.0, 5.0, 11.0]
    ends = [10.0, 4.0, 3.0, 9.0, 12.0]
    parents = [-1, 0, 1, 0, -1]
    own = self_times(names, starts, ends, parents, n_names=5)
    assert own.tolist() == [10 - 3 - 4, (3 - 1) + 4, 1, 1, 0]


def _bindings():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name.startswith("triortho")
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_wrappers_cover_copied_references_and_are_restored(tmp_path):
    prog = import_program()
    before = _bindings()
    original = prog.css.min_weight
    with Tracer() as tracer:
        # `from .fplinalg import min_weight` bound a second reference here
        assert prog.css.min_weight is not original
        assert sys.modules["triortho.reed_solomon"].min_weight is not original
        code = prog.cli.main(["construct", "--p", "7", "--l", "2", "--k", "1", "--output", str(tmp_path / "o.json")])
    assert code == 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    metrics = tracer.layer_metrics()
    assert metrics["cli.main.calls"] == 1
    assert metrics["cli.exit.0"] == 1
    assert metrics["triortho_css.build_code.calls"] == 1
    assert metrics["fplinalg.min_weight.calls"] >= 1
    assert metrics["fplinalg.is_prime.calls"] >= 1


def test_wrappers_are_restored_when_the_traced_call_raises():
    prog = import_program()
    before = _bindings()
    with pytest.raises(ValueError):
        with Tracer():
            prog.css.build_code(7, 3, 1)  # 3l > p + 1: not triply even
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


def _run(cwd: Path, workload: str, trace: int):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=600, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_named_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "verify-descriptors", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
