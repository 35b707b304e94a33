"""Seeded construct / verify / simulate benchmark of triortho.

Run from the repository root:

    python3 perfbench/run.py --workload family-construct --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One workload runs in one process, driven as a closed loop with one client:
set-up is repeated and timed, then passes over the workload's fixed job
list run until ``--seconds`` have elapsed.  With ``--trace 0`` the run
reports the end-to-end metrics named in BENCHMARK.json; with ``--trace 1``
an untraced pass is followed by traced and untraced passes in turn, and the
run reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload, each in a fresh process, and prints their reports.
"""

from __future__ import annotations

import os

# The BLAS thread count is fixed, equal on every commit and never above nproc.
# It must be set before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, import_program  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# Set-up is repeated a fixed number of times, so that a run's memory use does
# not depend on how fast the machine is; setup_s is the median.
SETUP_REPEATS = 5


def run_pass(jobs, failures: list) -> list:
    """Run every job once and return the time of each call; checks are not timed.

    A job whose call raises, or whose result differs from the expected one,
    is appended to `failures` and the pass goes on.
    """
    times = []
    for job in jobs:
        start = time.perf_counter()
        try:
            result = job.call()
        except Exception:  # a job that raises is a failed job
            times.append(time.perf_counter() - start)
            failures.append(f"{job.name}: raised")
            traceback.print_exc()
            continue
        times.append(time.perf_counter() - start)
        try:
            problem = job.check(result)
        except Exception:  # an output that cannot be read is a wrong output
            traceback.print_exc()
            problem = "output could not be checked"
        if problem is not None:
            failures.append(f"{job.name}: {problem}")
    return times


def environment(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path):
    """Set up, run passes for `seconds`, and return (metrics, record)."""
    setups = []
    for _ in range(SETUP_REPEATS):
        # a fresh directory each time: rewriting an existing file can force a flush to disk
        inputs = Path(tempfile.mkdtemp(dir=work))
        start = time.perf_counter()
        prog = import_program()
        jobs = WORKLOADS[name](prog, random.Random(seed), inputs)
        setups.append(time.perf_counter() - start)

    failures = []
    deadline = time.perf_counter() + seconds
    untraced, traced, layers = [run_pass(jobs, failures)], [], []
    tracer = None
    while time.perf_counter() < deadline or (trace and not traced):
        if trace:
            tracer = Tracer()
            with tracer:
                traced.append(run_pass(jobs, failures))
            layers.append(tracer.layer_metrics())
        untraced.append(run_pass(jobs, failures))

    walls = [sum(times) for times in untraced]
    if trace:
        # the lower median is a value some traced pass measured, so counts stay whole
        metrics = {key: statistics.median_low(m[key] for m in layers) for key in layers[0]}
        # the first pass of a run is slower (cold caches) and every traced pass follows it
        metrics["trace_overhead_s"] = statistics.median(sum(t) for t in traced) - statistics.median(walls[1:])
        tracer.save(OUT_DIR / f"{name}-spans.npz")
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "slowest_job_s": statistics.median(max(times) for times in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    record = {
        "workload": name,
        "trace": int(trace),
        "env": environment(seed),
        "setup_s": setups,
        "jobs": [job.name for job in jobs],
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "attempted": sum(len(times) for times in untraced + traced),
        "failures": failures,
        "metrics": metrics,
    }
    return metrics, record


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    src = ROOT / "src"
    if not (src / "triortho" / "__init__.py").is_file():
        print(f"error: no triortho source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work:
        metrics, record = measure(name, seed, seconds, trace, Path(work))
    if set(metrics) != set(declared):
        print(f"error: measured metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}",
              file=sys.stderr)
        return 3
    with open(OUT_DIR / f"{name}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    attempted, failed = record["attempted"], len(record["failures"])
    print(f"{name}: seed {seed}, {len(record['untraced_pass_s'])} untraced and {len(record['traced_pass_s'])} "
          f"traced passes of {len(record['jobs'])} jobs, {len(record['setup_s'])} set-ups")
    for key in declared:
        print(f"  {key} {metrics[key]} {declared[key]}")
    print(f"  fail_ratio {failed / attempted} ratio ({failed} of {attempted} jobs)")
    for failure in record["failures"]:
        print(f"  failed {failure}")
    print(f"  env {json.dumps(record['env'])}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": declared[key]} for key in declared},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, so that peak_rss_mb is that workload's own."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
