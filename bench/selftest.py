"""Reduced-size self-test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload at a reduced size (a few s-points, three Monte Carlo
batches) through run.py, timed and twice traced, and checks that:

* each run exits 0, reports correct output and prints exactly the metrics
  BENCHMARK.json names, each with its unit;
* the two traced runs of a workload give identical counts;
* every function spans.py lists is called in at least one workload;
* the output checks reject a perturbed result;
* run.py fails without printing a result where the sources are missing.

Takes about a minute on one core.  Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REDUCED = ("s_points=3", "batches=3", "psi_grid=0,0.2")
SEED = 7


def _fail(message: str):
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def _run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    argv = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)]
    for line in REDUCED:
        argv += ["--set", line]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def _result(workload: str, trace: int, spec: dict) -> tuple[dict, dict]:
    code, lines = _run(workload, trace)
    if code != 0:
        _fail(f"{workload} trace={trace} exited {code}: {lines[-3:]}")
    result = json.loads(lines[-1])
    record = json.loads(lines[-2].removeprefix("record "))
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        _fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        _fail(f"{workload} trace={trace}: {record['failures']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        _fail(f"{workload} trace={trace}: metrics differ from BENCHMARK.json")
    return result, record


def _check_checks():
    """The figure2 checks pass on real output and fail on perturbed output."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import checks
    from carsfisher import cli

    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        cfg = Path(tmp, "reduced.cfg")
        cfg.write_text("s_points=4\n")
        out = Path(tmp, "figure2.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["figure2", "--config", str(cfg), "--out", str(out)])
        if code != 0:
            _fail("figure2 did not exit 0")
        if not all(passed for _, passed, _ in checks.check_figure2(str(out))):
            _fail("figure2 checks reject unmodified output")
        lines = out.read_bytes().decode().split("\r\n")
        header = next(i for i, line in enumerate(lines) if line.startswith("s,"))
        row = header + 2
        fields = lines[row].split(",")
        for column, delta in (("fi_di", 1e-7), ("qfi", 1e-8)):
            bad = list(fields)
            index = lines[header].split(",").index(column)
            bad[index] = repr(float(bad[index]) + delta)
            out.write_bytes("\r\n".join(lines[:row] + [",".join(bad)] + lines[row + 1:]).encode())
            if all(passed for _, passed, _ in checks.check_figure2(str(out))):
                _fail(f"figure2 checks accept a perturbed {column}")


def _check_missing_sources():
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH_DIR, Path(tmp, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = _run("quick", 0, cwd=Path(tmp))
        if code == 0 or any(line.startswith("{") for line in lines):
            _fail("run.py succeeded without the carsfisher sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    from spans import FUNCTIONS, METHODS
    listed = {f"{m}.{f}" for m, f in FUNCTIONS} | {f"{m}.{c}.{f}" for m, c, f in METHODS}
    called: set[str] = set()
    for workload in (w["name"] for w in spec["workloads"]):
        _result(workload, 0, spec)
        first, record = _result(workload, 1, spec)
        second, _ = _result(workload, 1, spec)
        for name, metric in first["metrics"].items():
            if metric["unit"] == "count" and metric != second["metrics"][name]:
                _fail(f"{workload}: {name} differs between traced runs")
        called |= set(record["calls"])
        print(f"{workload}: ok, {len(record['calls'])} functions traced")
    if listed - called:
        _fail(f"never traced: {sorted(listed - called)}")
    _check_checks()
    _check_missing_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
