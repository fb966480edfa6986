"""carsfisher benchmark: wall time per subcommand and a traced run per layer.

Usage (from the repository root):

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

One single-threaded process drives ``carsfisher.cli.main([...])`` in a closed
loop: each command starts when the previous one returns, at the subcommand's
default configuration.  ``--seed`` becomes ``--seed`` of the simulate
commands; every other command is deterministic.

--trace 0  times whole passes over the workload's commands with no wrappers
           installed, for ``--seconds`` (at least two passes), and reports
           the end-to-end metrics.
--trace 1  runs one pass with every layer's public functions wrapped from
           outside (see spans.py), then one pass unwrapped, and reports the
           per-layer metrics.

Every command's output is checked (checks.py).  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it, starting with ``record``, holds the full
record: environment, per-subcommand times, error rate and check details.
See README.md for the metrics and workloads.
"""

from __future__ import annotations

import os

# single-threaded BLAS before numpy is imported anywhere in this process
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
for _var in [v for v in os.environ if v.startswith("CARSFISHER_")]:
    del os.environ[_var]  # run every command at its defaults

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy

import checks
from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MIN_PASSES = 2
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 120

# workload -> ((metric, subcommand, extra argv), ...); "{seed}" is substituted
WORKLOADS = {
    "sweep": (
        ("figure2_s", "figure2", ()),
        ("figure3_s", "figure3", ()),
    ),
    "mc_di": (
        ("simulate_di_s", "simulate", ("--seed", "{seed}")),
    ),
    "quick": (
        ("adjudicate_s", "adjudicate", ()),
        ("spectral_dump_s", "spectral-dump", ()),
        ("convergence_s", "convergence", ()),
        ("optimize_waist_s", "optimize-waist", ()),
        ("simulate_spade_s", "simulate", ("--seed", "{seed}")),
    ),
}
# config-file lines per workload (flags cannot select the DI measurement)
WORKLOAD_CONFIG = {"mc_di": ("measurement=di",)}

SETUP_CODE = """
import contextlib, io, time
start = time.perf_counter()
from carsfisher import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(["--help"])
    except SystemExit:
        pass
cli.load_config(None)
print(repr(time.perf_counter() - start))
"""


# subcommand metric -> output check; optimize-waist is checked by exit status only
CHECKS = {
    "figure2_s": lambda path, seed: checks.check_figure2(path),
    "figure3_s": lambda path, seed: checks.check_figure3(path),
    "convergence_s": lambda path, seed: checks.check_convergence(path),
    "spectral_dump_s": lambda path, seed: checks.check_spectral(path),
    "adjudicate_s": lambda path, seed: checks.check_adjudicate(path),
    "simulate_spade_s": lambda path, seed: checks.check_simulate(path, "spade", seed),
    "simulate_di_s": lambda path, seed: checks.check_simulate(path, "di", seed),
}


class Ledger:
    """Commands and output checks attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, name: str, passed: bool, detail: str):
        self.attempted += 1
        if not passed:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {detail}")


def _run_command(cli, argv: list[str]) -> tuple[float, str]:
    """Time one cli.main call; returns (seconds, error text or '')."""
    sink = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
    except SystemExit as exc:
        return perf_counter() - start, f"SystemExit({exc.code})"
    except Exception:  # report any crash as a failed command and carry on
        return perf_counter() - start, traceback.format_exc(limit=3)
    elapsed = perf_counter() - start
    return elapsed, "" if code == 0 else f"exit code {code}"


def run_pass(cli, commands, outdir: Path, seed: int, ledger: Ledger):
    """One pass over the workload; returns ({metric: seconds}, output bytes)."""
    times: dict[str, float] = {}
    output_bytes = 0
    for metric, command, extra in commands:
        ext = "json" if command in ("simulate", "adjudicate") else "csv"
        out = outdir / f"{metric[:-2]}.{ext}"
        argv = [command, "--config", str(outdir / "workload.cfg"), "--out", str(out),
                *(a.format(seed=seed) for a in extra)]
        times[metric], error = _run_command(cli, argv)
        ledger.record(f"{metric[:-2]}.exit", not error, error.strip())
        if error:
            print(f"command {' '.join(argv)} failed: {error}", file=sys.stderr)
            continue
        output_bytes += out.stat().st_size
        try:
            results = CHECKS[metric](str(out), seed) if metric in CHECKS else []
        except Exception:  # an unreadable output is a failed check
            results = [("output_readable", False, traceback.format_exc(limit=2))]
        for name, passed, detail in results:
            ledger.record(f"{metric[:-2]}.{name}", passed, detail)
    return times, output_bytes


def measure_setup(samples: int) -> list[float]:
    """Fresh-interpreter import + parser + config load, after one warm-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    values = []
    for i in range(samples + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup child failed: {proc.stderr.strip()}")
        if i:
            values.append(float(proc.stdout.strip().splitlines()[-1]))
    return values


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "loadavg_1m": os.getloadavg()[0],
    }


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def timed(cli, commands, outdir, seed, seconds, ledger):
    setup = measure_setup(SETUP_SAMPLES)
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(cli, commands, outdir, seed, ledger)[0])
        elapsed = perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (1 + 1 / len(passes)) > seconds:
            break
    walls = [sum(p.values()) for p in passes]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"passes": len(passes), "pass_wall_s": walls, "setup_samples_s": setup,
              "per_subcommand_s": {m: statistics.median(p[m] for p in passes)
                                   for m in passes[0]}}
    return metrics, detail


def traced(cli, commands, outdir, seed, ledger):
    tracer = Tracer()
    tracer.install()
    try:
        times, output_bytes = run_pass(cli, commands, outdir, seed, ledger)
    finally:
        tracer.uninstall()
    traced_wall = sum(times.values())
    plain_wall = sum(run_pass(cli, commands, outdir, seed, ledger)[0].values())
    metrics = tracer.metrics(output_bytes, traced_wall - plain_wall)
    detail = {"traced_wall_s": traced_wall, "untraced_wall_s": plain_wall,
              "installed": tracer.installed,
              "calls": {name: st["calls"] for name, st in sorted(tracer.stats.items())
                        if st["calls"]}}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="extra config-file line for every command "
                             "(reduced-size runs of selftest.py)")
    args = parser.parse_args(argv)

    if not (SRC / "carsfisher" / "__init__.py").is_file():
        print(f"carsfisher sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))
    from carsfisher import cli

    seed = args.seed % 2**63
    commands = WORKLOADS[args.workload]
    ledger = Ledger()
    env = environment()
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        lines = [*WORKLOAD_CONFIG.get(args.workload, ()), *args.set]
        (outdir / "workload.cfg").write_text("".join(f"{line}\n" for line in lines))
        if args.trace:
            metrics, detail = traced(cli, commands, outdir, seed, ledger)
        else:
            metrics, detail = timed(cli, commands, outdir, seed, args.seconds, ledger)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    mismatch = {m["name"] for m in wanted} ^ set(metrics)
    if mismatch:
        print(f"metric set differs from BENCHMARK.json: {sorted(mismatch)}", file=sys.stderr)
        return 1
    error_rate = ledger.failed / ledger.attempted
    units = {m["name"]: m["unit"] for m in wanted}
    rows = dict(metrics)
    rows.update(detail.get("per_subcommand_s", {}))
    for name, value in rows.items():
        print(f"{name:44s} {value:14.6g} {units.get(name, 's')}")
    print(f"{'error_rate':44s} {error_rate:14.6g} ratio "
          f"({ledger.failed} of {ledger.attempted} commands and checks failed)")
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "error_rate": error_rate,
              "failures": ledger.failures, **detail, "metrics": metrics}
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
