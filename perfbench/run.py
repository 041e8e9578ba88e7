"""End-to-end benchmark of the difading laboratory.

    python3 perfbench/run.py --workload pack-lowdim --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from ``src``.
One client runs a closed loop: each run of the workload is a fresh Python
child (``child.py``), started only after the previous one has ended, so
set-up time and peak memory belong to that run.  With ``--trace 0`` the loop
repeats the run until ``--seconds`` would be exceeded (at least three runs)
and reports medians of the end-to-end metrics.  With ``--trace 1`` it makes
one untraced run, two traced runs whose exact counts must agree, and for the
simulate workloads one more untraced run at one thread, and reports the
per-layer metrics.  Every run's artifacts are checked by ``checks.py``; an
operation fails on an error, an unexpected exit status, an artifact that
fails a check, or an artifact that differs from the first run of the seed.

The last line of standard output is the result object; the line before it
holds the machine facts and the per-run samples.  ``--smoke`` shrinks every
workload so that it runs and is checked in a few seconds.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_RUNS = 3
CHILD_TIMEOUT_S = 150
# One BLAS thread per Python thread: with BLAS threads on top of ``--threads``
# the runs oversubscribe the few cores and time the scheduler, not the program.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

# Counts a traced run must repeat exactly.
EXACT_COUNTS = (
    "geometry.candidates",
    "geometry.accepted",
    "geometry.min_distance_calls",
    "channel.gains_drawn",
    "seeding.noise_streams",
    "estimation.decisions",
    "codec.save_bytes",
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    return parser.parse_args(argv)


def _machine_facts(args, threads: int) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "difading").glob("*.py")):
        source.update(path.read_bytes())
    return {
        "nproc": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **BLAS_ENV,
        "threads": threads,
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


class Runner:
    """Starts child runs of one workload and checks what each leaves behind."""

    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.size = workloads.sizes(args.workload, args.smoke)
        self.ops = workloads.operations(args.workload, self.size)
        self._reference = None  # artifact digests of the first run
        self._count = 0

    def run(self, threads: int, trace: bool) -> dict:
        """One child run: timings, failed operations and, when traced, layer metrics."""
        args = self.args
        work = self.work / f"run{self._count}"
        self._count += 1
        work.mkdir(parents=True)
        spec = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
                "dir": str(work), "threads": threads, "trace": trace}
        proc = None
        started = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                                  cwd=ROOT, env={**os.environ, **BLAS_ENV},
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            result = json.loads((work / "result.json").read_text())
        except (subprocess.TimeoutExpired, OSError, ValueError) as exc:
            stderr = proc.stderr if proc is not None else ""
            print(f"run failed: {exc}\n{stderr[-2000:]}", file=sys.stderr)
            shutil.rmtree(work)
            return {"failed": list(self.ops), "attempted": len(self.ops), "wall_s": None}

        problems, digests, accepted = checks.check_run(args.workload, self.size, work)
        failed = []
        for op in result["ops"]:
            found = ([op["error"]] if op["error"] else []) + problems.get(op["name"], [])
            if self._reference is not None and digests.get(op["name"]) != self._reference.get(
                    op["name"]):
                found.append("artifact differs from the first run of this seed")
            if found:
                failed.append(op["name"])
                print(f"FAILED {op['name']}: " + "; ".join(found[:5]), file=sys.stderr)
        if self._reference is None:
            self._reference = digests
        shutil.rmtree(work)
        wall = result["wall_s"]
        return {
            "failed": failed,
            "attempted": len(result["ops"]),
            "threads": threads,
            "traced": trace,
            "wall_s": wall,
            "setup_s": result["t_ready"] - started,
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
            "work_per_s": workloads.work_units(args.workload, self.size, accepted) / wall,
            "cli_bytes_written": result["cli_bytes_written"],
            "layers": result["layers"],
        }


def _timed(runner: Runner, threads: int, seconds: float, min_runs: int):
    runs = []
    start = time.monotonic()
    while True:
        runs.append(runner.run(threads, trace=False))
        elapsed = time.monotonic() - start
        if len(runs) >= min_runs and elapsed * (len(runs) + 1) / len(runs) > seconds:
            break
    timed = [r for r in runs if r["wall_s"] is not None]
    metrics = {}
    if timed:
        for name, unit in (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
                           ("work_per_s", "1/s")):
            metrics[name] = {"value": statistics.median(r[name] for r in timed), "unit": unit}
    return runs, metrics, []


def _unit(name: str) -> str:
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_speedup")):
        return "ratio"
    if name.endswith("_per_kdecision"):
        return "1/kdecision"
    return "bytes" if "bytes" in name else "count"


def _traced(runner: Runner, threads: int, simulate: bool):
    # Untraced between the traced runs, so drift does not bias the overhead.
    first = runner.run(threads, trace=True)
    base = runner.run(threads, trace=False)
    second = runner.run(threads, trace=True)
    runs = [first, base, second]
    problems = []
    if simulate:
        runs.append(runner.run(1, trace=False))
    if any(r["wall_s"] is None for r in runs):
        return runs, {}, ["a run of the traced set did not finish"]
    layers = {}
    for name, value in first["layers"].items():
        layers[name] = (value + second["layers"][name]) / 2.0
        if name in EXACT_COUNTS and value != second["layers"][name]:
            problems.append(f"{name} differs between traced runs: "
                            f"{value} vs {second['layers'][name]}")
    if simulate:
        expected = workloads.work_units(runner.args.workload, runner.size, 0)
        if first["layers"]["estimation.decisions"] != expected:
            problems.append(f"estimation.decisions is {first['layers']['estimation.decisions']},"
                            f" the configuration asks for {expected}")
    layers["estimation.thread_speedup"] = runs[3]["wall_s"] / base["wall_s"] if simulate else 0.0
    layers["cli.bytes_written"] = first["cli_bytes_written"]
    layers["trace.overhead_s"] = (first["wall_s"] + second["wall_s"]) / 2.0 - base["wall_s"]
    metrics = {name: {"value": value, "unit": _unit(name)} for name, value in layers.items()}
    return runs, metrics, problems


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "difading" / "__init__.py").is_file():
        print(f"no difading sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    threads = len(os.sched_getaffinity(0))
    work = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        # Fill the file and bytecode caches before the first measured run.
        subprocess.run([sys.executable, "-c", "import difading"], cwd=ROOT, check=True,
                       env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120)
        runner = Runner(args, work)
        if args.trace:
            runs, metrics, problems = _traced(runner, threads, args.workload.startswith("sim"))
        else:
            runs, metrics, problems = _timed(runner, threads, args.seconds,
                                             2 if args.smoke else MIN_RUNS)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for problem in problems:
        print(f"FAILED trace-counts: {problem}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in runs) + (1 if args.trace else 0)
    failed = sum(len(r["failed"]) for r in runs) + (1 if problems else 0)
    samples = [{k: v for k, v in r.items() if k != "layers"} for r in runs]
    print(json.dumps({"machine": _machine_facts(args, threads), "samples": len(runs),
                      "runs": samples}))
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
