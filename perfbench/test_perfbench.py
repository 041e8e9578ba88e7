"""Tests of the benchmark itself: smoke runs, corrupted artifacts, a bare checkout.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace,
                  "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace == "1" else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "simulate-fast", "--seed", "1", "--seconds", "1", "--trace",
                  "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _artifacts(workload, tmp_path):
    """Run one smoke-sized child and return its directory after a clean check."""
    spec = {"workload": workload, "seed": 7, "smoke": True, "dir": str(tmp_path),
            "threads": 2, "trace": False}
    subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)], check=True,
                   timeout=120)
    size = workloads.sizes(workload, True)
    problems, _, _ = checks.check_run(workload, size, tmp_path)
    assert not any(problems.values()), problems
    return size


def test_type2_p_hat_set_to_zero_fails(tmp_path):
    size = _artifacts("simulate-slow", tmp_path)
    report = tmp_path / "simulate" / "simulate_report.csv"
    header, *rows = report.read_text().splitlines()
    cols = header.split(",")
    corrupted = []
    for row in rows:
        cells = row.split(",")
        if cells[cols.index("j")]:
            cells[cols.index("p_hat")] = "0.0"
        corrupted.append(",".join(cells))
    report.write_text("\n".join([header, *corrupted]) + "\n")
    problems, _, _ = checks.check_run("simulate-slow", size, tmp_path)
    assert any("outside oracle" in p for p in problems["simulate"])


def test_codeword_moved_within_2r0_fails(tmp_path):
    size = _artifacts("pack-highdim", tmp_path)
    book = tmp_path / "pack" / "codebook.txt"
    lines = book.read_text().splitlines()
    first = lines.index("centers:") + 1
    moved = np.array(lines[first].split(), dtype=float) * 0.999
    lines[first + 1] = " ".join(f"{v:.17g}" for v in moved)
    book.write_text("\n".join(lines) + "\n")
    problems, _, _ = checks.check_run("pack-highdim", size, tmp_path)
    assert any("below 2*r0" in p for p in problems["pack"])


def test_unsaturated_lowdim_packing_fails(tmp_path):
    size = _artifacts("pack-lowdim", tmp_path)
    meta = tmp_path / "packing-0.json"
    meta.write_text(json.dumps({**json.loads(meta.read_text()), "saturated": False}))
    problems, _, _ = checks.check_run("pack-lowdim", size, tmp_path)
    assert problems["pack-0"] and not problems["pack-1"]


def test_exact_min_distance_matches_brute_force():
    pts = np.random.default_rng(3).standard_normal((300, 5))
    brute = min(np.linalg.norm(pts[i] - pts[j]) for i in range(300) for j in range(i))
    assert checks.exact_min_distance(pts) == pytest.approx(brute, rel=1e-12)


def test_self_time_subtracts_the_union_of_overlapping_children():
    s = spans.Span
    trace = [
        s(0, "cli.main", None, 1, 0.0, 10.0),
        s(1, "seeding.substream", 0, 2, 1.0, 4.0),
        s(2, "seeding.substream", 0, 3, 3.0, 5.0),
        s(3, "seeding.substream", 0, 2, 8.0, 12.0),
    ]
    assert spans.layer_metrics(trace)["cli.self_s"] == pytest.approx(10.0 - 4.0 - 2.0)
