"""Tests of the benchmark itself; they run the benchmark command.

    python3 -m pytest perfbench -q        # from the checkout root, ~3 min

Not part of the package's test suite (pyproject's testpaths is `tests`).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402

# work counts that depend only on the workload's sizes
EXACT_COUNTS = ("bessel.bessel_j.calls", "inverse.volterra_invert.steps",
                "flatness.kernel.bytes", "flatness.derivative_table.rows",
                "control.verify_control.steps")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_counts_repeat_and_second_seed_passes(workload):
    # two seeds with different inputs; the counts depend only on the sizes
    first = result_of(bench("--workload", workload, "--seed", "0", "--seconds", "1",
                            "--trace", "1"))
    second = result_of(bench("--workload", workload, "--seed", "1001", "--seconds", "1",
                             "--trace", "1"))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(run.PER_LAYER)
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_end_to_end_result_shape():
    result = result_of(bench("--workload", "coupling-sweep", "--seed", "5", "--seconds", "1",
                             "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 3
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_source_tree():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "lab-default", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
