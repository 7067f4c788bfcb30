"""Self-test of the benchmark harness on a reduced op list.

    python3 -m pytest -q bench/tests

Runs every workload with the first two ops of each pass: once untraced and
twice traced with the same seed.  Takes about a minute on two cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = ("modes.sample.points", "experiments.settings",
                "tomography.reconstruct.nfev", "cli.write_table.bytes")


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 7):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--max-ops", "2"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def assert_reports(done, metrics: list[dict]) -> dict:
    """Every metric is in the JSON line and on its own 'name = value unit' line."""
    res = result(done)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in metrics}
    lines = done.stdout.splitlines()
    for m in metrics:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        value = res["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float))
        assert f"{m['name']} = {value!r} {m['unit']}" in lines
    return res["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_reported(workload):
    metrics = assert_reports(run_bench(workload, 0), SPEC["end_to_end"])
    for name in ("wall_s", "op_p50_s", "setup_s", "peak_rss_mb"):
        assert metrics[name]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = assert_reports(run_bench(workload, 1), SPEC["per_layer"])
    second = assert_reports(run_bench(workload, 1), SPEC["per_layer"])
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    assert first["experiments.settings"]["value"] > 0
    assert first["cli.write_table.bytes"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
