"""Smoke test of the benchmark itself.

Every workload runs at a tiny size, untraced and traced, and must emit
exactly the metrics ``BENCHMARK.json`` lists, each with its unit, with
no failed op.  Run with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

#: Input scale per workload for the smoke run (service inputs are fixed
#: cube windows and ignore it).
TINY = {
    "corpus_roundtrip": 0.02,
    "stream_ternary": 0.02,
    "corpus_batch": 0.02,
    "service_fleet": None,
}


@pytest.fixture(scope="module", autouse=True)
def program():
    assert run._load_program(), "src/repro is missing from the checkout"


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    record, result = run.run(workload, 3, 0.2, trace, scale=TINY[workload])
    catalogue = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert record["failed_ops_percent"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        item["name"]: item["unit"] for item in catalogue
    }
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name
    if not trace:
        for name, entry in result["metrics"].items():
            assert entry["value"] > 0, f"{name} must never read 0"
    json.dumps({"record": record})


def test_refuses_without_the_program(tmp_path):
    """Beside only BENCHMARK.json and perfbench/, the bench exits non-zero
    and prints no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus_roundtrip",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
