"""Smoke checks of the benchmark suite, at a size that takes seconds.

Each workload runs once traced (``--trace --repeats 1``: one untraced and
one traced repeat) on a small trace.  The checks: metric names and units
match ``BENCHMARK.json``; traced layer self times partition the traced
replay's wall time within 1%; simulated metrics are bit-identical across
the two repeats; and outside a repository checkout the suite fails
without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMOKE_ARRIVALS = {
    "scale-replay": 2_000,
    "fresh-decision": 40,
    "contended-mt": 800,
}


def run_suite(workload: str, out: Path) -> tuple[dict, dict]:
    process = subprocess.run(
        [
            sys.executable, str(SUITE / "run.py"),
            "--workload", workload,
            "--trace", "--repeats", "1",
            "--arrivals", str(SMOKE_ARRIVALS[workload]),
            "--out", str(out),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert process.returncode == 0, process.stderr
    last = json.loads(process.stdout.strip().splitlines()[-1])
    return last, json.loads(out.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "workload", [workload["name"] for workload in SPEC["workloads"]]
)
def test_workload_smoke(workload, tmp_path):
    last, result = run_suite(workload, tmp_path / "result.json")
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["attempted"] >= 1 and last["failed"] == 0
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {
        name: metric["unit"] for name, metric in last["metrics"].items()
    } == per_layer

    entry = result["workloads"][workload]
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {
        name: metric["unit"] for name, metric in entry["end_to_end"].items()
    } == end_to_end
    assert all(
        metric["value"] > 0 for metric in entry["end_to_end"].values()
    )
    assert entry["trace_partition_error"] < 0.01
    assert entry["missing_spans"] == []
    sims = entry["sim_by_repeat"]
    assert len(sims) == 2 and sims[0] == sims[1]
    assert result["errors"] == []


def test_fails_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    process = subprocess.run(
        SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"],
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert process.returncode != 0
    assert '"correct"' not in process.stdout
