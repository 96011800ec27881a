"""Schema smoke test of the perf ledger.

Not part of tier-1 (``testpaths`` is ``tests``); run it with
``PYTHONPATH=src python -m pytest benchmarks/perf -q``.  It drives the
runner the way a user does, through ``run.py`` in a subprocess, at a
twentieth of the size, and checks shapes and names — never speeds.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
        capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def ledger(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("perf") / "ledger.json"
    proc = run_cli("--smoke", "--trace", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text())


def test_ledger_schema(ledger):
    assert set(ledger) == {"manifest", "workloads"}
    assert ledger["manifest"]["smoke"] is True
    assert list(ledger["workloads"]) == WORKLOADS
    for entry in ledger["workloads"].values():
        assert entry["correct"] is True
        assert entry["ops_attempted"] >= 1
        assert entry["ops_failed"] == 0
        for metric in entry["metrics"].values():
            assert set(metric) == {"value", "unit", "better", "bound",
                                   "repeats", "quartiles"}
            assert len(metric["quartiles"]) == 3
        assert entry["info"]["trace_overhead_frac"] < 0.9


def test_every_benchmark_name_is_reported_and_finite(ledger):
    layers_seen = set()
    for entry in ledger["workloads"].values():
        for name in END_TO_END:
            assert math.isfinite(entry["metrics"][name]["value"]), name
            assert entry["metrics"][name]["value"] > 0, name
        for name, metric in entry["layers"].items():
            assert name in PER_LAYER, f"{name} is not in BENCHMARK.json"
            assert math.isfinite(metric["value"]), name
        layers_seen |= set(entry["layers"])
    assert layers_seen == set(PER_LAYER)


def test_names_are_plain():
    for name in END_TO_END + PER_LAYER + WORKLOADS:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_self_time_rows_add_up_to_the_frame_wall(ledger):
    for workload, entry in ledger["workloads"].items():
        layers = entry["layers"]
        rows = sum(m["value"] for name, m in layers.items()
                   if name.endswith(".self_ms_per_frame"))
        wall = layers["perf.trace.frame_wall_ms"]["value"]
        assert rows == pytest.approx(wall, rel=0.01), workload


def test_contract_result_line():
    proc = run_cli("--workload", "video_uplink", "--seed", "3",
                   "--seconds", "0.6", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert list(result["metrics"]) == PER_LAYER
    # A layer this workload bypasses reads 0, one it exercises does not.
    assert result["metrics"]["vision.orb.extract.self_ms_per_frame"][
        "value"] == 0.0
    assert result["metrics"]["video.codec.encode.self_ms_per_frame"][
        "value"] > 0.0


def test_list_runs_nothing():
    proc = run_cli("--list")
    assert proc.returncode == 0
    for name in WORKLOADS + END_TO_END + PER_LAYER:
        assert name in proc.stdout
