"""Smoke test of the benchmark: every workload at a tiny scale factor.

Runs ``perfbench/run.py`` as a subprocess, as a user would, and checks
that every metric is reported with its unit and that each correctness
check fails the run on a damaged speech table.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

from run import E2E_UNITS, LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMOKE_SF = {"flights-large-go": 2e-4, "flights-exact": 5e-5}
SEED = 2  # the workloads' default seed, for which digests.json has entries


def bench(workload: str, trace: int, *extra: str) -> tuple[int, dict | None, str]:
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--sf", str(SMOKE_SF[workload]), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = p.stdout.strip().splitlines()
    return p.returncode, json.loads(lines[-1]) if lines else None, p.stderr


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert set(SMOKE_SF) == set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(SMOKE_SF))
@pytest.mark.parametrize("trace", [0, 1])
def test_reports_every_metric_with_its_unit(workload, trace):
    code, result, err = bench(workload, trace)
    assert code == 0, err[-3000:]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = LAYER_UNITS if trace else E2E_UNITS
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    assert "absent layer" not in err


def test_corrupted_speech_fails_digest_and_replay_checks():
    code, result, err = bench("flights-exact", 1, "--inject", "corrupt-speech")
    assert code != 0 and not result["correct"]
    assert "perfbench: digest:" in err
    assert "perfbench: replay:" in err


def test_inflated_utility_fails_utility_bound_check():
    code, result, err = bench("flights-large-go", 0, "--inject", "inflate-utility")
    assert code != 0 and not result["correct"]
    assert "perfbench: utility-bound:" in err


def test_dropped_query_fails_query_count_check():
    code, result, err = bench("flights-large-go", 0, "--inject", "drop-query")
    assert code != 0 and not result["correct"] and result["failed"] >= 1
    assert "perfbench: query-count:" in err
