"""The benchmark's smoke preset: each workload runs to its end with every
correctness check run and passed, and names every metric in
BENCHMARK.json with its unit.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
GKC_CHECKS = {"serving_models_saved", "refresh_reported", "refresh_deterministic",
              "gauc_rank_sum", "publish_acked_own_version", "all_versions_published",
              "evicted_version_gone", "bulk_answers_match", "slate_answers_match"}
CHECKS = {
    "extract": {"extractor_saved", "version_loads_match", "refresh_reported",
                "refresh_deterministic", "gauc_rank_sum", "pretrain_lowers_logloss",
                "bulk_answers_match", "slate_answers_match"},
    "serve": GKC_CHECKS,
    "churn": GKC_CHECKS,
}
# churn must publish more versions than the GKC retains, two per second
SECONDS = {"extract": 2, "serve": 2, "churn": 4}


def bench_run(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", "3",
           "--seconds", str(SECONDS[workload]), "--trace", str(trace), "--preset", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc) -> tuple[list[str], dict]:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    return lines, res


@pytest.fixture(scope="module")
def outputs():
    out = {}
    for workload in CHECKS:
        for trace in (0, 1):
            out[workload, trace] = result(bench_run(workload, trace))
    return out


@pytest.mark.parametrize("workload", sorted(CHECKS))
def test_every_check_runs_and_passes(outputs, workload):
    lines, _ = outputs[workload, 0]
    ran = {line.split()[1].rstrip(":"): line.split()[2] for line in lines
           if line.startswith("check ")}
    assert ran == {name: "ok" for name in CHECKS[workload]}


@pytest.mark.parametrize("workload", sorted(CHECKS))
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_outputs_name_every_metric_with_its_unit(outputs, workload, trace, kind):
    _, res = outputs[workload, trace]
    for name, m in res["metrics"].items():
        assert isinstance(m["value"], float) and m["value"] == m["value"], name
    assert {name: m["unit"] for name, m in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCH[kind]}


@pytest.mark.parametrize("workload", sorted(CHECKS))
def test_end_to_end_metrics_are_never_zero(outputs, workload):
    _, res = outputs[workload, 0]
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_every_layer_metric_is_measured_by_some_workload(outputs):
    for m in BENCH["per_layer"]:
        assert any(outputs[w, 1][1]["metrics"][m["name"]]["value"] for w in CHECKS), m["name"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench_run("extract", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
