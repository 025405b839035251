"""Tests of the benchmark itself, at tiny scale.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
# A seed with recorded tiny-scale references for every workload.
SEED = 1


def run_tiny(workload: str, trace: int, script: Path = HERE / "run.py") -> tuple[int, dict]:
    done = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    assert lines, done.stderr
    return done.returncode, json.loads(lines[-1])


def assert_metrics(result: dict, specs: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {spec["name"] for spec in specs} == set(result["metrics"])
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    code, result = run_tiny(workload, 0)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert_metrics(result, SPEC["end_to_end"])
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    results = [run_tiny(workload, 1) for _ in range(2)]
    for code, result in results:
        assert code == 0
        assert result["correct"]
        assert_metrics(result, SPEC["per_layer"])
    counts = [
        {
            name: metric["value"]
            for name, metric in result["metrics"].items()
            if metric["unit"] == "count"
        }
        for _, result in results
    ]
    assert counts[0] == counts[1]
    assert any(value > 0 for value in counts[0].values())


@pytest.mark.parametrize("workload", ["paper-study", "reid-population"])
def test_tampered_reference_fails_the_run(workload, tmp_path):
    # A copy of the benchmark whose references.json carries a wrong digest,
    # run against the repository's program.
    copy = tmp_path / "perfbench"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    references = json.loads((copy / "references.json").read_text(encoding="utf-8"))
    digests = references[workload]["tiny"]
    key = next(iter(digests))
    digests[key] = {seed: "0" * 64 for seed in digests[key]}
    (copy / "references.json").write_text(json.dumps(references), encoding="utf-8")
    code, result = run_tiny(workload, 0, script=copy / "run.py")
    assert code != 0
    assert not result["correct"]
    assert result["failed"] > 0 and result["failed"] / result["attempted"] > 0


def test_without_program_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_tail_percentile_leaves_ten_samples_beyond():
    sys.path.insert(0, str(HERE))
    from workloads import tail_percentile

    samples = [float(value) for value in range(1, 41)]
    percentile, value = tail_percentile(samples)
    assert sum(1 for sample in samples if sample > value) >= 10
    assert percentile == 75 and value == 30.0
    assert tail_percentile(samples[:10]) == (0, 1.0)
