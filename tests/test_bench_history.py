"""The bench regression gate's history trajectory (scripts/…py).

Every gated run appends one ``visits_per_second`` record per benchmark
to ``benchmarks/history.jsonl`` through the atomic-write path, so the
report portal's bench page always reads a whole file — never a torn
line from a crashed run.
"""

import importlib.util
import json
import platform
import subprocess
from pathlib import Path

import pytest


@pytest.fixture(scope="module")
def gate():
    path = (
        Path(__file__).resolve().parent.parent
        / "scripts"
        / "check_bench_regression.py"
    )
    spec = importlib.util.spec_from_file_location("check_bench_regression", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _results_file(tmp_path, rate=50_000.0):
    payload = {
        "benchmarks": [
            {
                "name": "test_crawl_throughput",
                "extra_info": {"visits_per_second": rate},
            }
        ]
    }
    path = tmp_path / "bench-results.json"
    path.write_text(json.dumps(payload))
    return path


def _baseline_file(tmp_path, rate=48_000.0):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"test_crawl_throughput": rate}))
    return path


class TestAppendHistory:
    def test_appends_one_record_per_benchmark(self, gate, tmp_path):
        history = tmp_path / "history.jsonl"
        appended = gate.append_history(
            history, {"test_crawl_throughput": 50_000.0}, {"test_crawl_throughput": 48_000.0}
        )
        assert appended == 1
        (record,) = [json.loads(line) for line in history.read_text().splitlines()]
        assert record["benchmark"] == "test_crawl_throughput"
        assert record["visits_per_second"] == 50_000.0
        assert record["baseline"] == 48_000.0

    def test_successive_runs_accumulate(self, gate, tmp_path):
        history = tmp_path / "history.jsonl"
        for rate in (50_000.0, 51_000.0, 49_000.0):
            gate.append_history(history, {"test_crawl_throughput": rate}, {})
        rates = [
            json.loads(line)["visits_per_second"]
            for line in history.read_text().splitlines()
        ]
        assert rates == [50_000.0, 51_000.0, 49_000.0]

    def test_creates_parent_directory(self, gate, tmp_path):
        history = tmp_path / "nested" / "history.jsonl"
        gate.append_history(history, {"b": 1.0}, {})
        assert history.exists()

    def test_records_commit_from_env(self, gate, tmp_path, monkeypatch):
        monkeypatch.setenv("GITHUB_SHA", "cafe1234")
        history = tmp_path / "history.jsonl"
        gate.append_history(history, {"b": 1.0}, {})
        assert json.loads(history.read_text())["commit"] == "cafe1234"

    def test_records_commit_from_git_without_env(
        self, gate, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("GITHUB_SHA", raising=False)
        checkout = tmp_path / "checkout"
        checkout.mkdir()
        git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
        subprocess.run(git + ["init", "-q"], cwd=checkout, check=True)
        subprocess.run(
            git + ["commit", "-q", "--allow-empty", "-m", "seed"],
            cwd=checkout,
            check=True,
        )
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=checkout,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        monkeypatch.setattr(gate, "_REPO_ROOT", checkout)
        history = tmp_path / "history.jsonl"
        gate.append_history(history, {"b": 1.0}, {})
        assert json.loads(history.read_text())["commit"] == head

    def test_records_null_commit_outside_git_checkout(
        self, gate, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("GITHUB_SHA", raising=False)
        # Stop git's upward search at tmp_path so an enclosing checkout
        # cannot answer for it.
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
        monkeypatch.setattr(gate, "_REPO_ROOT", tmp_path)
        history = tmp_path / "history.jsonl"
        gate.append_history(history, {"b": 1.0}, {})
        assert json.loads(history.read_text())["commit"] is None

    def test_records_python_version(self, gate, tmp_path):
        history = tmp_path / "history.jsonl"
        gate.append_history(history, {"b": 1.0}, {})
        record = json.loads(history.read_text())
        assert record["python"] == platform.python_version()


class TestGateCli:
    def test_gate_appends_history(self, gate, tmp_path, capsys):
        history = tmp_path / "history.jsonl"
        code = gate.main(
            [
                str(_results_file(tmp_path)),
                "--baseline", str(_baseline_file(tmp_path)),
                "--history", str(history),
            ]
        )
        assert code == 0
        assert "history appended" in capsys.readouterr().out
        assert len(history.read_text().splitlines()) == 1

    def test_no_history_flag_skips_append(self, gate, tmp_path):
        history = tmp_path / "history.jsonl"
        code = gate.main(
            [
                str(_results_file(tmp_path)),
                "--baseline", str(_baseline_file(tmp_path)),
                "--history", str(history),
                "--no-history",
            ]
        )
        assert code == 0
        assert not history.exists()

    def test_regression_still_fails_after_append(self, gate, tmp_path):
        history = tmp_path / "history.jsonl"
        code = gate.main(
            [
                str(_results_file(tmp_path, rate=10_000.0)),
                "--baseline", str(_baseline_file(tmp_path, rate=48_000.0)),
                "--history", str(history),
            ]
        )
        assert code == 1
        # The losing run is still recorded — trajectories show dips.
        assert len(history.read_text().splitlines()) == 1

    def test_update_appends_too(self, gate, tmp_path):
        history = tmp_path / "history.jsonl"
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{}")
        code = gate.main(
            [
                str(_results_file(tmp_path)),
                "--baseline", str(baseline),
                "--history", str(history),
                "--update",
            ]
        )
        assert code == 0
        assert len(history.read_text().splitlines()) == 1


def test_seed_history_parses(gate):
    """The committed seed history must stay loadable by the portal."""
    from repro.report.bench import load_history, metric_of, rate_of

    seed = (
        Path(__file__).resolve().parent.parent / "benchmarks" / "history.jsonl"
    )
    records = load_history(seed)
    assert records
    assert all(rate_of(record) > 0 for record in records)
    metrics = {metric_of(record) for record in records}
    # Both planes' trajectories live in the committed history.
    assert "visits_per_second" in metrics
    assert "reid_users_per_second" in metrics


class TestMultiMetricGate:
    def test_gated_rates_reads_each_benchmark_metric(self, gate):
        results = {
            "benchmarks": [
                {
                    "name": "test_crawl_throughput",
                    "extra_info": {"visits_per_second": 50_000.0},
                },
                {
                    "name": "test_reid_throughput",
                    "extra_info": {"reid_users_per_second": 1_500.0},
                },
                {"name": "test_ungated", "extra_info": {"whatever": 1.0}},
            ]
        }
        assert gate.gated_rates(results) == {
            "test_crawl_throughput": 50_000.0,
            "test_reid_throughput": 1_500.0,
        }

    def test_history_records_name_their_metric(self, gate, tmp_path):
        history = tmp_path / "history.jsonl"
        gate.append_history(
            history,
            {"test_reid_throughput": 1_500.0, "test_crawl_throughput": 50_000.0},
            {},
        )
        records = [json.loads(line) for line in history.read_text().splitlines()]
        by_name = {record["benchmark"]: record for record in records}
        crawl = by_name["test_crawl_throughput"]
        reid = by_name["test_reid_throughput"]
        assert crawl["metric"] == "visits_per_second"
        assert crawl["visits_per_second"] == 50_000.0
        assert reid["metric"] == "reid_users_per_second"
        assert reid["reid_users_per_second"] == 1_500.0

    def test_reid_regression_fails_the_gate(self, gate, tmp_path, capsys):
        results = tmp_path / "results.json"
        results.write_text(
            json.dumps(
                {
                    "benchmarks": [
                        {
                            "name": "test_reid_throughput",
                            "extra_info": {"reid_users_per_second": 100.0},
                        }
                    ]
                }
            )
        )
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"test_reid_throughput": 1_400.0}))
        code = gate.main(
            [str(results), "--baseline", str(baseline), "--no-history"]
        )
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out
