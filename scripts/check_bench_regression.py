#!/usr/bin/env python3
"""Gate throughput regressions against a committed baseline.

Reads a ``pytest-benchmark --benchmark-json`` results file, pulls each
gated benchmark's throughput figure (``visits_per_second`` for the crawl
plane, ``reid_users_per_second`` for the population data plane,
``service_visits_per_second`` for the streamed crawl service) from its
``extra_info``, and compares it against the committed baseline
(``benchmarks/baseline_visits_per_second.json``).  A benchmark that
drops more than the allowed fraction below its baseline fails the run;
faster-than-baseline results are reported (and can be promoted with
``--update`` after an intentional improvement lands).

CI runners vary in raw speed, so the committed baseline is deliberately
conservative and the threshold is configurable::

    python scripts/check_bench_regression.py bench-results.json
    python scripts/check_bench_regression.py bench-results.json --max-regression 0.5
    python scripts/check_bench_regression.py bench-results.json --update
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
# CI invokes this script without PYTHONPATH=src, so make the package
# importable before reaching for repro.util.fsio.
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.util.fsio import atomic_write_lines  # noqa: E402

#: Default location of the committed baseline, relative to the repo root.
BASELINE_PATH = _REPO_ROOT / "benchmarks" / "baseline_visits_per_second.json"

#: Append-only trajectory consumed by the report portal's bench page.
HISTORY_PATH = _REPO_ROOT / "benchmarks" / "history.jsonl"

#: Gated benchmarks and the ``extra_info`` key each records its
#: throughput under.  Names match pytest-benchmark's ``name``; the key
#: also names the metric in history records, so the report portal can
#: chart heterogeneous trajectories side by side.
GATED_BENCHMARKS = {
    "test_crawl_throughput": "visits_per_second",
    "test_reid_throughput": "reid_users_per_second",
    "test_service_throughput": "service_visits_per_second",
}

#: Exit code for "inputs unusable" (missing/unparseable JSON), distinct
#: from 1 (regression) and 2 (results present but nothing gated), so CI
#: can tell a broken gate from a slow crawl.
EXIT_BAD_INPUT = 3


class BadInputError(Exception):
    """A results or baseline file is missing or not valid JSON."""


def _fail_input(message: str) -> None:
    """Report an unusable input on stderr (and the CI step summary)."""
    print(f"error: {message}", file=sys.stderr)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as summary:
            summary.write(f"**bench gate skipped** — {message}\n")
    raise BadInputError(message)


def load_json_file(path: Path, role: str, *, remedy: str = "") -> dict:
    """Parse ``path`` as JSON, failing with a readable message (exit 3
    via :class:`BadInputError`) instead of a traceback when the file is
    missing or corrupt."""
    suffix = f" {remedy}" if remedy else ""
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        _fail_input(f"{role} file not found: {path}.{suffix}")
    except OSError as exc:
        _fail_input(f"{role} file unreadable: {path} ({exc}).{suffix}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        _fail_input(f"{role} file is not valid JSON: {path} ({exc}).{suffix}")
    raise AssertionError("unreachable")


def gated_rates(results: dict) -> dict[str, float]:
    """``benchmark name -> throughput`` for every gated benchmark found."""
    rates: dict[str, float] = {}
    for bench in results.get("benchmarks", ()):
        name = bench.get("name", "")
        metric = GATED_BENCHMARKS.get(name)
        if metric is None:
            continue
        rate = bench.get("extra_info", {}).get(metric)
        if rate:
            rates[name] = float(rate)
    return rates


def current_commit() -> str | None:
    """The commit being measured: ``GITHUB_SHA`` when set, else the
    repository's ``git rev-parse HEAD``; None outside a git checkout."""
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=_REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return result.stdout.strip() or None


def append_history(
    history_path: Path, measured: dict[str, float], baseline: dict
) -> int:
    """Append one record per measured benchmark to the history file.

    The whole file is rewritten atomically (read, extend, rename) via
    :func:`repro.util.fsio.atomic_write_lines`, so a crash mid-append
    can never leave a torn line for the report portal to choke on.
    Each record names the commit (:func:`current_commit`) and the Python
    version it was measured on.  Returns the number of records appended.
    """
    commit = current_commit()
    python = platform.python_version()
    lines: list[str] = []
    if history_path.exists():
        lines = [
            line
            for line in history_path.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
    for name, rate in sorted(measured.items()):
        metric = GATED_BENCHMARKS.get(name, "visits_per_second")
        record = {
            "benchmark": name,
            metric: round(rate, 3),
            "metric": metric,
            "baseline": baseline.get(name),
            "commit": commit,
            "python": python,
        }
        lines.append(json.dumps(record, sort_keys=True))
    history_path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_lines(history_path, lines)
    return len(measured)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", type=Path, help="pytest-benchmark JSON file")
    parser.add_argument(
        "--baseline",
        type=Path,
        default=BASELINE_PATH,
        help=f"baseline JSON (default: {BASELINE_PATH})",
    )
    parser.add_argument(
        "--history",
        type=Path,
        default=HISTORY_PATH,
        help="append visits/sec records to this JSONL trajectory "
        f"(default: {HISTORY_PATH})",
    )
    parser.add_argument(
        "--no-history",
        action="store_true",
        help="skip appending to the bench-history trajectory",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        help="allowed fractional drop below baseline (default: 0.30)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="write the measured rates out as the new baseline and exit",
    )
    args = parser.parse_args(argv)

    try:
        return _run(args)
    except BadInputError:
        return EXIT_BAD_INPUT


def _run(args: argparse.Namespace) -> int:
    measured = gated_rates(load_json_file(args.results, "results"))
    if not measured:
        print(
            "error: no gated benchmark with a throughput figure in "
            f"{args.results} (expected one of: {', '.join(GATED_BENCHMARKS)})",
            file=sys.stderr,
        )
        return 2

    if args.update:
        args.baseline.write_text(
            json.dumps(measured, indent=2, sort_keys=True) + "\n"
        )
        print(f"baseline updated: {args.baseline}")
        for name, rate in sorted(measured.items()):
            metric = GATED_BENCHMARKS.get(name, "visits_per_second")
            print(f"  {name}: {rate:,.0f} {metric}")
        if not args.no_history:
            append_history(args.history, measured, measured)
            print(f"history appended: {args.history}")
        return 0

    baseline = load_json_file(
        args.baseline,
        "baseline",
        remedy="Run with --update to record a fresh baseline.",
    )
    if not args.no_history:
        appended = append_history(args.history, measured, baseline)
        print(f"history appended ({appended} record(s)): {args.history}")
    failures = []
    for name, rate in sorted(measured.items()):
        metric = GATED_BENCHMARKS.get(name, "visits_per_second")
        reference = baseline.get(name)
        if reference is None:
            print(f"  {name}: {rate:,.0f} {metric} (no baseline; skipped)")
            continue
        change = rate / reference - 1.0
        status = "ok"
        if change < -args.max_regression:
            status = "REGRESSION"
            failures.append(name)
        print(
            f"  {name}: {rate:,.0f} {metric} vs baseline "
            f"{reference:,.0f} ({change:+.1%}) {status}"
        )

    if failures:
        print(
            f"error: throughput regressed more than "
            f"{args.max_regression:.0%} on: {', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
