"""Sweep engine end-to-end: determinism, crash injection, resume."""

import json
from pathlib import Path

import pytest

from repro.crawler.executor import CrashSchedule
from repro.scenarios.engine import (
    ARCHIVE_FILES,
    CELL_MARKER_FILE,
    CellFailedError,
    archive_digest,
    load_cell_marker,
    run_sweep,
)
from repro.scenarios.matrix import expand
from repro.scenarios.metrics import METRIC_NAMES
from repro.scenarios.spec import ScenarioSpec

#: Small enough to keep the suite fast, large enough that both vantages
#: see banners and the corrupted allow-list admits anomalous callers.
_SITES = 300


def tiny_spec(seed: int = 5, assertions: tuple = ()) -> ScenarioSpec:
    return ScenarioSpec.from_dict(
        {
            "name": "tiny",
            "world": {"sites": _SITES, "seed": seed},
            "axes": [
                {
                    "name": "vantage",
                    "values": [
                        {"name": "eu", "vantage": "eu"},
                        {"name": "us", "vantage": "us"},
                    ],
                },
                {
                    "name": "allowlist",
                    "values": [
                        {"name": "corrupted", "allowlist": "corrupted"},
                        {"name": "healthy", "allowlist": "healthy"},
                    ],
                },
            ],
            "baseline": {"vantage": "eu", "allowlist": "corrupted"},
            "assertions": list(assertions),
        }
    )


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestRunSweep:
    def test_end_to_end_serial(self, tmp_path):
        spec = tiny_spec()
        outcome = run_sweep(spec, tmp_path / "sweep", backend="serial")

        assert [run.cell_id for run in outcome.runs] == [
            cell.cell_id for cell in outcome.cells
        ]
        assert len(outcome.runs) == 4
        assert outcome.baseline_id == "allowlist=corrupted,vantage=eu"
        assert outcome.report.ok  # no assertions declared -> vacuously ok
        assert outcome.manifest_path.exists()
        assert (outcome.report_dir / "index.html").exists()
        for cell in outcome.cells:
            cell_dir = tmp_path / "sweep" / "cells" / cell.cell_id
            for name in ARCHIVE_FILES:
                assert (cell_dir / name).exists()
            marker = load_cell_marker(cell_dir)
            assert marker is not None
            assert marker.fingerprint == cell.fingerprint
            assert marker.archive_digest == archive_digest(cell_dir)
            assert [name for name, _ in marker.metrics] == list(METRIC_NAMES)

    def test_thread_backend_matches_serial_bytes(self, tmp_path):
        spec = tiny_spec()
        run_sweep(spec, tmp_path / "serial", backend="serial")
        run_sweep(spec, tmp_path / "thread", backend="thread", max_workers=4)
        assert tree_bytes(tmp_path / "serial") == tree_bytes(
            tmp_path / "thread"
        )

    def test_assertions_feed_the_report(self, tmp_path):
        spec = tiny_spec(
            assertions=(
                {
                    "kind": "bound",
                    "metric": "anomalous_calls",
                    "where": {"allowlist": "healthy"},
                    "equals": 0,
                },
                {
                    "kind": "monotonic",
                    "metric": "aa_not_allowed",
                    "axis": "allowlist",
                    "order": ["corrupted", "healthy"],
                    "direction": "non-increasing",
                },
            )
        )
        outcome = run_sweep(spec, tmp_path / "sweep", backend="serial")
        assert outcome.report.ok
        # One bound verdict + one monotonic verdict per vantage value.
        assert len(outcome.report.verdicts) == 3

    def test_failing_assertion_flips_ok(self, tmp_path):
        spec = tiny_spec(
            assertions=(
                {
                    "kind": "bound",
                    "metric": "targets",
                    "where": {},
                    "equals": -1,
                },
            )
        )
        outcome = run_sweep(spec, tmp_path / "sweep", backend="serial")
        assert not outcome.report.ok
        assert all(not verdict.passed for verdict in outcome.report.verdicts)


class TestCrashAndResume:
    def test_injected_crash_surfaces_as_cell_failure(self, tmp_path):
        spec = tiny_spec()
        cells = expand(spec)
        # Kill the last cell (serial order == sorted cell ids) so every
        # earlier cell completes and keeps its marker.
        injector = CrashSchedule(
            shard_index=len(cells) - 1, points=((1, 5),)
        )
        with pytest.raises(CellFailedError) as failure:
            run_sweep(
                spec,
                tmp_path / "sweep",
                backend="serial",
                fault_injector=injector,
            )
        assert failure.value.cell_id == cells[-1].cell_id
        assert "resume" in str(failure.value)

        cells_root = tmp_path / "sweep" / "cells"
        for cell in cells[:-1]:
            assert (cells_root / cell.cell_id / CELL_MARKER_FILE).exists()
        assert not (
            cells_root / cells[-1].cell_id / CELL_MARKER_FILE
        ).exists()

    def test_resume_after_crash_is_byte_identical(self, tmp_path):
        spec = tiny_spec()
        cells = expand(spec)
        injector = CrashSchedule(shard_index=len(cells) - 1, points=((1, 5),))
        with pytest.raises(CellFailedError):
            run_sweep(
                spec,
                tmp_path / "crashed",
                backend="serial",
                fault_injector=injector,
            )

        resumed = run_sweep(
            spec, tmp_path / "crashed", backend="serial", resume=True
        )
        assert resumed.resumed_cells == [
            cell.cell_id for cell in cells[:-1]
        ]
        assert [run.resumed for run in resumed.runs] == [
            True,
            True,
            True,
            False,
        ]

        clean = run_sweep(spec, tmp_path / "clean", backend="serial")
        assert tree_bytes(tmp_path / "crashed") == tree_bytes(
            tmp_path / "clean"
        )
        assert resumed.report.to_json() == clean.report.to_json()

    def test_resume_reruns_stale_fingerprints(self, tmp_path):
        run_sweep(tiny_spec(seed=5), tmp_path / "sweep", backend="serial")
        # Same cell ids, different world seed: every fingerprint changes,
        # so resume must trust nothing and re-run the full matrix.
        outcome = run_sweep(
            tiny_spec(seed=6), tmp_path / "sweep", backend="serial", resume=True
        )
        assert outcome.resumed_cells == []
        assert all(not run.resumed for run in outcome.runs)

    def test_resume_rejects_tampered_archives(self, tmp_path):
        spec = tiny_spec()
        first = run_sweep(spec, tmp_path / "sweep", backend="serial")
        victim = (
            tmp_path / "sweep" / "cells" / first.cells[0].cell_id / "report.json"
        )
        victim.write_text(victim.read_text() + "\n")
        outcome = run_sweep(
            spec, tmp_path / "sweep", backend="serial", resume=True
        )
        assert first.cells[0].cell_id not in outcome.resumed_cells
        assert len(outcome.resumed_cells) == 3

    @pytest.mark.parametrize(
        "defect",
        [
            {"cell_id": 7},
            {"metrics": {"ok": "lots"}},
            {"metrics": []},
            {"duration_seconds": "12"},
            {"surplus": 1},
        ],
        ids=[
            "int-cell-id",
            "string-metric",
            "metrics-array",
            "string-duration",
            "surplus",
        ],
    )
    def test_resume_reruns_defective_markers(self, tmp_path, defect):
        """A marker is read through its field table: a defective one is not
        coerced into a result, so its cell re-runs even though its
        fingerprint and archive digest still match."""
        spec = tiny_spec()
        first = run_sweep(spec, tmp_path / "sweep", backend="serial")
        cell_dir = tmp_path / "sweep" / "cells" / first.cells[0].cell_id
        marker_path = cell_dir / CELL_MARKER_FILE
        marker = json.loads(marker_path.read_text())
        marker_path.write_text(json.dumps({**marker, **defect}))
        assert load_cell_marker(cell_dir) is None

        outcome = run_sweep(spec, tmp_path / "sweep", backend="serial", resume=True)
        assert first.cells[0].cell_id not in outcome.resumed_cells
        assert len(outcome.resumed_cells) == 3
        assert load_cell_marker(cell_dir) is not None
