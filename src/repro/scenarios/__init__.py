"""Declarative scenario-matrix sweeps over the synthetic web.

A :class:`~repro.scenarios.spec.ScenarioSpec` (TOML or dict) names the
axes a reproduction question varies — consent vantage, allow-list
corruption, enrolment-timeline snapshots, CMP leak scaling, script
origin, seeds — and declares a baseline cell plus cross-cell
assertions.  :func:`~repro.scenarios.matrix.expand` turns it into
deterministic cells, :func:`~repro.scenarios.engine.run_sweep` runs
them (concurrently, resumably) through the full campaign + analysis
pipeline, and :mod:`~repro.scenarios.diff` merges the cells into the
sweep manifest, text report and HTML page.

Declared scenarios live under ``scenarios/*.toml`` at the repo root;
``repro sweep <name-or-path>`` is the CLI entry point.
"""

from repro.scenarios.diff import (
    AssertionVerdict,
    MetricDelta,
    SweepReport,
    build_sweep_report,
    render_sweep_report,
    write_sweep_page,
)
from repro.scenarios.engine import (
    CellFailedError,
    CellRun,
    CellTask,
    SweepOutcome,
    archive_digest,
    execute_cell,
    run_cell_task,
    run_sweep,
)
from repro.scenarios.matrix import (
    Cell,
    CellConfig,
    baseline_cell,
    cell_fingerprint,
    cell_id_of,
    expand,
    render_cell_table,
)
from repro.scenarios.metrics import METRIC_NAMES, cell_metrics, format_metric
from repro.scenarios.spec import (
    Assertion,
    Axis,
    AxisValue,
    SCENARIOS_DIR,
    ScenarioSpec,
    ScenarioSpecError,
    declared_scenarios,
    load_spec,
    resolve_spec,
)

__all__ = [
    "Assertion",
    "AssertionVerdict",
    "Axis",
    "AxisValue",
    "Cell",
    "CellConfig",
    "CellFailedError",
    "CellRun",
    "CellTask",
    "METRIC_NAMES",
    "MetricDelta",
    "SCENARIOS_DIR",
    "ScenarioSpec",
    "ScenarioSpecError",
    "SweepOutcome",
    "SweepReport",
    "archive_digest",
    "baseline_cell",
    "build_sweep_report",
    "cell_fingerprint",
    "cell_id_of",
    "cell_metrics",
    "declared_scenarios",
    "execute_cell",
    "expand",
    "format_metric",
    "load_spec",
    "render_cell_table",
    "render_sweep_report",
    "resolve_spec",
    "run_cell_task",
    "run_sweep",
    "write_sweep_page",
]
