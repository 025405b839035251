"""The sweep engine: run every cell of a scenario matrix, resumably.

Cells are the unit of parallelism *and* of crash-safety:

* each cell derives a deterministic :class:`WorldConfig` +
  :class:`~repro.crawler.executor.WorldSpec` and runs one full campaign
  + analysis pipeline, archiving under ``<out>/cells/<cell-id>/``;
* cells execute concurrently on the existing executor backends —
  ``process`` workers rebuild (and cache) worlds from their fingerprint-
  verified specs exactly like sharded crawls do, so cells sharing a
  world configuration pay the generator once per worker;
* a completed cell writes an atomic ``cell.json`` marker (fingerprint,
  metric summary, archive digest) *after* its archive, so an
  interrupted sweep resumes cell-granular: ``resume=True`` verifies each
  marker against the current spec and re-runs only the missing or stale
  cells, yielding byte-identical output to an uninterrupted run.

The merged sweep — manifest, cross-cell diff report, report page — is
deterministic across backends, worker counts and resume histories.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.browser.context import ScriptOriginMode
from repro.crawler.archive import save_crawl
from repro.crawler.campaign import CrawlCampaign
from repro.crawler.executor import WorldSpec, worker_world
from repro.longitudinal.evolution import world_at
from repro.obs import EventKind, Telemetry
from repro.obs.spans import SPAN_CELL, SPAN_SWEEP
from repro.scenarios.diff import SweepReport, build_sweep_report, write_sweep_page
from repro.scenarios.matrix import Cell, baseline_cell, expand
from repro.scenarios.metrics import METRIC_NAMES, cell_metrics
from repro.scenarios.spec import ScenarioSpec
from repro.util.codec import NUMBER, FormatError, check_fields, located
from repro.util.codec import read_json_object
from repro.util.executor import ExecutionBackend, create_backend
from repro.util.fsio import atomic_write_text
from repro.web.cmp import CmpCatalogue

if TYPE_CHECKING:
    from repro.web.generator import SyntheticWeb

#: The sweep-level manifest (also the cross-cell diff report as JSON).
MANIFEST_FILE = "sweep.json"

#: Per-cell completion marker, written after the cell's archive.
CELL_MARKER_FILE = "cell.json"

#: Subdirectory holding one archive directory per cell.
CELLS_DIR = "cells"

#: The campaign archive files a completed cell must contain, in the
#: fixed order the archive digest folds them.
ARCHIVE_FILES = (
    "d_ba.jsonl",
    "d_aa.jsonl",
    "attestation_survey.jsonl",
    "allowed_domains.txt",
    "report.json",
)

_SCRIPT_ORIGIN_MODES = {
    "embedder": ScriptOriginMode.EMBEDDER,
    "script-url": ScriptOriginMode.SCRIPT_URL,
}


class CellFailedError(RuntimeError):
    """One cell's campaign died; completed cells remain resumable."""

    def __init__(self, cell_id: str, cause: str) -> None:
        super().__init__(
            f"sweep cell {cell_id!r} failed: {cause} (completed cells keep "
            "their markers; re-run with --resume to continue from them)"
        )
        self.cell_id = cell_id
        self.cause = cause

    def __reduce__(self):
        # Cross the process-pool boundary with the right __init__ arity.
        return (type(self), (self.cell_id, self.cause))


@dataclass(frozen=True)
class CellTask:
    """One cell's complete, picklable execution order."""

    cell: Cell
    cell_index: int
    world_spec: WorldSpec
    world_key: str
    cell_dir: str
    fault_injector: object | None = None  # must be picklable when set


@dataclass(frozen=True)
class CellRun:
    """A completed cell's summary (small, picklable, deterministic)."""

    cell_id: str
    fingerprint: str
    metrics: tuple[tuple[str, object], ...]
    archive_digest: str
    duration_seconds: int
    resumed: bool = False

    def metrics_dict(self) -> dict:
        return {name: value for name, value in self.metrics}


def archive_digest(directory: str | Path) -> str:
    """Digest of a cell archive's exact bytes, file order fixed."""
    digest = hashlib.sha256()
    base = Path(directory)
    for name in ARCHIVE_FILES:
        digest.update(name.encode("utf-8") + b"\x00")
        digest.update((base / name).read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


def transform_world(world: "SyntheticWeb", cell: Cell) -> "SyntheticWeb":
    """Apply the cell's declarative world transforms to a base world.

    Transforms never mutate the (possibly cached and shared) base world:
    a snapshot derives the dated world via the adoption model, and a CMP
    leak scale rebuilds the catalogue on a fresh ``SyntheticWeb`` so
    per-world caches cannot leak across cells.
    """
    config = cell.config
    if config.snapshot_at is not None:
        world = world_at(world, config.snapshot_at)
    if config.cmp_leak_scale is not None:
        scale = config.cmp_leak_scale
        scaled = CmpCatalogue(
            tuple(
                dataclasses.replace(
                    provider,
                    preconsent_leak_rate=min(
                        1.0, provider.preconsent_leak_rate * scale
                    ),
                )
                for provider in world.cmps.providers
            )
        )
        from repro.web.generator import SyntheticWeb

        world = SyntheticWeb(
            config=world.config,
            websites=world.websites,
            shadow_sites=world.shadow_sites,
            third_parties=world.third_parties,
            registry=world.registry,
            entities=world.entities,
            cmps=scaled,
            tranco=world.tranco,
        )
    return world


def execute_cell(base_world: "SyntheticWeb", task: CellTask) -> CellRun:
    """Run one cell's campaign, archive it, and write its marker.

    The marker is written *after* the archive files, so its presence
    certifies a complete, digest-verified cell — the property resume
    relies on.
    """
    cell = task.cell
    world = transform_world(base_world, cell)
    fault_hook = None
    if task.fault_injector is not None:
        fault_hook = task.fault_injector(task.cell_index, 1)  # type: ignore[operator]
    try:
        campaign = CrawlCampaign(
            world,
            corrupt_allowlist=cell.config.corrupt_allowlist,
            limit=cell.config.limit,
            script_origin_mode=_SCRIPT_ORIGIN_MODES[cell.config.script_origin],
            fault_hook=fault_hook,
        )
        result = campaign.run()
    except Exception as exc:  # noqa: BLE001 — name the cell, keep the cause
        raise CellFailedError(cell.cell_id, repr(exc)) from exc
    cell_dir = Path(task.cell_dir)
    save_crawl(result, cell_dir)
    metrics = cell_metrics(result, world)
    run = CellRun(
        cell_id=cell.cell_id,
        fingerprint=cell.fingerprint,
        metrics=tuple(metrics.items()),
        archive_digest=archive_digest(cell_dir),
        duration_seconds=result.report.duration_seconds,
    )
    atomic_write_text(cell_dir / CELL_MARKER_FILE, _marker_json(run))
    return run


def _marker_json(run: CellRun) -> str:
    return json.dumps(
        {
            "cell_id": run.cell_id,
            "fingerprint": run.fingerprint,
            "archive_digest": run.archive_digest,
            "duration_seconds": run.duration_seconds,
            "metrics": run.metrics_dict(),
        },
        indent=2,
        sort_keys=True,
    )


#: A cell marker's fields, exactly; its ``metrics`` object holds exactly
#: the :data:`METRIC_NAMES`, each a JSON number.
_MARKER_FIELDS = {
    "cell_id": (str,),
    "fingerprint": (str,),
    "archive_digest": (str,),
    "duration_seconds": (int,),
    "metrics": (dict,),
}
_MARKER_METRICS = {name: NUMBER for name in METRIC_NAMES}


def read_cell_marker(path: str | Path) -> dict:
    """A cell marker's JSON object, checked against its field table.

    Raises :class:`~repro.util.codec.FormatError` naming the file and the
    defect (nothing is coerced), or ``OSError`` when it cannot be read.
    """
    marker = read_json_object(path)
    with located(path):
        check_fields(marker, _MARKER_FIELDS)
        check_fields(marker["metrics"], _MARKER_METRICS)
    return marker


def load_cell_marker(cell_dir: str | Path) -> CellRun | None:
    """Load a cell's completion marker, or ``None`` if absent or defective."""
    try:
        raw = read_cell_marker(Path(cell_dir) / CELL_MARKER_FILE)
    except (OSError, FormatError):
        return None
    # Restore canonical metric order: the marker's JSON is sorted
    # alphabetically, but manifests/reports list metrics in
    # METRIC_NAMES order — resumed cells must match fresh ones.
    return CellRun(
        cell_id=raw["cell_id"],
        fingerprint=raw["fingerprint"],
        metrics=tuple((name, raw["metrics"][name]) for name in METRIC_NAMES),
        archive_digest=raw["archive_digest"],
        duration_seconds=raw["duration_seconds"],
        resumed=True,
    )


def completed_cell(cell: Cell, cell_dir: Path) -> CellRun | None:
    """The cell's durable result, iff its marker verifies end-to-end.

    A marker only counts when its fingerprint matches the *current*
    spec's cell fingerprint (stale parameters re-run) and the archive
    bytes still hash to the recorded digest (torn archives re-run).
    """
    marker = load_cell_marker(cell_dir)
    if marker is None or marker.fingerprint != cell.fingerprint:
        return None
    if any(not (cell_dir / name).exists() for name in ARCHIVE_FILES):
        return None
    if archive_digest(cell_dir) != marker.archive_digest:
        return None
    return marker


def run_cell_task(task: CellTask) -> CellRun:
    """Worker-process entry point: rebuild the base world, run the cell.

    Module-level so the spawn context pickles it by reference; the
    executor's per-worker world cache makes cells sharing one world
    configuration pay the generator once per worker process.
    """
    return execute_cell(worker_world(task.world_spec), task)


@dataclass
class SweepOutcome:
    """Everything one sweep run produced."""

    spec: ScenarioSpec
    cells: list[Cell]
    baseline_id: str
    runs: list[CellRun]  # sorted by cell id
    report: SweepReport
    out_dir: Path
    resumed_cells: list[str]

    @property
    def manifest_path(self) -> Path:
        return self.out_dir / MANIFEST_FILE

    @property
    def report_dir(self) -> Path:
        return self.out_dir / "report"


def run_sweep(
    spec: ScenarioSpec,
    out: str | Path,
    *,
    backend: "str | ExecutionBackend | None" = None,
    max_workers: int | None = None,
    resume: bool = False,
    telemetry: Telemetry = Telemetry.OFF,
    fault_injector: Callable[[int, int], object] | None = None,
    report_page: bool = True,
) -> SweepOutcome:
    """Expand the spec, run every cell, and merge the sweep artefacts.

    Raises :class:`CellFailedError` if any cell dies; cells that
    completed before the failure keep their markers, so re-running with
    ``resume=True`` continues from them.
    """
    cells = expand(spec)
    baseline = baseline_cell(spec, cells)
    out_dir = Path(out)
    cells_root = out_dir / CELLS_DIR
    cells_root.mkdir(parents=True, exist_ok=True)

    telemetry.recorder.event(
        EventKind.SWEEP_STARTED,
        at=0,
        scenario=spec.name,
        cells=len(cells),
        resume=resume,
    )

    completed: dict[str, CellRun] = {}
    if resume:
        for cell in cells:
            durable = completed_cell(cell, cells_root / cell.cell_id)
            if durable is not None:
                completed[cell.cell_id] = durable

    pending = [cell for cell in cells if cell.cell_id not in completed]

    # Build each distinct world configuration once in the parent: local
    # backends share these instances across their cells, and the process
    # backend ships only the fingerprint-verified WorldSpec.
    worlds: dict[str, SyntheticWeb] = {}
    world_specs: dict[str, WorldSpec] = {}
    tasks: list[CellTask] = []
    cell_index = {cell.cell_id: index for index, cell in enumerate(cells)}
    for cell in pending:
        key = json.dumps(
            {"world": cell.config.world_dict(), "vantage": cell.config.vantage},
            sort_keys=True,
        )
        if key not in worlds:
            from repro.web.generator import WebGenerator

            world = WebGenerator(cell.config.world_config()).generate()
            worlds[key] = world
            world_specs[key] = WorldSpec.of(world)
        tasks.append(
            CellTask(
                cell=cell,
                cell_index=cell_index[cell.cell_id],
                world_spec=world_specs[key],
                world_key=key,
                cell_dir=str(cells_root / cell.cell_id),
                fault_injector=fault_injector,
            )
        )

    workers = min(max_workers or len(tasks) or 1, max(len(tasks), 1))
    backend_obj = create_backend(backend, workers)
    fresh = _execute_tasks(backend_obj, tasks, worlds)

    runs_by_id = dict(completed)
    runs_by_id.update({run.cell_id: run for run in fresh})
    runs = [runs_by_id[cell.cell_id] for cell in cells]

    _record_sweep_obs(spec, cells, runs, telemetry)

    report = build_sweep_report(spec, cells, baseline.cell_id, runs)
    atomic_write_text(out_dir / MANIFEST_FILE, report.to_json())
    if report_page:
        write_sweep_page(report, out_dir / "report")
    return SweepOutcome(
        spec=spec,
        cells=cells,
        baseline_id=baseline.cell_id,
        runs=runs,
        report=report,
        out_dir=out_dir,
        resumed_cells=sorted(completed),
    )


def _execute_tasks(
    backend: ExecutionBackend,
    tasks: list[CellTask],
    worlds: dict[str, "SyntheticWeb"],
) -> list[CellRun]:
    if not tasks:
        return []
    if backend.name == "process":
        return backend.map(run_cell_task, tasks)

    def run_local(task: CellTask) -> CellRun:
        return execute_cell(worlds[task.world_key], task)

    return backend.map(run_local, tasks)


def _record_sweep_obs(
    spec: ScenarioSpec,
    cells: list[Cell],
    runs: list[CellRun],
    telemetry: Telemetry,
) -> None:
    """Record the sweep's metrics and one moment per cell.

    Cells run on independent simulated clocks that all start at zero, so
    each cell's span occupies ``[0, duration]`` under the sweep root —
    the profiler reads them as parallel lanes, which is what they are.
    """
    recorder, metrics = telemetry.recorder, telemetry.metrics
    recorder.enter(SPAN_SWEEP, at=0.0, scenario=spec.name, cells=len(cells))
    longest = 0.0
    for cell, run in zip(cells, runs):
        recorder.twin(
            EventKind.CELL_COMPLETED,
            run.duration_seconds,
            {
                "cell": cell.cell_id,
                "fingerprint": run.fingerprint,
                "resumed": run.resumed,
            },
            SPAN_CELL,
            0.0,
            float(run.duration_seconds),
            {"cell": cell.cell_id, "resumed": run.resumed},
        )
        metrics.counter("sweep_cells_total")
        if run.resumed:
            metrics.counter("sweep_cells_resumed")
        metrics.gauge(
            "sweep_cell_duration_seconds",
            run.duration_seconds,
            cell=cell.cell_id,
        )
        metrics.gauge(
            "sweep_cell_visits",
            run.metrics_dict().get("ok", 0),
            cell=cell.cell_id,
        )
        longest = max(longest, float(run.duration_seconds))
    recorder.exit(at=longest)
