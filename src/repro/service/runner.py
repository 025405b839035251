"""Blocking job execution: one campaign, run on a worker thread.

:func:`run_job` is the synchronous heart of the service.  It runs the
same :class:`~repro.crawler.crawl.Crawl` the batch ``repro crawl`` path
does, wired to three service needs:

* **streaming** — a :class:`~repro.obs.bridge.VisitProgressListener`
  turns completed visit spans into throttled ``shard-progress`` events,
  and the crawl's ``shard_listener`` seam emits a
  ``shard-result`` event (with the shard's rebased Before-Accept rows)
  the moment each shard finishes, long before the merge;
* **cancellation** — a :class:`~repro.crawler.executor.CancelFlag`
  injector polls the job's flag file between visits, so touching one
  file stops every shard on every backend with durable checkpoints
  intact;
* **fault drills** — an armed :class:`~repro.service.jobs.FaultSpec`
  composes a :class:`~repro.crawler.executor.CrashSchedule` into the
  same injector; with ``kill_service`` the exhausted retry budget is
  escalated to :class:`ServiceKilled`, the test seam that simulates a
  SIGKILL of the whole service process.

The function runs on a plain thread (the service wraps it in
``asyncio.to_thread``) and reports through a synchronous ``emit``
callback — loop-side delivery and backpressure are the bridge's problem,
not this module's.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping

from repro.crawler.archive import save_crawl
from repro.crawler.checkpoint import RetryPolicy
from repro.crawler.crawl import Crawl, CrawlOutcome
from repro.crawler.executor import (
    CancelFlag,
    CompositeInjector,
    CrashSchedule,
    ShardFailedError,
    ShardPlan,
    ShardResult,
)
from repro.obs import MetricsRegistry, MetricsSnapshot, SpanRecorder, Telemetry
from repro.obs.bridge import VisitProgressListener
from repro.service.events import EVENT_SHARD_PROGRESS, EVENT_SHARD_RESULT
from repro.service.jobs import JobSpec

if TYPE_CHECKING:
    from repro.web.generator import SyntheticWeb

#: Synchronous event sink: ``emit(kind, payload)``; called from worker
#: threads, expected to block until the event is accepted loop-side.
EmitFn = Callable[[str, Mapping], None]


class ServiceKilled(RuntimeError):
    """Fault drill: the service process 'died' mid-job (simulated SIGKILL).

    Raised when an armed :class:`~repro.service.jobs.FaultSpec` with
    ``kill_service`` exhausts a shard's retry budget.  The service
    reacts by abandoning the job *without* updating its durable record —
    leaving on-disk state exactly as a real kill would — so restart
    tests exercise the same resume path a production crash would.
    """


@dataclass(frozen=True)
class JobPaths:
    """Filesystem layout of one job's directory."""

    root: Path

    @property
    def checkpoints(self) -> Path:
        return self.root / "checkpoints"

    @property
    def archive(self) -> Path:
        return self.root / "archive"

    @property
    def cancel_flag(self) -> Path:
        return self.root / "CANCEL"


@dataclass
class JobRunResult:
    """What a finished job hands back to the service."""

    archive_dir: Path
    summary: dict
    metrics: MetricsSnapshot
    outcome: CrawlOutcome


def shard_result_payload(plan: ShardPlan, result: ShardResult) -> dict:
    """The incremental ``shard-result`` event body for one finished shard.

    Carries the shard's Before-Accept rows **rebased to global ranks** —
    the exact JSONL lines this shard contributes to the archive's
    ``d_ba.jsonl`` — so a streaming consumer can reassemble the batch
    dataset without waiting for the merge.
    """
    report = result.report
    return {
        "shard": plan.shard_index,
        "rank_offset": plan.rank_offset,
        "domains": len(plan.domains),
        "ok": report.ok,
        "accepted": report.accepted,
        "retries": len(result.retries),
        "resumed_from": result.resumed_from,
        "d_ba": list(result.d_ba.iter_lines(plan.rank_offset)),
    }


def _fault_injector(spec: JobSpec, paths: JobPaths):
    """Compose the cancel poll with any armed crash schedule (picklable)."""
    cancel = CancelFlag(str(paths.cancel_flag))
    fault = spec.fault
    if fault is None or not fault.points:
        return cancel
    return CompositeInjector(
        (cancel, CrashSchedule(fault.shard_index, fault.points))
    )


def summarise(outcome: CrawlOutcome) -> dict:
    """The report digest stored on the job record and in ``job-done``."""
    report = outcome.result.report
    return {
        "targets": report.targets,
        "ok": report.ok,
        "accepted": report.accepted,
        "accept_rate": report.accept_rate,
        "d_ba_rows": len(outcome.result.d_ba),
        "d_aa_rows": len(outcome.result.d_aa),
        "retries": len(outcome.retries),
        "resumed_shards": list(outcome.resumed_shards),
    }


def run_job(
    spec: JobSpec,
    paths: JobPaths,
    world: "SyntheticWeb",
    emit: EmitFn,
    *,
    resume: bool,
    backend: str | None = None,
    max_workers: int | None = None,
) -> JobRunResult:
    """Run one campaign to its archive, streaming progress through ``emit``.

    Blocking; raises :class:`~repro.crawler.executor.JobCancelled` when
    the cancel flag stops the shards, :class:`ServiceKilled` when an
    armed kill-service fault fires, and whatever the crawl stack raises
    for genuine failures.  ``backend``/``max_workers`` are service-level
    defaults; the spec's own values win.
    """
    # Metrics always; spans only to drive streamed progress.
    metrics = MetricsRegistry()
    telemetry = Telemetry(metrics=metrics)
    shard_listener = None
    if spec.stream_results:
        progress = VisitProgressListener(
            lambda shard, completed, visits: emit(
                EVENT_SHARD_PROGRESS,
                {"shard": shard, "completed": completed, "visits": visits},
            ),
            every=spec.progress_every,
        )
        telemetry = Telemetry(metrics=metrics, spans=SpanRecorder(listener=progress))

        def shard_listener(plan: ShardPlan, result: ShardResult) -> None:
            emit(EVENT_SHARD_RESULT, shard_result_payload(plan, result))

    crawl = Crawl(
        world,
        paths.checkpoints,
        shard_count=spec.shards,
        checkpoint_every=spec.checkpoint_every,
        corrupt_allowlist=spec.corrupt_allowlist,
        max_workers=spec.max_workers or max_workers,
        backend=spec.backend or backend,
        limit=spec.limit,
        resume=resume,
        retry_policy=RetryPolicy(max_retries=spec.max_shard_retries),
        telemetry=telemetry,
        fault_injector=_fault_injector(spec, paths),
        shard_listener=shard_listener,
    )
    try:
        outcome = crawl.run()
    except ShardFailedError as exc:
        if spec.fault is not None and spec.fault.kill_service:
            raise ServiceKilled(
                f"simulated service kill while running shard "
                f"{exc.shard_index}"
            ) from exc
        raise
    archive_dir = save_crawl(outcome.result, paths.archive)
    return JobRunResult(
        archive_dir=archive_dir,
        summary=summarise(outcome),
        metrics=metrics.snapshot(),
        outcome=outcome,
    )
