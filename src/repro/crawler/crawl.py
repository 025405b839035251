"""The crawl driver: one campaign as N shards, merged into one result.

Real measurement campaigns parallelise exactly this way — the ranking is
partitioned, each worker drives its own browser profile, and the shards'
records are merged afterwards.  Shards here are *fully deterministic and
order-independent*: every shard gets its own browser (history, cache,
consent ledger, clock) and its own user seed, so the merged datasets are
identical no matter how the executor schedules the work.  One shard is
a sequential run: its archive is byte-identical to
:class:`~repro.crawler.campaign.CrawlCampaign`'s.

*Where* shards execute is a backend choice (:mod:`repro.util.executor`):
``serial`` runs them inline, ``thread`` (the default) on a worker-thread
pool, and ``process`` in worker processes that rebuild the world from
its deterministic config.  *How* a shard runs is
:func:`repro.crawler.executor.execute_shard`, on every backend.

Given a ``checkpoint_dir``, the crawl is durable:

* every shard writes periodic atomic checkpoints
  (:mod:`repro.crawler.checkpoint`) while it crawls;
* a shard that dies is retried from its **own last checkpoint** — not
  from scratch — after capped exponential backoff on the simulated
  clock (retry pauses live on the orchestrator timeline, never the
  browsing timeline, so the dataset stays byte-identical to an
  uninterrupted run);
* a campaign killed outright is restarted with ``resume=True`` and
  picks every shard up from its newest durable checkpoint (finished
  shards load without re-running a single visit);
* with ``allow_partial=True`` a shard that exhausts its retries
  degrades gracefully: its checkpointed prefix is merged into the
  dataset and the missing global-rank ranges are named in a
  :class:`~repro.crawler.checkpoint.PartialManifest` instead of the
  whole campaign aborting.

Without one there is nothing to resume from, so there are no
checkpoints and no retries, and ``resume``/``allow_partial`` are
rejected.

The merge must reproduce what :meth:`CrawlCampaign.run` would have done
over the whole ranking: the attestation survey is built from the shared
:func:`repro.crawler.campaign.attestation_targets` helper (both datasets,
not just ``D_BA``), and the merged report keeps honest timestamps —
``started_at`` is the earliest shard start, ``finished_at`` the latest
shard finish, so ``duration_seconds`` stays the parallel wall-clock.

With telemetry on, every shard records into its own
:meth:`~repro.obs.Telemetry.child` bundle (no cross-thread sharing) and
hands back its export; the merge folds the exports into the crawl's
bundle with :meth:`~repro.obs.Telemetry.fold`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.crawler import executor
from repro.crawler.campaign import (
    CrawlReport,
    CrawlResult,
    ProgressFn,
    attestation_targets,
)
from repro.crawler.checkpoint import (
    CheckpointStore,
    MissingRange,
    PartialManifest,
    RetryPolicy,
    campaign_fingerprint,
)
from repro.crawler.dataset import Dataset
from repro.crawler.executor import (
    FaultInjector,
    ShardPlan,
    ShardResult,
    ShardRetryRecord,
    ShardTask,
    WorldSpec,
    count_retry,
    plan_shards,
    run_shard_task,
)
from repro.crawler.wellknown import survey_attestations
from repro.obs import EventKind, Telemetry
from repro.util.executor import ExecutionBackend, create_backend, is_picklable

if TYPE_CHECKING:
    from repro.web.generator import SyntheticWeb

#: Streaming hook: called with (plan, picklable shard result) as each
#: shard completes — in completion order, before the merge runs.  The
#: crawl service hangs incremental result events off this seam.
ShardListener = Callable[[ShardPlan, ShardResult], None]


def effective_shard_count(
    requested: int, targets: int, telemetry: Telemetry = Telemetry.OFF
) -> int:
    """Clamp a shard count to the number of crawl targets.

    A campaign asked to split 6 domains across 16 shards used to plan 10
    empty shards (filtered later) while still sizing its worker pool for
    16 — pure overhead.  Clamping keeps the plan layout identical (the
    remainder distribution gives the same slices either way) and records
    the adjustment as a ``shard-empty`` trace event.
    """
    if requested <= 0:
        raise ValueError(f"shard_count must be positive, got {requested}")
    effective = max(1, min(requested, targets))
    if effective < requested:
        telemetry.recorder.event(
            EventKind.SHARD_EMPTY,
            at=0,
            requested=requested,
            effective=effective,
            targets=targets,
        )
    return effective


@dataclass
class CrawlOutcome:
    """A crawl's merged result plus its recovery accounting."""

    result: CrawlResult
    retries: tuple[ShardRetryRecord, ...] = ()
    resumed_shards: tuple[int, ...] = ()  # shards revived from disk at start
    partial: PartialManifest | None = None

    @property
    def is_partial(self) -> bool:
        return self.partial is not None and bool(self.partial.missing)


class Crawl:
    """A campaign run as shards, with durable progress given a store.

    ``plans`` is the shard layout :meth:`run` crawls: the first ``limit``
    ranked domains, split into at most ``shard_count`` contiguous slices.
    ``progress`` hears from every in-process shard's campaign once per
    target, and once more per shard with its final counts as the shard
    completes — the only call a process-backend shard makes.
    """

    def __init__(
        self,
        world: "SyntheticWeb",
        checkpoint_dir: str | Path | None = None,
        shard_count: int = 4,
        checkpoint_every: int = 500,
        corrupt_allowlist: bool = True,
        max_workers: int | None = None,
        backend: "str | ExecutionBackend | None" = None,
        limit: int | None = None,
        resume: bool = False,
        allow_partial: bool = False,
        retry_policy: RetryPolicy | None = None,
        telemetry: Telemetry = Telemetry.OFF,
        fault_injector: FaultInjector | None = None,
        shard_listener: ShardListener | None = None,
        progress: ProgressFn | None = None,
    ) -> None:
        if checkpoint_dir is None and (resume or allow_partial):
            raise ValueError(
                "resume and allow_partial need a checkpoint_dir to read from"
            )
        tranco = world.tranco if limit is None else world.tranco.top(limit)
        # Fails at construction, not at run(), on a non-positive count:
        # that is always a caller bug, and the traceback stays next to it.
        effective = effective_shard_count(shard_count, len(tranco), telemetry)
        self.plans = plan_shards(tranco, effective)
        self._world = world
        self._store = (
            CheckpointStore(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self._fingerprint = (tranco.domains, effective, corrupt_allowlist)
        self._shard_count = shard_count
        self._max_workers = max_workers
        self._backend = backend
        self._telemetry = telemetry
        self._shard_listener = shard_listener
        self._progress = progress
        self._options = {
            "checkpoint_every": checkpoint_every,
            "resume": resume,
            "corrupt_allowlist": corrupt_allowlist,
            "policy": retry_policy,
            "allow_partial": allow_partial,
            "fault_injector": fault_injector,
            "telemetry": telemetry.child(),
        }

    # -- orchestration --------------------------------------------------------

    def run(self) -> CrawlOutcome:
        if self._store is not None:
            self._store.initialize(campaign_fingerprint(*self._fingerprint))
        shards = self._execute(self._resolve_backend(len(self.plans)))
        result = self._merge(self.plans, shards)
        missing = [s.missing for s in shards if s.missing is not None]
        self._emit_recovery_accounting(shards, missing)
        return CrawlOutcome(
            result=result,
            retries=tuple(retry for s in shards for retry in s.retries),
            resumed_shards=tuple(
                plan.shard_index
                for plan, shard in zip(self.plans, shards)
                if shard.resumed_from is not None
            ),
            partial=PartialManifest(missing=missing) if missing else None,
        )

    def _resolve_backend(self, plan_count: int) -> ExecutionBackend:
        workers = min(
            self._max_workers or self._shard_count, max(plan_count, 1)
        )
        backend = create_backend(self._backend, workers)
        injector = self._options["fault_injector"]
        if (
            backend.name == "process"
            and injector is not None
            and not is_picklable(injector)
        ):
            # Closures cannot cross the process-pool boundary; running
            # the campaign beats crashing it.  Picklable injectors
            # (CrashSchedule) keep the process backend.
            return create_backend("thread", workers)
        return backend

    def _execute(self, backend: ExecutionBackend) -> list[ShardResult]:
        # Shards stream back in completion order — each one is handed to
        # the shard listener the moment it finishes — then the merge
        # consumes them in plan order, so the output stays byte-identical
        # however the scheduler interleaved the work.
        if backend.name == "process":
            # Process workers share nothing: each receives a picklable
            # task, rebuilds the world, and ships plain data back.
            spec = WorldSpec.of(self._world)
            directory = None if self._store is None else str(self._store.directory)
            tasks = [
                ShardTask(spec, plan, directory, self._options)
                for plan in self.plans
            ]
            stream = backend.stream(run_shard_task, tasks)
        else:
            stream = backend.stream(self._run_shard, self.plans)
        results: list[ShardResult | None] = [None] * len(self.plans)
        for index, result in stream:
            results[index] = result
            if self._progress is not None:
                # The shard's final counts: all a process worker can
                # report, and the last target's After-Accept visit for
                # in-process shards, whose campaigns reported live.
                report = result.report
                self._progress(result.shard_index, report.completed, report.visits)
            if self._shard_listener is not None and result.missing is None:
                self._shard_listener(self.plans[index], result)
        return results  # type: ignore[return-value]  # every slot filled

    def _run_shard(self, plan: ShardPlan) -> ShardResult:
        # Looked up on the module at call time, so a wrapper installed on
        # ``executor.execute_shard`` (a host-clock profiler) sees every
        # in-process shard.
        return executor.execute_shard(
            self._world,
            plan,
            store=self._store,
            progress=self._progress,
            **self._options,
        )

    # -- merge ------------------------------------------------------------------

    def _merge(
        self, plans: list[ShardPlan], shards: list[ShardResult]
    ) -> CrawlResult:
        merged_ba = Dataset("D_BA")
        merged_aa = Dataset("D_AA")
        report = CrawlReport()

        for plan, shard in zip(plans, shards):
            # Whole-column splice with the rank rebase applied in bulk —
            # the merge never touches per-record objects.
            merged_ba.extend_rebased(
                Dataset.from_buffers("D_BA", shard.d_ba), plan.rank_offset
            )
            merged_aa.extend_rebased(
                Dataset.from_buffers("D_AA", shard.d_aa), plan.rank_offset
            )
            report.targets += shard.report.targets
            report.ok += shard.report.ok
            report.failed += shard.report.failed
            report.banners_seen += shard.report.banners_seen
            report.accepted += shard.report.accepted
            report.retried += shard.report.retried
            report.recovered += shard.report.recovered
            for kind, count in shard.report.failure_kinds.items():
                report.failure_kinds[kind] = (
                    report.failure_kinds.get(kind, 0) + count
                )
        # Honest campaign timestamps: the parallel campaign starts when
        # the first shard starts and finishes when the slowest one does,
        # so duration_seconds stays the wall-clock.
        reports = [shard.report for shard in shards]
        report.started_at = min((r.started_at for r in reports), default=0)
        report.finished_at = max((r.finished_at for r in reports), default=0)

        telemetry = self._telemetry
        telemetry.fold(
            [
                (plan.shard_index, shard.report, shard.telemetry)
                for plan, shard in zip(plans, shards)
            ],
            report,
        )
        allowed = frozenset(self._world.registry.allowed_domains())
        encountered = attestation_targets(merged_ba, merged_aa, allowed)
        survey = survey_attestations(
            self._world, encountered, report.finished_at, telemetry=telemetry
        )
        # Close the campaign root the fold opened.
        telemetry.recorder.exit(at=float(report.finished_at))
        return CrawlResult(
            d_ba=merged_ba,
            d_aa=merged_aa,
            report=report,
            allowed_domains=allowed,
            survey=survey,
        )

    # -- recovery accounting --------------------------------------------------

    def _emit_recovery_accounting(
        self, shards: list[ShardResult], missing: list[MissingRange]
    ) -> None:
        """Campaign-level accounting for shards that never recovered.

        Recovered shards folded their own retries.  An unrecovered
        shard's retries trace their events and record no span: the
        campaign root span is already closed.
        """
        metrics = self._telemetry.metrics
        for shard in shards:
            if shard.missing is not None:
                for retry in shard.retries:
                    count_retry(metrics, retry)
                    self._telemetry.recorder.event(
                        EventKind.SHARD_RETRIED, 0, **retry.trace_fields()
                    )
        if missing:
            metrics.gauge(
                "crawl_missing_targets",
                sum(entry.count for entry in missing),
            )
            metrics.gauge("crawl_degraded_shards", len(missing))
