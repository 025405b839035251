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

With instrumentation on, every shard records into its own tracer and
metrics registry (no cross-thread sharing); the merge replays shard
events into the campaign-level tracer tagged with the shard index and
folds the metric snapshots together, adding per-shard skew gauges.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.crawler import executor
from repro.crawler.campaign import CrawlReport, CrawlResult, attestation_targets
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
    ShardOutcome,
    ShardPlan,
    ShardResult,
    ShardRetryRecord,
    ShardTask,
    WorldSpec,
    outcome_from_result,
    plan_shards,
    result_from_outcome,
    run_shard_task,
)
from repro.crawler.wellknown import survey_attestations
from repro.obs import (
    EventKind,
    MetricsRegistry,
    NULL_METRICS,
    NULL_RECORDER,
    NULL_TRACER,
    SpanRecorder,
    Tracer,
)
from repro.obs.spans import SPAN_CAMPAIGN
from repro.util.executor import ExecutionBackend, create_backend, is_picklable

if TYPE_CHECKING:
    from repro.web.generator import SyntheticWeb

#: Streaming hook: called with (plan, picklable shard result) as each
#: shard completes — in completion order, before the merge runs.  The
#: crawl service hangs incremental result events off this seam.
ShardListener = Callable[[ShardPlan, ShardResult], None]


def effective_shard_count(
    requested: int, targets: int, tracer: Tracer = NULL_TRACER
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
        tracer.emit(
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
        tracer: Tracer = NULL_TRACER,
        metrics: MetricsRegistry = NULL_METRICS,
        spans: SpanRecorder = NULL_RECORDER,
        fault_injector: FaultInjector | None = None,
        shard_listener: ShardListener | None = None,
    ) -> None:
        if checkpoint_dir is None and (resume or allow_partial):
            raise ValueError(
                "resume and allow_partial need a checkpoint_dir to read from"
            )
        tranco = world.tranco if limit is None else world.tranco.top(limit)
        # Fails at construction, not at run(), on a non-positive count:
        # that is always a caller bug, and the traceback stays next to it.
        effective = effective_shard_count(shard_count, len(tranco), tracer)
        self.plans = plan_shards(tranco, effective)
        self._world = world
        self._store = (
            CheckpointStore(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self._fingerprint = (tranco.domains, effective, corrupt_allowlist)
        self._shard_count = shard_count
        self._max_workers = max_workers
        self._backend = backend
        self._tracer = tracer
        self._metrics = metrics
        self._spans = spans
        self._shard_listener = shard_listener
        self._options = {
            "checkpoint_every": checkpoint_every,
            "resume": resume,
            "corrupt_allowlist": corrupt_allowlist,
            "policy": retry_policy,
            "allow_partial": allow_partial,
            "fault_injector": fault_injector,
            "trace": tracer.enabled,
            "metrics": metrics.enabled,
            "spans": spans.enabled,
        }

    # -- orchestration --------------------------------------------------------

    def run(self) -> CrawlOutcome:
        if self._store is not None:
            self._store.initialize(campaign_fingerprint(*self._fingerprint))
        outcomes = self._execute(self._resolve_backend(len(self.plans)))
        result = self._merge(self.plans, outcomes)
        missing = [o.missing for o in outcomes if o.missing is not None]
        self._emit_recovery_accounting(outcomes, missing)
        return CrawlOutcome(
            result=result,
            retries=tuple(retry for o in outcomes for retry in o.retries),
            resumed_shards=tuple(
                plan.shard_index
                for plan, outcome in zip(self.plans, outcomes)
                if outcome.resumed_from is not None
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

    def _execute(self, backend: ExecutionBackend) -> list[ShardOutcome]:
        # Shards stream back in completion order — each one is handed to
        # the shard listener the moment it finishes — then the merge
        # consumes them in plan order, so the output stays byte-identical
        # however the scheduler interleaved the work.
        listener = self._spans.listener if self._spans.enabled else None
        if backend.name == "process":
            # Process workers share nothing: each receives a picklable
            # task, rebuilds the world, and ships plain data back.
            spec = WorldSpec.of(self._world)
            directory = None if self._store is None else str(self._store.directory)
            tasks = [
                ShardTask(spec, plan, directory, self._options)
                for plan in self.plans
            ]
            shards = (
                (index, outcome_from_result(result, span_listener=listener), result)
                for index, result in backend.stream(run_shard_task, tasks)
            )
        else:
            shards = (
                (index, outcome, None)
                for index, outcome in backend.stream(self._run_shard, self.plans)
            )
        outcomes: list[ShardOutcome | None] = [None] * len(self.plans)
        for index, outcome, result in shards:
            outcomes[index] = outcome
            if self._shard_listener is None or outcome.missing is not None:
                continue
            plan = self.plans[index]
            if result is None:
                result = result_from_outcome(plan.shard_index, outcome)
            self._shard_listener(plan, result)
        return outcomes  # type: ignore[return-value]  # every slot filled

    def _run_shard(self, plan: ShardPlan) -> ShardOutcome:
        # Looked up on the module at call time, so a wrapper installed on
        # ``executor.execute_shard`` (a host-clock profiler) sees every
        # in-process shard.
        return executor.execute_shard(
            self._world,
            plan,
            store=self._store,
            span_listener=self._spans.listener if self._spans.enabled else None,
            **self._options,
        )

    # -- merge ------------------------------------------------------------------

    def _merge(
        self, plans: list[ShardPlan], outcomes: list[ShardOutcome]
    ) -> CrawlResult:
        merged_ba = Dataset("D_BA")
        merged_aa = Dataset("D_AA")
        report = CrawlReport()
        instrumented = self._tracer.enabled or self._metrics.enabled

        for position, (plan, outcome) in enumerate(zip(plans, outcomes)):
            result = outcome.result
            # Whole-column splice with the rank rebase applied in bulk —
            # the merge never touches per-record objects.
            merged_ba.extend_rebased(result.d_ba, plan.rank_offset)
            merged_aa.extend_rebased(result.d_aa, plan.rank_offset)
            report.targets += result.report.targets
            report.ok += result.report.ok
            report.failed += result.report.failed
            report.banners_seen += result.report.banners_seen
            report.accepted += result.report.accepted
            report.retried += result.report.retried
            report.recovered += result.report.recovered
            for kind, count in result.report.failure_kinds.items():
                report.failure_kinds[kind] = (
                    report.failure_kinds.get(kind, 0) + count
                )
            # Honest campaign timestamps: the parallel campaign starts
            # when the first shard starts and finishes when the slowest
            # one does, so duration_seconds stays the wall-clock.
            if position == 0:
                report.started_at = result.report.started_at
            else:
                report.started_at = min(
                    report.started_at, result.report.started_at
                )
            report.finished_at = max(
                report.finished_at, result.report.finished_at
            )

        if instrumented:
            self._fold_instrumentation(plans, outcomes)
            self._metrics.gauge("crawl_targets", report.targets)
            self._metrics.gauge("crawl_duration_seconds", report.duration_seconds)
            self._metrics.gauge("shard_count", len(plans))

        root_id = None
        if self._spans.enabled:
            root_id = self._fold_spans(plans, outcomes, report)

        allowed = frozenset(self._world.registry.allowed_domains())
        encountered = attestation_targets(merged_ba, merged_aa, allowed)
        survey = survey_attestations(
            self._world,
            encountered,
            report.finished_at,
            tracer=self._tracer,
            metrics=self._metrics,
            spans=self._spans,
        )
        if root_id is not None:
            self._spans.exit(at=float(report.finished_at))
        return CrawlResult(
            d_ba=merged_ba,
            d_aa=merged_aa,
            report=report,
            allowed_domains=allowed,
            survey=survey,
        )

    def _fold_instrumentation(
        self, plans: list[ShardPlan], outcomes: list[ShardOutcome]
    ) -> None:
        """Fold shard tracers and metrics into the campaign-level pair.

        Shard events interleave in *time* order — sorted by
        ``(at, shard_index, seq)`` — so the merged trace reads as one
        chronological campaign rather than shard 0's full history
        followed by shard 1's.  Per-shard gauges and the ``shard-merged``
        lifecycle events follow the replayed history.
        """
        entries = []
        for plan, outcome in zip(plans, outcomes):
            for event in outcome.tracer:
                entries.append((event.at, plan.shard_index, event.seq, event))
        entries.sort(key=lambda entry: entry[:3])
        for at, shard_index, _seq, event in entries:
            self._tracer.emit(
                event.kind, at, **{**event.fields, "shard": shard_index}
            )

        for plan, outcome in zip(plans, outcomes):
            result = outcome.result
            self._metrics.absorb(outcome.metrics.snapshot())
            self._metrics.gauge(
                "shard_duration_seconds",
                result.report.duration_seconds,
                shard=plan.shard_index,
            )
            self._metrics.gauge(
                "shard_visits", result.report.ok, shard=plan.shard_index
            )
            self._tracer.emit(
                EventKind.SHARD_MERGED,
                at=result.report.finished_at,
                shard=plan.shard_index,
                ok=result.report.ok,
                failed=result.report.failed,
                accepted=result.report.accepted,
                duration_seconds=result.report.duration_seconds,
            )

    def _fold_spans(
        self,
        plans: list[ShardPlan],
        outcomes: list[ShardOutcome],
        report: CrawlReport,
    ) -> int:
        """Graft shard span trees under one campaign-level root.

        Shard spans fold sorted by ``(start, shard_index, span_id)`` —
        within a shard a parent never sorts after its child, so ids can
        be remapped in one pass.  Returns the root span id; the caller
        closes it once the merged survey has recorded its spans.
        """
        root_id = self._spans.enter(
            SPAN_CAMPAIGN,
            at=float(report.started_at),
            targets=report.targets,
            shards=len(plans),
        )
        entries = []
        for plan, outcome in zip(plans, outcomes):
            for span in outcome.spans:
                entries.append((span.start, plan.shard_index, span.span_id, span))
        entries.sort(key=lambda entry: entry[:3])
        id_map: dict[tuple[int, int], int] = {}
        for _start, shard_index, old_id, span in entries:
            parent = id_map.get((shard_index, span.parent_id), root_id)
            id_map[(shard_index, old_id)] = self._spans.adopt(
                span, parent_id=parent
            )
        return root_id

    # -- recovery accounting --------------------------------------------------

    def _emit_recovery_accounting(
        self, outcomes: list[ShardOutcome], missing: list[MissingRange]
    ) -> None:
        """Campaign-level accounting for shards that never recovered."""
        if not (self._tracer.enabled or self._metrics.enabled):
            return
        for outcome in outcomes:
            if outcome.missing is None:
                continue  # recovered shards folded their own retries
            for retry in outcome.retries:
                self._metrics.counter("shard_retries_total")
                self._metrics.counter(
                    "shard_backoff_seconds_total", retry.backoff_seconds
                )
                self._tracer.emit(
                    EventKind.SHARD_RETRIED,
                    at=0,
                    shard=retry.shard_index,
                    attempt=retry.attempt,
                    backoff_seconds=retry.backoff_seconds,
                    resumed_from=retry.resumed_from,
                    error=retry.error,
                )
        if missing:
            self._metrics.gauge(
                "crawl_missing_targets",
                sum(entry.count for entry in missing),
            )
            self._metrics.gauge("crawl_degraded_shards", len(missing))
