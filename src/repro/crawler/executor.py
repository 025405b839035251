"""Shard execution: one executor for every shard on every backend.

:func:`execute_shard` runs one slice of the ranking to completion.  The
same function handles a fresh shard, one resumed from its newest
checkpoint and one retried after a crash; without a checkpoint store it
is a plain run whose first failure propagates.  The backend strategies
(``serial``, ``thread``, ``process``) live in :mod:`repro.util.executor`
and only decide *where* this function runs.

Because worker processes share nothing, the process backend needs every
shard input to be picklable and every shard output to travel back as
plain data:

* a :class:`ShardTask` carries the shard's :class:`ShardPlan` (rank
  slice), the executor's keyword options, the checkpoint directory and
  a :class:`WorldSpec` — the :class:`~repro.web.config.WorldConfig`
  plus a fingerprint of the ranking.  The worker **reconstructs the
  world from the deterministic generator** and verifies the
  fingerprint, so a shard can never silently crawl a different world
  than its parent planned;
* a :class:`ShardResult` carries the visit records, report counters,
  telemetry export and retry accounting back to the parent.  It is what
  :func:`execute_shard` returns on every backend, so in-process and
  worker-process shards reach the merge in one shape — one merge
  implementation, zero drift.

Reconstructed worlds are cached per worker process (keyed by
fingerprint) and worker pools are reused across runs, so repeated
campaigns over the same world pay the generator cost once per worker.
All three backends produce **byte-identical** datasets, reports and
merged traces — shards are deterministic and order-independent, and the
tests pin this across backends, including resumed-after-crash process
runs.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from repro.crawler.campaign import CrawlCampaign, CrawlReport, ProgressFn
from repro.crawler.checkpoint import (
    CheckpointError,
    CheckpointStore,
    MissingRange,
    RetryPolicy,
    ShardCheckpoint,
)
from repro.crawler.columnar import VisitBuffers
from repro.obs import EventKind, MetricsRegistry, Telemetry, TelemetryExport
from repro.obs.spans import SPAN_SHARD, SPAN_SHARD_RETRY
from repro.util.executor import contiguous_bounds
from repro.util.text import stable_digest
from repro.web.tranco import TrancoList

if TYPE_CHECKING:
    from repro.web.config import WorldConfig
    from repro.web.generator import SyntheticWeb


# -- shard planning ------------------------------------------------------------


@dataclass(frozen=True)
class ShardPlan:
    """One worker's slice of the ranking (picklable by construction)."""

    shard_index: int
    domains: tuple[str, ...]
    rank_offset: int  # rank of the first domain, minus one


def plan_shards(tranco: TrancoList, shard_count: int) -> list[ShardPlan]:
    """Partition the ranking into contiguous slices.

    Contiguity keeps each worker's page-popularity profile realistic and
    makes rank bookkeeping trivial.
    """
    if shard_count <= 0:
        raise ValueError("shard_count must be positive")
    domains = tranco.domains
    return [
        ShardPlan(shard_index=index, domains=domains[start:stop], rank_offset=start)
        for index, (start, stop) in enumerate(
            contiguous_bounds(len(domains), shard_count)
        )
    ]


class _ShardView:
    """A world view whose Tranco ranking is one shard's slice.

    Everything else delegates to the real world; campaigns only consume
    ``tranco`` plus the lookup/ecosystem surface.
    """

    def __init__(self, world: "SyntheticWeb", tranco: TrancoList) -> None:
        self._world = world
        self.tranco = tranco

    def __getattr__(self, name: str):
        return getattr(self._world, name)


# -- shard results -------------------------------------------------------------


@dataclass(frozen=True)
class ShardRetryRecord:
    """One shard restart, for the campaign's retry accounting."""

    shard_index: int
    attempt: int  # 1-based retry number
    backoff_seconds: int
    resumed_from: int  # visits_done of the checkpoint the retry started at
    error: str

    def trace_fields(self) -> dict:
        """The ``shard-retried`` trace event's payload."""
        fields = asdict(self)
        fields["shard"] = fields.pop("shard_index")
        return fields


@dataclass(frozen=True)
class ShardResult:
    """One shard's outcome as plain, picklable data.

    Datasets travel as flat :class:`VisitBuffers` columns rather than
    record-object trees: a worker's result pickles as a handful of
    primitive arrays/lists, and the parent ingests them without ever
    materialising per-visit objects.  ``telemetry`` is the shard's
    :meth:`~repro.obs.Telemetry.export`.

    A shard that exhausted its retries under ``allow_partial`` still has
    a result: its durable checkpointed prefix, with ``missing`` naming
    the global ranks it never delivered.
    """

    shard_index: int
    d_ba: VisitBuffers
    d_aa: VisitBuffers
    report: CrawlReport
    telemetry: TelemetryExport = TelemetryExport()
    retries: tuple[ShardRetryRecord, ...] = ()
    resumed_from: int | None = None  # on-disk checkpoint the first attempt used
    missing: MissingRange | None = None


class ShardFailedError(RuntimeError):
    """A shard kept dying after exhausting its retry budget."""

    def __init__(self, shard_index: int, attempts: int, cause: BaseException) -> None:
        super().__init__(
            f"shard {shard_index} failed {attempts} time(s); "
            f"last error: {cause!r} (re-run with --resume to continue from "
            "the last checkpoint, or --allow-partial to merge what exists)"
        )
        self.shard_index = shard_index
        self.attempts = attempts
        self.cause = cause

    def __reduce__(self):
        # Default exception pickling replays __init__ with the formatted
        # message as the only argument — wrong arity.  Worker processes
        # must be able to raise this across the pool boundary.
        return (type(self), (self.shard_index, self.attempts, self.cause))


#: A fault hook: called with (position, domain) before each visit.
FaultHook = Callable[[int, str], None]

#: Test seam: (shard_index, attempt) -> per-visit fault hook (or None).
FaultInjector = Callable[[int, int], "FaultHook | None"]


# -- core shard execution (shared by every backend) ----------------------------


def execute_shard(
    world: "SyntheticWeb",
    plan: ShardPlan,
    *,
    store: CheckpointStore | None = None,
    checkpoint_every: int = 500,
    resume: bool = False,
    corrupt_allowlist: bool = True,
    policy: RetryPolicy | None = None,
    allow_partial: bool = False,
    fault_injector: FaultInjector | None = None,
    telemetry: Telemetry = Telemetry.OFF,
    progress: ProgressFn | None = None,
) -> ShardResult:
    """Run one shard to completion: fresh, resumed or retried.

    Each attempt records into a private ``telemetry.child`` so workers
    never contend; the merge folds the exports deterministically.  Every
    attempt's campaign reports to ``progress`` once per target, with
    absolute counts from its (possibly restored) report.

    Without a ``store`` there is nothing to resume or retry from, so the
    first failure propagates as is.  With one, the shard checkpoints
    every ``checkpoint_every`` visits, ``resume`` starts it from its
    newest checkpoint, and a failed attempt restarts from the newest
    checkpoint after the ``policy`` backoff.  Once the retry budget is
    spent it raises :class:`ShardFailedError` — or, with
    ``allow_partial``, returns the durable prefix as a degraded outcome.
    A :class:`CheckpointError` is not a shard death and is raised as is.
    """
    policy = policy or RetryPolicy()
    retries: list[ShardRetryRecord] = []
    checkpoint = (
        store.latest(plan.shard_index) if resume and store is not None else None
    )
    resumed_from = checkpoint.visits_done if checkpoint is not None else None
    # A private ranking restores the shard's global ranks via the
    # campaign's enumerate; ranks are rebased during the merge.
    shard_world = _ShardView(world, TrancoList(plan.domains))
    while True:
        attempt = len(retries) + 1
        shard_telemetry = telemetry.child(plan.shard_index)
        shard_telemetry.recorder.event(
            EventKind.SHARD_STARTED,
            at=checkpoint.clock_now if checkpoint is not None else 0,
            shard=plan.shard_index,
            domains=len(plan.domains),
            rank_offset=plan.rank_offset,
            attempt=attempt,
            resumed_from=checkpoint.visits_done if checkpoint is not None else 0,
        )
        campaign = CrawlCampaign(
            shard_world,  # type: ignore[arg-type]  # structural stand-in
            corrupt_allowlist=corrupt_allowlist,
            user_seed=plan.shard_index,
            progress=progress,
            telemetry=shard_telemetry,
            span_root=SPAN_SHARD,
            survey=False,
            shard_index=plan.shard_index,
            checkpoint_store=store,
            checkpoint_every=checkpoint_every,
            resume_from=checkpoint,
            fault_hook=(
                fault_injector(plan.shard_index, attempt)
                if fault_injector is not None
                else None
            ),
        )
        try:
            result = campaign.run()
        except CheckpointError:
            raise  # a foreign or corrupt checkpoint reads the same on every retry
        except Exception as exc:  # noqa: BLE001 — any shard death is retryable
            if store is None:
                raise
            checkpoint = store.latest(plan.shard_index)
            if len(retries) >= policy.max_retries:
                if allow_partial:
                    return _degraded_result(
                        plan, checkpoint, retries, resumed_from, repr(exc)
                    )
                raise ShardFailedError(plan.shard_index, attempt, exc) from exc
            # Capped exponential backoff on the *simulated* retry
            # timeline: the pause is accounted for in spans/metrics but
            # never advances the shard's browsing clock, so the resumed
            # dataset stays byte-identical.
            retries.append(
                ShardRetryRecord(
                    shard_index=plan.shard_index,
                    attempt=attempt,
                    backoff_seconds=policy.backoff_seconds(attempt),
                    resumed_from=(
                        checkpoint.visits_done if checkpoint is not None else 0
                    ),
                    error=repr(exc),
                )
            )
            continue
        record_retries(shard_telemetry, retries, at=result.report.started_at)
        return ShardResult(
            shard_index=plan.shard_index,
            d_ba=result.d_ba.buffers,
            d_aa=result.d_aa.buffers,
            report=result.report,
            telemetry=shard_telemetry.export(),
            retries=tuple(retries),
            resumed_from=resumed_from,
        )


#: The resumable executor's former name.  Its only reason to exist is
#: ``perfbench/tracing.py``, which wraps it by this name under
#: ``--trace 1``; delete it once perfbench wraps ``execute_shard`` alone.
execute_resumable_shard = execute_shard


def _degraded_result(
    plan: ShardPlan,
    checkpoint: ShardCheckpoint | None,
    retries: list[ShardRetryRecord],
    resumed_from: int | None,
    error: str,
) -> ShardResult:
    """A mergeable result for a shard that gave up: its durable prefix."""
    if checkpoint is None:
        d_ba, d_aa = VisitBuffers(), VisitBuffers()
        report = CrawlReport(targets=len(plan.domains))
        visits_done = 0
    else:
        d_ba, d_aa = checkpoint.d_ba, checkpoint.d_aa
        report = checkpoint.report.copy()
        report.finished_at = checkpoint.clock_now
        visits_done = checkpoint.visits_done
    return ShardResult(
        shard_index=plan.shard_index,
        d_ba=d_ba,
        d_aa=d_aa,
        report=report,
        retries=tuple(retries),
        resumed_from=resumed_from,
        missing=MissingRange(
            shard_index=plan.shard_index,
            from_rank=plan.rank_offset + visits_done + 1,
            to_rank=plan.rank_offset + len(plan.domains),
            error=error,
        ),
    )


def record_retries(
    telemetry: Telemetry, retries: Iterable[ShardRetryRecord], at: int
) -> None:
    """Count and record shard retries at ``at``.

    A recovered shard records into its successful attempt's own bundle
    (not the shared campaign-level one) so workers never contend; the
    shard fold then merges them deterministically.  Each retry is one
    moment: a ``shard-retried`` event and a span over its backoff, on
    the retry timeline anchored at the checkpoint the retry restarted
    from.
    """
    for retry in retries:
        count_retry(telemetry.metrics, retry)
        start = float(at)
        telemetry.recorder.twin(
            EventKind.SHARD_RETRIED,
            at,
            retry.trace_fields(),
            SPAN_SHARD_RETRY,
            start,
            start + retry.backoff_seconds,
            {
                "attempt": retry.attempt,
                "backoff_seconds": retry.backoff_seconds,
                "resumed_from": retry.resumed_from,
            },
        )


def count_retry(metrics: MetricsRegistry, retry: ShardRetryRecord) -> None:
    """Count one shard retry and its backoff."""
    metrics.counter("shard_retries_total")
    metrics.counter("shard_backoff_seconds_total", retry.backoff_seconds)


# -- world reconstruction ------------------------------------------------------


class WorldReconstructionError(RuntimeError):
    """A worker-rebuilt world does not match the parent's fingerprint."""


def world_fingerprint(world: "SyntheticWeb") -> str:
    """Identity of a generated world for cross-process verification.

    The ranking is the terminal artefact of the generator's full RNG
    cascade, so fingerprinting the ordered domains (plus the seed and
    scale) detects any config or generator divergence between parent
    and worker.
    """
    config = world.config
    return "{:016x}".format(
        stable_digest(
            "world",
            str(config.seed),
            str(config.site_count),
            config.vantage.name,
            *world.tranco.domains,
        )
    )


@dataclass(frozen=True)
class WorldSpec:
    """Everything a worker process needs to rebuild the parent's world."""

    config: "WorldConfig"
    fingerprint: str

    @classmethod
    def of(cls, world: "SyntheticWeb") -> "WorldSpec":
        return cls(config=world.config, fingerprint=world_fingerprint(world))


#: Per-worker-process world cache: (fingerprint, world).  Size one — a
#: worker serves one campaign's shards at a time, and holding more than
#: the active world would pin generator-sized memory per process.
_WORKER_WORLD: tuple[str, "SyntheticWeb"] | None = None


def _world_for(spec: WorldSpec) -> "SyntheticWeb":
    """The worker-side world for ``spec``, rebuilt and verified on miss."""
    global _WORKER_WORLD
    if _WORKER_WORLD is not None and _WORKER_WORLD[0] == spec.fingerprint:
        return _WORKER_WORLD[1]
    from repro.web.generator import WebGenerator

    world = WebGenerator(spec.config).generate()
    rebuilt = world_fingerprint(world)
    if rebuilt != spec.fingerprint:
        raise WorldReconstructionError(
            f"worker rebuilt a world with fingerprint {rebuilt}, parent "
            f"expected {spec.fingerprint}; the parent world was not produced "
            "by WebGenerator(config).generate() — use the thread or serial "
            "backend for hand-modified worlds"
        )
    _WORKER_WORLD = (spec.fingerprint, world)
    return world


def worker_world(spec: WorldSpec) -> "SyntheticWeb":
    """Public worker-side world lookup for other task runners.

    The scenario sweep engine's cell tasks rebuild their base worlds
    through the same single-slot per-worker cache shard tasks use, so
    cells sharing a world configuration pay the generator once per
    worker process.
    """
    return _world_for(spec)


# -- picklable shard task ------------------------------------------------------


@dataclass(frozen=True)
class ShardTask:
    """A shard's complete, picklable execution order for a worker process.

    ``options`` are :func:`execute_shard`'s keyword arguments apart from
    the store, which the worker reopens from ``checkpoint_dir``, and the
    progress hook, which cannot cross the process boundary; its
    ``telemetry`` is a :meth:`~repro.obs.Telemetry.child` stand-in.
    """

    spec: WorldSpec
    plan: ShardPlan
    checkpoint_dir: str | None
    options: dict  # fault_injector, when set, must be picklable


def run_shard_task(task: ShardTask) -> ShardResult:
    """Worker-process entry point: rebuild the world, run the shard.

    Module-level so the spawn context can pickle it by reference; the
    per-process world cache makes repeated shards over one world pay the
    generator exactly once per worker.
    """
    store = None
    if task.checkpoint_dir is not None:
        store = CheckpointStore(task.checkpoint_dir)
    return execute_shard(
        _world_for(task.spec), task.plan, store=store, **task.options
    )


# -- deterministic, picklable fault injection (test seam) ----------------------


@dataclass(frozen=True)
class CrashSchedule:
    """A picklable fault injector: kill one shard at scheduled visits.

    ``points`` maps a 1-based attempt number to the visit position at
    which that attempt dies.  Being a module-level dataclass, it crosses
    the process-pool boundary — the seam the crash/resume tests use to
    kill shards inside worker processes.
    """

    shard_index: int
    points: tuple[tuple[int, int], ...]  # (attempt, position) pairs

    def __call__(self, shard: int, attempt: int):
        if shard != self.shard_index:
            return None
        position = dict(self.points).get(attempt)
        if position is None:
            return None
        return _CrashAt(position)


@dataclass(frozen=True)
class _CrashAt:
    position: int

    def __call__(self, position: int, domain: str) -> None:
        if position == self.position:
            raise RuntimeError(f"injected crash at visit {position}")


# -- cooperative cancellation (service seam) ------------------------------------


class JobCancelled(BaseException):
    """A campaign was cancelled from outside while shards were running.

    Deliberately a :class:`BaseException`: the resumable shard loop
    retries any ``Exception`` from its last checkpoint, but a cancelled
    shard must **stop**, not restart — cancellation flies past the retry
    machinery the way ``KeyboardInterrupt`` would.  Instances pickle, so
    a process-backend worker can raise one across the pool boundary.
    """


@dataclass(frozen=True)
class CancelFlag:
    """A picklable fault injector: stop every shard once a flag file exists.

    The service cancels a running job by *touching a file*; shard
    workers — in any thread or process — poll for it between visits
    (every ``check_every`` positions, so the hot loop pays one ``stat``
    per batch, not per visit) and raise :class:`JobCancelled`.  The
    periodic checkpoints already written stay durable and the manifest
    stays consistent, so a cancelled campaign can later be resumed or
    inspected like a crashed one.
    """

    path: str
    check_every: int = 8

    def __call__(self, shard: int, attempt: int):  # noqa: ARG002 — injector shape
        return _CancelCheck(self.path, max(self.check_every, 1))


@dataclass(frozen=True)
class _CancelCheck:
    path: str
    check_every: int

    def __call__(self, position: int, domain: str) -> None:
        if position % self.check_every == 0 or position == 1:
            if os.path.exists(self.path):
                raise JobCancelled(
                    f"cancelled before visit {position} of {domain}"
                )


@dataclass(frozen=True)
class CompositeInjector:
    """Combine fault injectors; each shard attempt runs every armed hook.

    Stays picklable as long as its members are — the service composes a
    :class:`CancelFlag` with an optional :class:`CrashSchedule` and the
    result still crosses the process-pool boundary.
    """

    injectors: tuple[object, ...]

    def __call__(self, shard: int, attempt: int):
        hooks = tuple(
            hook
            for injector in self.injectors
            if (hook := injector(shard, attempt)) is not None  # type: ignore[operator]
        )
        if not hooks:
            return None
        if len(hooks) == 1:
            return hooks[0]
        return _CompositeHook(hooks)


@dataclass(frozen=True)
class _CompositeHook:
    hooks: tuple[object, ...]

    def __call__(self, position: int, domain: str) -> None:
        for hook in self.hooks:
            hook(position, domain)  # type: ignore[operator]


