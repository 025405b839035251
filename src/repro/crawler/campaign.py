"""The crawl campaign: the paper's full measurement protocol.

For every domain in the ranking:

1. visit it without any consent (**Before-Accept**) and record objects +
   Topics calls into ``D_BA``;
2. run Priv-Accept on the rendered banner; on success, grant consent,
   delete the browser cache, and visit again (**After-Accept**) into
   ``D_AA``;
3. failed visits (DNS/connection errors) are counted but produce no
   record, exactly as the paper's 50,000 → 43,405 reduction.

The campaign also snapshots the enrolment allow-list (before corrupting
the browser's copy) and surveys the attestation files of every encountered
party — the inputs of Table 1's Allowed/Attested classification.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Callable

from repro.browser.browser import Browser, VisitOutcome, state_digest_of
from repro.browser.context import ScriptOriginMode
from repro.crawler.dataset import Dataset, PHASE_AFTER, PHASE_BEFORE
from repro.crawler.privaccept import BannerDetection, PrivAccept
from repro.crawler.wellknown import AttestationSurvey, survey_attestations
from repro.obs import EventKind, Telemetry
from repro.obs.spans import (
    SPAN_BANNER,
    SPAN_CAMPAIGN,
    SPAN_CHECKPOINT_RESTORE,
    SPAN_CHECKPOINT_WRITE,
    SPAN_RETRY,
    SPAN_VISIT,
)
from repro.util.codec import check_fields
from repro.util.timeline import SimClock

if TYPE_CHECKING:
    from repro.crawler.checkpoint import CheckpointStore, ShardCheckpoint
    from repro.web.generator import SyntheticWeb


@dataclass
class CrawlReport:
    """Campaign-level counters (paper §2.4's "initial findings" inputs)."""

    targets: int = 0
    ok: int = 0
    failed: int = 0
    banners_seen: int = 0
    accepted: int = 0
    started_at: int = 0
    finished_at: int = 0
    #: failure label → count (footnote 7's DNS/connection breakdown).
    failure_kinds: dict = field(default_factory=dict)
    #: retry accounting (the paper ran without retries).
    retried: int = 0
    recovered: int = 0

    @property
    def completed(self) -> int:
        """Targets done: each gets exactly one Before-Accept outcome."""
        return self.ok + self.failed

    @property
    def visits(self) -> int:
        """Page visits made: every target's Before-Accept, plus After-Accept."""
        return self.ok + self.failed + self.accepted

    @property
    def accept_rate(self) -> float:
        """Share of successfully visited sites that reached After-Accept."""
        return self.accepted / self.ok if self.ok else 0.0

    @property
    def duration_seconds(self) -> int:
        return self.finished_at - self.started_at

    def to_dict(self) -> dict:
        """Every field by name, ``failure_kinds`` copied (archive payload)."""
        data = dict(vars(self))
        data["failure_kinds"] = dict(self.failure_kinds)
        return data

    def copy(self) -> "CrawlReport":
        """An independent copy (no shared ``failure_kinds``)."""
        return CrawlReport(**self.to_dict())

    @classmethod
    def from_dict(cls, data: object) -> "CrawlReport":
        """The inverse of :meth:`to_dict`; ``ValueError`` on a bad payload.

        ``data`` must hold exactly the report's fields: integer counters
        and a ``failure_kinds`` object of integer counts.
        """
        check_fields(data, _REPORT_FIELDS)
        if {type(count) for count in data["failure_kinds"].values()} - {int}:
            raise ValueError("field 'failure_kinds' has the wrong type")
        return cls(**{**data, "failure_kinds": dict(data["failure_kinds"])})


#: Every report field is an integer counter but ``failure_kinds``.
_REPORT_FIELDS = {item.name: (int,) for item in fields(CrawlReport)} | {
    "failure_kinds": (dict,)
}

#: Progress hook: ``progress(shard, completed, visits)``, the shard's
#: :attr:`CrawlReport.completed` and :attr:`CrawlReport.visits` counts.
#: Both are absolute — a resumed or retried attempt starts from its
#: checkpoint's report — so they never exceed the shard's size.
ProgressFn = Callable[[int, int, int], None]


@dataclass
class CrawlResult:
    """Everything one campaign produces."""

    d_ba: Dataset
    d_aa: Dataset
    report: CrawlReport
    allowed_domains: frozenset[str]
    survey: AttestationSurvey


def attestation_targets(
    d_ba: Dataset, d_aa: Dataset, allowed: frozenset[str]
) -> set[str]:
    """The parties whose attestation files a campaign must survey.

    "For every first and third party we encounter" (paper §2.3): every
    third party from *both* datasets (a party may first appear only
    After-Accept, behind a consent gate), every visited and
    redirected-to first party, plus the full allow-list.  Sequential and
    sharded campaigns both build their survey from this one helper so
    the two execution modes cannot drift apart.
    """
    encountered = d_ba.unique_third_parties() | d_aa.unique_third_parties()
    encountered.update(d_ba.column("domain"))
    encountered.update(d_ba.column("final_domain"))
    encountered.update(allowed)
    return encountered


class CrawlCampaign:
    """Drives a :class:`Browser` over a world's Tranco ranking."""

    def __init__(
        self,
        world: "SyntheticWeb",
        corrupt_allowlist: bool = True,
        user_seed: int = 0,
        limit: int | None = None,
        progress: ProgressFn | None = None,
        script_origin_mode: ScriptOriginMode = ScriptOriginMode.EMBEDDER,
        retries: int = 0,
        telemetry: Telemetry = Telemetry.OFF,
        span_root: str = SPAN_CAMPAIGN,
        survey: bool = True,
        shard_index: int = 0,
        checkpoint_store: "CheckpointStore | None" = None,
        checkpoint_every: int | None = None,
        resume_from: "ShardCheckpoint | None" = None,
        fault_hook: Callable[[int, str], None] | None = None,
    ) -> None:
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        if resume_from is not None and checkpoint_store is None:
            raise ValueError("resume_from requires a checkpoint_store")
        self._world = world
        self._corrupt_allowlist = corrupt_allowlist
        self._user_seed = user_seed
        self._limit = limit
        # Called once per target, as its Before-Accept leg closes.
        self._progress = progress
        self._script_origin_mode = script_origin_mode
        self._retries = retries
        self._privaccept = PrivAccept()
        # Unpacked once: the per-target loop reads the handles directly.
        self._telemetry = telemetry
        self._recorder = telemetry.recorder
        self._metrics = telemetry.metrics
        # Sharded runs name their per-shard root "shard"; the merge then
        # grafts the shard trees under one campaign-level root.
        self._span_root = span_root
        # Shard campaigns skip the survey: the merge rebuilds it over the
        # full campaign's encountered set (per-shard surveys would be
        # discarded — and double-count the attestation metrics).
        self._survey = survey
        self._shard_index = shard_index
        self._checkpoint_store = checkpoint_store
        # Checkpoint cadence is keyed to the absolute position in the
        # ranking, so resumed runs checkpoint at the same offsets as the
        # original attempt and file names stay stable.
        self._checkpoint_every = checkpoint_every
        self._resume_from = resume_from
        # Test seam: invoked with (position, domain) before each target —
        # raising simulates a worker dying mid-campaign at that exact
        # visit offset (the resumable tests kill shards through this).
        self._fault_hook = fault_hook
        # Priv-Accept verdict memo.  Detection is a pure function of the
        # banner's clickable labels, and those come from small per-language
        # phrase pools — a campaign sees a few dozen distinct button sets
        # across thousands of banners, so keying by label tuple collapses
        # keyword matching to one scan per distinct wording.
        self._banner_detections: dict[
            tuple[str, ...] | None, BannerDetection
        ] = {}

    def run(self) -> CrawlResult:
        """Execute the full Before/After protocol."""
        world = self._world
        clock = SimClock()
        # Snapshot the healthy allow-list before (optionally) corrupting the
        # browser's database — the paper keeps the June 6 file for analysis.
        allowed = frozenset(world.registry.allowed_domains())

        recorder, metrics = self._recorder, self._metrics
        browser = Browser(
            world,
            clock=clock,
            corrupt_allowlist=self._corrupt_allowlist,
            user_seed=self._user_seed,
            script_origin_mode=self._script_origin_mode,
            telemetry=self._telemetry,
        )

        targets = list(world.tranco)
        if self._limit is not None:
            targets = targets[: self._limit]
        total = len(targets)

        d_ba = Dataset("D_BA")
        d_aa = Dataset("D_AA")
        resume = self._resume_from
        if resume is not None:
            report = self._restore_checkpoint(resume, browser, d_ba, d_aa, total)
            start_position = resume.visits_done
        else:
            report = CrawlReport(started_at=clock.now())
            start_position = 0
        report.targets = total

        recorder.enter(self._span_root, at=clock.now(), targets=total)
        if resume is not None:
            metrics.counter("checkpoint_restores_total")
            now = clock.now()
            restored = {"visits_done": resume.visits_done, "targets": total}
            recorder.twin(
                EventKind.CHECKPOINT_RESTORED,
                now,
                {"shard": self._shard_index, **restored},
                SPAN_CHECKPOINT_RESTORE,
                now,
                now,
                restored,
            )

        for position, (rank, domain) in enumerate(targets, start=1):
            if position <= start_position:
                # Already durable in the resumed checkpoint: the restored
                # browser state carries these visits' full side effects.
                continue
            if self._fault_hook is not None:
                self._fault_hook(position, domain)

            self._crawl_target(browser, clock, rank, domain, d_ba, d_aa, report)

            if (
                self._checkpoint_store is not None
                and self._checkpoint_every is not None
                and position % self._checkpoint_every == 0
                and position < total
            ):
                self._write_checkpoint(
                    browser, d_ba, d_aa, report, position, total, complete=False
                )

        report.finished_at = clock.now()
        metrics.gauge("crawl_targets", report.targets)
        metrics.gauge("crawl_duration_seconds", report.duration_seconds)

        if self._checkpoint_store is not None:
            # The final checkpoint makes a finished shard loadable without
            # re-running anything — resuming a completed campaign is a
            # pure read.
            self._write_checkpoint(
                browser, d_ba, d_aa, report, total, total, complete=True
            )

        if self._survey:
            encountered = attestation_targets(d_ba, d_aa, allowed)
            survey = survey_attestations(
                world, encountered, clock.now(), telemetry=self._telemetry
            )
        else:
            survey = AttestationSurvey(())

        recorder.exit(at=clock.now(), ok=report.failed == 0)

        return CrawlResult(
            d_ba=d_ba,
            d_aa=d_aa,
            report=report,
            allowed_domains=allowed,
            survey=survey,
        )

    def _crawl_target(
        self,
        browser: Browser,
        clock: SimClock,
        rank: int,
        domain: str,
        d_ba: Dataset,
        d_aa: Dataset,
        report: CrawlReport,
    ) -> None:
        """Run the full Before/After protocol for one ranking entry."""
        recorder, metrics = self._recorder, self._metrics
        traced = recorder.enabled

        if traced:
            recorder.enter(
                SPAN_VISIT,
                at=clock.now(),
                domain=domain,
                phase=PHASE_BEFORE,
                rank=rank,
            )
        before = browser.visit(domain)
        for attempt in range(1, self._retries + 1):
            if before.ok:
                break
            report.retried += 1
            metrics.counter("crawl_retries_total")
            if traced:
                recorder.enter(
                    SPAN_RETRY, at=clock.now(), domain=domain, attempt=attempt
                )
            before = browser.visit(domain)
            if traced:
                recorder.exit(at=clock.now(), ok=before.ok)
            if before.ok:
                report.recovered += 1
                metrics.counter("crawl_recoveries_total")
        if not before.ok:
            report.failed += 1
            report.failure_kinds[before.error] = (
                report.failure_kinds.get(before.error, 0) + 1
            )
            if metrics.enabled:
                metrics.counter(
                    "crawl_visits_total", phase=PHASE_BEFORE, outcome="failed"
                )
                metrics.counter("crawl_failures_total", kind=before.error)
            if traced:
                recorder.exit(at=clock.now(), ok=False, error=before.error)
            if self._progress is not None:
                self._progress(self._shard_index, report.completed, report.visits)
            return
        report.ok += 1

        detection = self._detect_banner(before.banner)
        if detection.banner_found:
            report.banners_seen += 1
        self._append(d_ba, rank, before, PHASE_BEFORE, detection)

        if metrics.enabled:
            metrics.counter(
                "crawl_visits_total", phase=PHASE_BEFORE, outcome="ok"
            )
            banner_result = (
                "accepted"
                if detection.accept_clicked
                else "missed" if detection.banner_found else "none"
            )
            metrics.counter("crawl_banners_total", result=banner_result)
        if traced:
            # The banner interaction happens on the rendered page, inside
            # the visit's window (the clock does not advance for it, so
            # its span is an instant); a page without a banner has none.
            now = clock.now()
            recorder.twin(
                EventKind.BANNER_INTERACTION,
                now,
                {
                    "domain": domain,
                    "banner_found": detection.banner_found,
                    "accept_clicked": detection.accept_clicked,
                    "language": detection.matched_language,
                    "keyword": detection.matched_keyword,
                },
                SPAN_BANNER,
                now,
                now,
                {"domain": domain, "accept_clicked": detection.accept_clicked}
                if detection.banner_found
                else None,
            )
            recorder.exit(at=now, ok=True)
        if self._progress is not None:
            self._progress(self._shard_index, report.completed, report.visits)

        if not detection.accept_clicked:
            # No After-Accept visit when consent could not be granted
            # (no banner, unsupported language, or keyword miss).
            return
        report.accepted += 1
        browser.consent.grant(domain)
        browser.clear_cache()
        if traced:
            recorder.enter(
                SPAN_VISIT,
                at=clock.now(),
                domain=domain,
                phase=PHASE_AFTER,
                rank=rank,
            )
        after = browser.visit(domain)
        if traced:
            recorder.exit(at=clock.now(), ok=after.ok)
        if after.ok:
            self._append(d_aa, rank, after, PHASE_AFTER, detection)
            metrics.counter(
                "crawl_visits_total", phase=PHASE_AFTER, outcome="ok"
            )

    def _restore_checkpoint(
        self,
        checkpoint: "ShardCheckpoint",
        browser: Browser,
        d_ba: Dataset,
        d_aa: Dataset,
        total: int,
    ) -> CrawlReport:
        """Rehydrate browser + datasets from a checkpoint; returns the report."""
        from repro.crawler.checkpoint import CheckpointError

        # The store is set whenever a campaign resumes (see __init__).
        where = self._checkpoint_store.directory
        if checkpoint.shard_index != self._shard_index:
            raise CheckpointError(
                where,
                None,
                f"checkpoint belongs to shard {checkpoint.shard_index}, "
                f"campaign is shard {self._shard_index}",
            )
        if checkpoint.targets != total:
            raise CheckpointError(
                where,
                None,
                f"checkpoint covers a ranking of {checkpoint.targets} targets, "
                f"campaign has {total}",
            )
        browser.restore_state(checkpoint.browser_state)
        if browser.state_digest() != checkpoint.state_digest:
            raise CheckpointError(
                where,
                None,
                "restored browser state does not reproduce the checkpoint digest",
            )
        # The datasets are fresh: splice the checkpoint's columns in.
        d_ba.buffers.extend(checkpoint.d_ba)
        d_aa.buffers.extend(checkpoint.d_aa)
        if self._metrics.enabled and checkpoint.metrics is not None:
            self._metrics.absorb(checkpoint.metrics)
        # A copy, so the restored report never aliases the checkpoint's
        # failure_kinds.
        return checkpoint.report.copy()

    def _write_checkpoint(
        self,
        browser: Browser,
        d_ba: Dataset,
        d_aa: Dataset,
        report: CrawlReport,
        position: int,
        total: int,
        complete: bool,
    ) -> None:
        """Atomically persist the shard's progress through ``position``."""
        from repro.crawler.checkpoint import ShardCheckpoint

        # Count the write before snapshotting so the counter itself is
        # durable — a resumed attempt absorbs it with the snapshot.
        self._metrics.counter("checkpoint_writes_total")
        snapshot = browser.state_snapshot()
        checkpoint = ShardCheckpoint(
            shard_index=self._shard_index,
            visits_done=position,
            targets=total,
            complete=complete,
            clock_now=browser.clock.now(),
            browser_state=snapshot,
            state_digest=state_digest_of(snapshot),
            report=report.copy(),
            d_ba=d_ba.buffers.copy(),
            d_aa=d_aa.buffers.copy(),
            metrics=self._metrics.snapshot() if self._metrics.enabled else None,
        )
        self._checkpoint_store.write(checkpoint)
        # Checkpoint writes never advance the simulated clock — the
        # browsing timeline (and thus the dataset) is identical with
        # checkpointing on or off.
        now = browser.clock.now()
        written = {"visits_done": position, "complete": complete}
        self._recorder.twin(
            EventKind.CHECKPOINT_WRITTEN,
            now,
            {"shard": self._shard_index, **written},
            SPAN_CHECKPOINT_WRITE,
            now,
            now,
            written,
        )

    def _detect_banner(self, banner) -> BannerDetection:
        key = banner.buttons() if banner is not None else None
        detection = self._banner_detections.get(key)
        if detection is None:
            detection = self._privaccept.detect_and_accept(banner)
            self._banner_detections[key] = detection
        return detection

    def _append(
        self,
        dataset: Dataset,
        rank: int,
        outcome: VisitOutcome,
        phase: str,
        detection: BannerDetection,
    ) -> None:
        """Append one dataset row column-wise — no record object built."""
        dataset.append_visit(
            rank=rank,
            domain=outcome.requested_domain,
            final_domain=outcome.final_domain,
            url=outcome.url,
            final_url=outcome.final_url,
            phase=phase,
            banner_present=detection.banner_found,
            banner_language=(
                outcome.banner.language if outcome.banner is not None else None
            ),
            accept_clicked=detection.accept_clicked,
            cmp=outcome.detected_cmp,
            third_parties=outcome.third_parties,
            api_calls=outcome.topics_calls,
        )
