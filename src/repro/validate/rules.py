"""The invariant catalogue: named rules over a campaign's artefacts.

Each rule audits one cross-artifact invariant and yields structured
violations.  The catalogue covers the paper-level properties the analyses
silently assume — a successful call under enrolment gating implies an
Allowed caller (so every §4 anomalous call traces back to the corrupted
database), questionable usage lives strictly Before-Accept, every
site-fraction the figures plot is a genuine fraction, taxonomy lookups
resolve, and per-shard checkpoints partition the Tranco slice — plus the
bookkeeping identities that tie report counters, trace events and metric
series to the dataset rows they describe.

Adding a rule::

    @rule(
        "my-invariant",
        "one-line description",
        requires={ARTIFACT_DATASETS},
    )
    def _my_invariant(artifacts: CrawlArtifacts) -> Iterator[Finding]:
        if something_wrong:
            yield fail("what is wrong", domain="example.com")

The engine skips rules whose ``requires`` set is not satisfied by the
archive (e.g. trace rules on an uninstrumented campaign) and wraps every
yielded finding into a :class:`Violation` carrying the rule's name and
severity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.analysis.anomalous import anomalous_calls
from repro.analysis.pervasiveness import legitimate_callers, share_of_sites_with_call
from repro.analysis.questionable import questionable_calls_by_cp
from repro.attestation.allowlist import GatingDecision
from repro.browser.topics.selection import EPOCHS_PER_CALL
from repro.crawler.campaign import attestation_targets
from repro.crawler.dataset import PHASE_AFTER, PHASE_BEFORE
from repro.validate.artifacts import (
    ARTIFACT_ALLOWLIST,
    ARTIFACT_CHECKPOINTS,
    ARTIFACT_DATASETS,
    ARTIFACT_METRICS,
    ARTIFACT_PARTIAL,
    ARTIFACT_REPORT,
    ARTIFACT_SURVEY,
    ARTIFACT_TAXONOMY,
    ARTIFACT_TRACE,
    CrawlArtifacts,
)


class Severity(enum.Enum):
    """How bad a violated rule is."""

    ERROR = "error"  # the archive is internally inconsistent
    WARNING = "warning"  # suspicious, but analyses remain well-defined


@dataclass(frozen=True)
class Violation:
    """One structured finding of one rule."""

    rule: str
    severity: Severity
    message: str
    context: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "context": self.context,
        }


#: What a rule's check yields: a message, or a (message, context) pair.
Finding = "str | tuple[str, dict]"


def fail(message: str, **context) -> tuple[str, dict]:
    """Build one finding with structured context."""
    return message, context


@dataclass(frozen=True)
class Rule:
    """One named invariant over a campaign's artefacts."""

    name: str
    description: str
    severity: Severity
    requires: frozenset[str]
    check: Callable[[CrawlArtifacts], Iterable]

    def applicable(self, available: frozenset[str]) -> bool:
        return self.requires <= available

    def run(self, artifacts: CrawlArtifacts) -> list[Violation]:
        violations = []
        for finding in self.check(artifacts):
            if isinstance(finding, tuple):
                message, context = finding
            else:
                message, context = str(finding), {}
            violations.append(
                Violation(
                    rule=self.name,
                    severity=self.severity,
                    message=message,
                    context=context,
                )
            )
        return violations


#: Every registered rule, keyed by name.
RULE_REGISTRY: dict[str, Rule] = {}


def rule(
    name: str,
    description: str,
    severity: Severity = Severity.ERROR,
    requires: Iterable[str] = (ARTIFACT_DATASETS,),
):
    """Register a check function as a named rule."""

    def decorator(check: Callable[[CrawlArtifacts], Iterable]) -> Rule:
        if name in RULE_REGISTRY:
            raise ValueError(f"duplicate rule name {name!r}")
        registered = Rule(
            name=name,
            description=description,
            severity=severity,
            requires=frozenset(requires),
            check=check,
        )
        RULE_REGISTRY[name] = registered
        return registered

    return decorator


# -- report <-> dataset bookkeeping --------------------------------------------


@rule(
    "report-accounting",
    "report counters agree with each other and with the dataset row counts",
    requires={ARTIFACT_REPORT, ARTIFACT_DATASETS},
)
def _report_accounting(a: CrawlArtifacts) -> Iterator:
    report = a.result.report
    missing = a.partial.missing_targets if a.partial is not None else 0
    accounted = report.ok + report.failed + missing
    if accounted != report.targets:
        yield fail(
            f"ok ({report.ok}) + failed ({report.failed}) + missing ({missing}) "
            f"= {accounted}, expected targets ({report.targets})",
            ok=report.ok,
            failed=report.failed,
            missing=missing,
            targets=report.targets,
        )
    if len(a.result.d_ba) != report.ok:
        yield fail(
            f"D_BA has {len(a.result.d_ba)} rows but the report counts "
            f"{report.ok} successful Before-Accept visits",
            d_ba_rows=len(a.result.d_ba),
            ok=report.ok,
        )
    if len(a.result.d_aa) > report.accepted:
        yield fail(
            f"D_AA has {len(a.result.d_aa)} rows but only {report.accepted} "
            "banners were accepted",
            d_aa_rows=len(a.result.d_aa),
            accepted=report.accepted,
        )
    if not (report.accepted <= report.banners_seen <= report.ok):
        yield fail(
            f"expected accepted ({report.accepted}) <= banners_seen "
            f"({report.banners_seen}) <= ok ({report.ok})",
            accepted=report.accepted,
            banners_seen=report.banners_seen,
            ok=report.ok,
        )
    kinds_total = sum(report.failure_kinds.values())
    if kinds_total != report.failed:
        yield fail(
            f"failure_kinds sums to {kinds_total}, report counts "
            f"{report.failed} failures",
            failure_kinds=dict(report.failure_kinds),
            failed=report.failed,
        )
    if report.recovered > report.retried:
        yield fail(
            f"recovered ({report.recovered}) exceeds retried ({report.retried})",
            recovered=report.recovered,
            retried=report.retried,
        )
    if report.started_at > report.finished_at:
        yield fail(
            f"started_at ({report.started_at}) is after finished_at "
            f"({report.finished_at})",
            started_at=report.started_at,
            finished_at=report.finished_at,
        )


@rule(
    "rank-partition",
    "dataset ranks are unique and cover only the campaign's Tranco slice",
    requires={ARTIFACT_REPORT, ARTIFACT_DATASETS},
)
def _rank_partition(a: CrawlArtifacts) -> Iterator:
    targets = a.result.report.targets
    d_ba, d_aa = a.result.d_ba, a.result.d_aa
    seen: dict[int, str] = {}
    for rank, domain in zip(d_ba.column("rank"), d_ba.column("domain")):
        if rank in seen:
            yield fail(
                f"rank {rank} assigned to both {seen[rank]!r} and {domain!r}",
                rank=rank,
                domains=[seen[rank], domain],
            )
        seen[rank] = domain
        if not 1 <= rank <= targets:
            yield fail(
                f"D_BA rank {rank} ({domain!r}) is outside "
                f"the campaign slice [1, {targets}]",
                rank=rank,
                domain=domain,
                targets=targets,
            )
    for rank, domain in zip(d_aa.column("rank"), d_aa.column("domain")):
        if seen.get(rank) != domain:
            yield fail(
                f"D_AA rank {rank} ({domain!r}) does not match "
                "any Before-Accept visit",
                rank=rank,
                domain=domain,
            )


@rule(
    "after-accept-subset",
    "every After-Accept row descends from an accepted Before-Accept visit",
    requires={ARTIFACT_DATASETS},
)
def _after_accept_subset(a: CrawlArtifacts) -> Iterator:
    d_ba, d_aa = a.result.d_ba, a.result.d_aa
    ba_domains = d_ba.column("domain")
    accepted = {
        domain
        for domain, clicked in zip(ba_domains, d_ba.column("accept_clicked"))
        if clicked
    }
    for domain, phase in zip(ba_domains, d_ba.column("phase")):
        if phase != PHASE_BEFORE:
            yield fail(
                f"D_BA row {domain!r} carries phase {phase!r}",
                domain=domain,
                phase=phase,
            )
    for domain, phase in zip(d_aa.column("domain"), d_aa.column("phase")):
        if phase != PHASE_AFTER:
            yield fail(
                f"D_AA row {domain!r} carries phase {phase!r}",
                domain=domain,
                phase=phase,
            )
        if domain not in accepted:
            yield fail(
                f"D_AA visits {domain!r} but no accepted Before-Accept "
                "visit exists for it",
                domain=domain,
            )


# -- gating and the paper-level call invariants --------------------------------


@rule(
    "gating-decisions",
    "every call's gating decision resolves and blocked calls return no topics",
    requires={ARTIFACT_DATASETS},
)
def _gating_decisions(a: CrawlArtifacts) -> Iterator:
    for dataset in (a.result.d_ba, a.result.d_aa):
        for domain, caller, decision, topics_returned in dataset.call_values(
            "domain", "caller", "decision", "topics_returned"
        ):
            try:
                gating = GatingDecision(decision)
            except ValueError:
                yield fail(
                    f"{dataset.name} call by {caller!r} on "
                    f"{domain!r} has unknown decision {decision!r}",
                    dataset=dataset.name,
                    caller=caller,
                    domain=domain,
                    decision=decision,
                )
                continue
            if not gating.allowed and topics_returned != 0:
                yield fail(
                    f"blocked call by {caller!r} on {domain!r} "
                    f"returned {topics_returned} topics",
                    dataset=dataset.name,
                    caller=caller,
                    domain=domain,
                    topics_returned=topics_returned,
                )


@rule(
    "anomalous-not-allowed",
    "under healthy gating only Allowed callers succeed — every anomalous "
    "call must ride the database-corrupt decision",
    requires={ARTIFACT_DATASETS, ARTIFACT_ALLOWLIST},
)
def _anomalous_not_allowed(a: CrawlArtifacts) -> Iterator:
    allowed = a.result.allowed_domains
    for dataset in (a.result.d_ba, a.result.d_aa):
        for domain, caller, decision in dataset.call_values(
            "domain", "caller", "decision"
        ):
            try:
                gating = GatingDecision(decision)
            except ValueError:
                continue  # gating-decisions reports these
            if gating is GatingDecision.ALLOWED_ENROLLED and caller not in allowed:
                yield fail(
                    f"{caller!r} is not on the allow-list yet its call on "
                    f"{domain!r} was decided allowed-enrolled",
                    dataset=dataset.name,
                    caller=caller,
                    domain=domain,
                )
            if gating is GatingDecision.BLOCKED_NOT_ENROLLED and caller in allowed:
                yield fail(
                    f"{caller!r} is on the allow-list yet its call on "
                    f"{domain!r} was blocked as not enrolled",
                    dataset=dataset.name,
                    caller=caller,
                    domain=domain,
                )


@rule(
    "questionable-before-accept",
    "questionable usage lives strictly Before-Accept: legitimate CPs, "
    "sites with D_BA calls, and per-site call timelines that precede consent",
    requires={ARTIFACT_DATASETS, ARTIFACT_ALLOWLIST, ARTIFACT_SURVEY},
)
def _questionable_before_accept(a: CrawlArtifacts) -> Iterator:
    result = a.result
    legit = legitimate_callers(result.allowed_domains, result.survey)
    questionable = questionable_calls_by_cp(
        result.d_ba, result.allowed_domains, result.survey
    )
    ba_sites = result.d_ba.sites_with_calls()
    for caller, sites in questionable.items():
        if caller not in legit:
            yield fail(
                f"questionable CP {caller!r} is not Allowed & Attested",
                caller=caller,
            )
        stray = sites - ba_sites
        if stray:
            yield fail(
                f"questionable CP {caller!r} is charged with sites that have "
                f"no Before-Accept call: {sorted(stray)}",
                caller=caller,
                sites=sorted(stray),
            )
    # The same site's Before-Accept calls must all pre-date its
    # After-Accept calls — consent cannot leak backwards in time.
    ba_domains = result.d_ba.column("domain")
    last_before = {
        ba_domains[index]: max(times)
        for index, times in result.d_ba.calls_by_row("at")
    }
    aa_domains = result.d_aa.column("domain")
    for index, times in result.d_aa.calls_by_row("at"):
        domain = aa_domains[index]
        first_after = min(times)
        boundary = last_before.get(domain)
        if boundary is not None and boundary > first_after:
            yield fail(
                f"{domain!r} has a Before-Accept call at {boundary} "
                f"after its first After-Accept call at {first_after}",
                domain=domain,
                last_before=boundary,
                first_after=first_after,
            )


@rule(
    "fraction-bounds",
    "every fraction the analyses report is within [0, 1]",
    requires={
        ARTIFACT_REPORT,
        ARTIFACT_DATASETS,
        ARTIFACT_ALLOWLIST,
        ARTIFACT_SURVEY,
    },
)
def _fraction_bounds(a: CrawlArtifacts) -> Iterator:
    result = a.result
    report = result.report

    def check(name: str, value: float, **context) -> Iterator:
        if not 0.0 <= value <= 1.0:
            yield fail(
                f"{name} is {value:.4f}, outside [0, 1]", value=value, **context
            )

    yield from check("accept_rate", report.accept_rate)
    yield from check(
        "share_of_sites_with_call", share_of_sites_with_call(result.d_aa)
    )

    anomalous = anomalous_calls(
        result.d_aa, result.allowed_domains, result.survey
    )
    sites = {record.domain for record, _ in anomalous}
    if sites:
        # all_by_domain: repeat-visit campaigns hold several records per
        # domain, and GTM presence on any of them counts the site.
        gtm_sites = sum(
            1
            for domain in sites
            if any(
                "googletagmanager.com" in record.third_parties
                for record in result.d_aa.all_by_domain(domain)
            )
        )
        yield from check("gtm_site_fraction", gtm_sites / len(sites))
    if anomalous:
        javascript = sum(
            1 for _, call in anomalous if call.call_type == "javascript"
        )
        yield from check("javascript_fraction", javascript / len(anomalous))

    # Figure 5's bars as site-fractions of the crawled population.
    population = len(result.d_ba)
    if population:
        for caller, sites_called in questionable_calls_by_cp(
            result.d_ba, result.allowed_domains, result.survey
        ).items():
            yield from check(
                f"questionable site-fraction of {caller!r}",
                len(sites_called) / population,
                caller=caller,
            )


@rule(
    "taxonomy-resolves",
    "the taxonomy under audit constructs and per-call topic counts fit the "
    "epochs-per-call bound",
    requires={ARTIFACT_DATASETS, ARTIFACT_TAXONOMY},
)
def _taxonomy_resolves(a: CrawlArtifacts) -> Iterator:
    try:
        tree = a.taxonomy()
    except ValueError as exc:
        yield fail(f"taxonomy does not construct: {exc}", error=str(exc))
        tree = None
    if tree is not None and len(tree) == 0:
        yield fail("taxonomy is empty")
    for dataset in (a.result.d_ba, a.result.d_aa):
        for domain, caller, topics_returned in dataset.call_values(
            "domain", "caller", "topics_returned"
        ):
            if not 0 <= topics_returned <= EPOCHS_PER_CALL:
                yield fail(
                    f"call by {caller!r} on {domain!r} returned "
                    f"{topics_returned} topics; the API returns at most "
                    f"one per epoch ({EPOCHS_PER_CALL})",
                    dataset=dataset.name,
                    caller=caller,
                    domain=domain,
                    topics_returned=topics_returned,
                )


# -- survey coverage -----------------------------------------------------------


@rule(
    "survey-coverage",
    "the attestation survey covers exactly the encountered parties and "
    "every probe is internally consistent",
    requires={ARTIFACT_DATASETS, ARTIFACT_ALLOWLIST, ARTIFACT_SURVEY},
)
def _survey_coverage(a: CrawlArtifacts) -> Iterator:
    result = a.result
    expected = attestation_targets(
        result.d_ba, result.d_aa, result.allowed_domains
    )
    surveyed = {
        domain for domain in expected if domain in result.survey
    }
    dropped = sorted(expected - surveyed)
    for domain in dropped[:20]:
        yield fail(
            f"encountered party {domain!r} is missing from the attestation "
            "survey",
            domain=domain,
        )
    if len(dropped) > 20:
        yield fail(
            f"... and {len(dropped) - 20} more encountered parties missing "
            "from the survey",
            missing=len(dropped) - 20,
        )
    # An absent row is neither served nor valid, so only the other rows
    # can be valid without being served.
    unexpected = result.survey.unexpected(expected)
    unserved = {
        probe.domain
        for probe in result.survey.nonabsent_probes()
        if probe.valid and not probe.served
    }
    for domain in sorted(unexpected | unserved):
        if domain in unexpected:
            yield fail(
                f"survey probes {domain!r}, which the campaign never "
                "encountered",
                domain=domain,
            )
        if domain in unserved:
            yield fail(
                f"probe of {domain!r} is valid but was never served",
                domain=domain,
            )


# -- instrumentation cross-checks ----------------------------------------------


@rule(
    "trace-consistency",
    "trace bookkeeping holds and (for drop-free traces) event counts match "
    "the report and datasets",
    requires={ARTIFACT_TRACE, ARTIFACT_REPORT, ARTIFACT_DATASETS},
)
def _trace_consistency(a: CrawlArtifacts) -> Iterator:
    events = a.trace_events or ()
    meta = a.trace_meta
    if meta is None:
        yield fail("trace file has no meta line")
        return
    if meta.emitted != meta.dropped + len(events):
        yield fail(
            f"meta says {meta.emitted} events emitted and {meta.dropped} "
            f"dropped, but the file holds {len(events)} events",
            emitted=meta.emitted,
            dropped=meta.dropped,
            buffered=len(events),
        )
    if meta.dropped:
        return  # a lossy ring buffer voids the count equalities below
    counts: dict[str, int] = {}
    for event in events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    report = a.result.report
    dataset_calls = a.result.d_ba.call_count() + a.result.d_aa.call_count()
    expectations = (
        ("banner-interaction", report.ok),
        ("topics-call", dataset_calls),
        ("attestation-fetch", len(a.result.survey)),
    )
    for kind, expected in expectations:
        actual = counts.get(kind, 0)
        if actual != expected:
            yield fail(
                f"trace holds {actual} {kind!r} events, expected {expected}",
                kind=kind,
                actual=actual,
                expected=expected,
            )


@rule(
    "trace-drop-free",
    "the exported trace lost no events to the ring buffer",
    severity=Severity.WARNING,
    requires={ARTIFACT_TRACE},
)
def _trace_drop_free(a: CrawlArtifacts) -> Iterator:
    meta = a.trace_meta
    if meta is not None and meta.dropped:
        yield fail(
            f"ring buffer dropped {meta.dropped} of {meta.emitted} events "
            f"(capacity {meta.capacity}); counts below the drop horizon are "
            "not auditable",
            dropped=meta.dropped,
            emitted=meta.emitted,
            capacity=meta.capacity,
        )


@rule(
    "metrics-consistency",
    "metric counters agree with the report, datasets and survey",
    requires={
        ARTIFACT_METRICS,
        ARTIFACT_REPORT,
        ARTIFACT_DATASETS,
        ARTIFACT_SURVEY,
    },
)
def _metrics_consistency(a: CrawlArtifacts) -> Iterator:
    snapshot = a.metrics
    report = a.result.report
    equalities = (
        (
            "crawl_visits_total{phase=before-accept,outcome=ok}",
            snapshot.counter_value(
                "crawl_visits_total", phase=PHASE_BEFORE, outcome="ok"
            ),
            report.ok,
        ),
        (
            "crawl_visits_total{phase=before-accept,outcome=failed}",
            snapshot.counter_value(
                "crawl_visits_total", phase=PHASE_BEFORE, outcome="failed"
            ),
            report.failed,
        ),
        (
            "crawl_visits_total{phase=after-accept,outcome=ok}",
            snapshot.counter_value(
                "crawl_visits_total", phase=PHASE_AFTER, outcome="ok"
            ),
            len(a.result.d_aa),
        ),
        (
            "crawl_banners_total{result=accepted}",
            snapshot.counter_value("crawl_banners_total", result="accepted"),
            report.accepted,
        ),
        (
            "crawl_banners_total (all results)",
            snapshot.counter_total("crawl_banners_total"),
            report.ok,
        ),
        (
            "attestation_probes_total",
            snapshot.counter_total("attestation_probes_total"),
            len(a.result.survey),
        ),
        (
            "crawl_failures_total",
            snapshot.counter_total("crawl_failures_total"),
            report.failed,
        ),
    )
    for series, actual, expected in equalities:
        if actual != expected:
            yield fail(
                f"{series} is {actual:g}, expected {expected}",
                series=series,
                actual=actual,
                expected=expected,
            )
    dataset_calls = a.result.d_ba.call_count() + a.result.d_aa.call_count()
    instrumented_calls = snapshot.counter_total("topics_calls_total")
    if instrumented_calls < dataset_calls:
        yield fail(
            f"topics_calls_total is {instrumented_calls:g} but the datasets "
            f"record {dataset_calls} calls",
            actual=instrumented_calls,
            expected_at_least=dataset_calls,
        )


# -- checkpoint / partial manifests --------------------------------------------


@rule(
    "checkpoint-partition",
    "the checkpoint manifest's shards partition the campaign's Tranco slice",
    requires={ARTIFACT_CHECKPOINTS, ARTIFACT_REPORT},
)
def _checkpoint_partition(a: CrawlArtifacts) -> Iterator:
    manifest = a.manifest
    fingerprint = manifest.get("fingerprint") or {}
    shards = manifest.get("shards") or {}
    report = a.result.report

    targets = fingerprint.get("targets")
    if targets != report.targets:
        yield fail(
            f"manifest fingerprint covers {targets} targets, the report "
            f"covers {report.targets}",
            fingerprint_targets=targets,
            report_targets=report.targets,
        )
        return
    shard_count = fingerprint.get("shard_count")
    if shard_count != len(shards):
        yield fail(
            f"fingerprint names {shard_count} shards, manifest lists "
            f"{len(shards)}",
            shard_count=shard_count,
            listed=len(shards),
        )
        return
    expected_indices = {str(i) for i in range(shard_count)}
    if set(shards) != expected_indices:
        yield fail(
            f"shard indices {sorted(shards)} do not cover 0..{shard_count - 1}",
            indices=sorted(shards),
        )
        return
    # Reconstruct the contiguous divmod partition ``plan_shards`` produces
    # and hold every shard's manifest entry to its slice.
    base, remainder = divmod(targets, shard_count)
    planned = {
        str(index): base + (1 if index < remainder else 0)
        for index in range(shard_count)
    }
    for index in sorted(shards, key=int):
        entry = shards[index]
        if entry.get("targets") != planned.get(index):
            yield fail(
                f"shard {index} claims {entry.get('targets')} targets; the "
                f"partition assigns it {planned.get(index)} — shard rank "
                "ranges overlap or leave gaps",
                shard=index,
                claimed=entry.get("targets"),
                planned=planned.get(index),
            )
        if entry.get("visits_done", 0) > entry.get("targets", 0):
            yield fail(
                f"shard {index} reports {entry.get('visits_done')} visits "
                f"over {entry.get('targets')} targets",
                shard=index,
                visits_done=entry.get("visits_done"),
                targets=entry.get("targets"),
            )
        if entry.get("complete") and entry.get("visits_done") != entry.get(
            "targets"
        ):
            yield fail(
                f"shard {index} is marked complete at "
                f"{entry.get('visits_done')}/{entry.get('targets')} visits",
                shard=index,
                visits_done=entry.get("visits_done"),
                targets=entry.get("targets"),
            )
    claimed_total = sum(entry.get("targets", 0) for entry in shards.values())
    if claimed_total != targets:
        yield fail(
            f"shard targets sum to {claimed_total}, campaign covers {targets}",
            claimed=claimed_total,
            targets=targets,
        )


@rule(
    "partial-consistency",
    "a partial campaign's missing rank ranges are disjoint, in-slice, and "
    "account for exactly the uncrawled targets",
    requires={ARTIFACT_PARTIAL, ARTIFACT_REPORT, ARTIFACT_DATASETS},
)
def _partial_consistency(a: CrawlArtifacts) -> Iterator:
    partial = a.partial
    report = a.result.report
    ranges = sorted(partial.missing, key=lambda r: (r.from_rank, r.to_rank))
    previous = None
    for entry in ranges:
        if entry.from_rank > entry.to_rank:
            yield fail(
                f"missing range [{entry.from_rank}, {entry.to_rank}] of shard "
                f"{entry.shard_index} is inverted",
                from_rank=entry.from_rank,
                to_rank=entry.to_rank,
            )
        if entry.from_rank < 1 or entry.to_rank > report.targets:
            yield fail(
                f"missing range [{entry.from_rank}, {entry.to_rank}] leaves "
                f"the campaign slice [1, {report.targets}]",
                from_rank=entry.from_rank,
                to_rank=entry.to_rank,
                targets=report.targets,
            )
        if previous is not None and entry.from_rank <= previous.to_rank:
            yield fail(
                f"missing ranges [{previous.from_rank}, {previous.to_rank}] "
                f"and [{entry.from_rank}, {entry.to_rank}] overlap",
                first=[previous.from_rank, previous.to_rank],
                second=[entry.from_rank, entry.to_rank],
            )
        previous = entry
    uncrawled = report.targets - report.ok - report.failed
    if partial.missing_targets != uncrawled:
        yield fail(
            f"partial manifest names {partial.missing_targets} missing "
            f"targets, the report leaves {uncrawled} unaccounted",
            missing_targets=partial.missing_targets,
            unaccounted=uncrawled,
        )
    missing_ranks = {
        rank
        for entry in ranges
        for rank in range(entry.from_rank, entry.to_rank + 1)
    }
    d_ba = a.result.d_ba
    for rank, domain in zip(d_ba.column("rank"), d_ba.column("domain")):
        if rank in missing_ranks:
            yield fail(
                f"rank {rank} ({domain!r}) was crawled yet "
                "falls inside a missing range",
                rank=rank,
                domain=domain,
            )
