"""§4: anomalous usage — not-Allowed callers and where they come from.

Observable only because the crawl ran with a corrupted allow-list (the
browser then default-allows everyone): thousands of callers that a healthy
browser would block.  The paper attributes them:

* 72% share the visited website's second-level domain (the page itself or
  a sibling like ``ad.foo.net`` on ``foo.com``);
* the rest are same-company domains or redirect targets (manual check);
* every single one uses the JavaScript ``browsingTopics()`` surface;
* Google Tag Manager's script is present on 95% of the affected sites —
  and is the mechanism: its tag executes in the root browsing context.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import AbstractSet

from repro.crawler.dataset import CallRecord, Dataset, VisitRecord
from repro.crawler.wellknown import AttestationSurvey
from repro.util.psl import same_second_level
from repro.web.entities import EntityDatabase
from repro.web.thirdparty import GTM_DOMAIN

#: Attribution labels for one anomalous call.
ATTRIBUTION_SAME_SLD = "same-second-level-domain"
ATTRIBUTION_SAME_ENTITY = "same-entity"
ATTRIBUTION_REDIRECT = "redirect-target"
ATTRIBUTION_UNEXPLAINED = "unexplained"


@dataclass(frozen=True)
class AnomalousReport:
    """The §4 numbers."""

    total_calls: int
    distinct_callers: int
    affected_sites: int
    attribution_counts: dict[str, int]
    call_type_counts: dict[str, int]
    gtm_site_fraction: float

    def attribution_fraction(self, label: str) -> float:
        if self.total_calls == 0:
            return 0.0
        return self.attribution_counts.get(label, 0) / self.total_calls

    @property
    def javascript_fraction(self) -> float:
        if self.total_calls == 0:
            return 0.0
        return self.call_type_counts.get("javascript", 0) / self.total_calls


def attribute_call(
    record: VisitRecord, call: CallRecord, entities: EntityDatabase
) -> str:
    """Explain one anomalous call the way the paper's manual check does."""
    if same_second_level(call.caller, record.domain):
        return ATTRIBUTION_SAME_SLD
    if entities.same_entity(call.caller, record.domain):
        # Covers both the windows.com/microsoft.com case and redirects to a
        # same-company domain; redirects are split out below for reporting.
        if record.redirected and same_second_level(call.caller, record.final_domain):
            return ATTRIBUTION_REDIRECT
        return ATTRIBUTION_SAME_ENTITY
    if record.redirected and same_second_level(call.caller, record.final_domain):
        return ATTRIBUTION_REDIRECT
    return ATTRIBUTION_UNEXPLAINED


def anomalous_calls(
    dataset: Dataset,
    allowed_domains: AbstractSet[str],
    survey: AttestationSurvey,
) -> list[tuple[VisitRecord, CallRecord]]:
    """Successful calls from parties that are neither Allowed nor Attested.

    Blocked attempts are excluded: with a healthy allow-list the browser
    refuses these callers, so they constitute no usage — they only become
    observable under the corrupted-database setup (§2.3).
    """
    unlisted = {
        caller
        for caller in dataset.calling_parties()
        if caller not in allowed_domains and not survey.is_attested(caller)
    }
    return [
        (record, call)
        for record, call in dataset.iter_calls(unlisted)
        if call.allowed
    ]


def analyze_anomalous(
    dataset: Dataset,
    allowed_domains: AbstractSet[str],
    survey: AttestationSurvey,
    entities: EntityDatabase,
) -> AnomalousReport:
    """The full §4 breakdown over one dataset (the paper uses D_AA)."""
    calls = anomalous_calls(dataset, allowed_domains, survey)

    attribution: Counter[str] = Counter()
    call_types: Counter[str] = Counter()
    callers: set[str] = set()
    sites: set[str] = set()
    for record, call in calls:
        attribution[attribute_call(record, call, entities)] += 1
        call_types[call.call_type] += 1
        callers.add(call.caller)
        sites.add(record.domain)

    # all_by_domain: repeat-visit campaigns hold several records per
    # domain, and GTM presence on any of them counts the site.
    gtm_sites = sum(
        1
        for domain in sites
        if any(
            GTM_DOMAIN in record.third_parties
            for record in dataset.all_by_domain(domain)
        )
    )
    return AnomalousReport(
        total_calls=len(calls),
        distinct_callers=len(callers),
        affected_sites=len(sites),
        attribution_counts=dict(attribution),
        call_type_counts=dict(call_types),
        gtm_site_fraction=gtm_sites / len(sites) if sites else 0.0,
    )
