"""Figure 7: do questionable calls correlate with specific CMPs?

The paper compares, per Consent Management Platform, the unconditional
probability of a site using it — P(CMP = x) — against the probability
conditioned on the site exhibiting a questionable call —
P(CMP = x | questionable).  Equal bars mean the CMP is uninvolved; a
conditional bar far above the unconditional one (HubSpot at ≈3×, LiveRamp
similarly) indicates the CMP mishandles the Topics API.  The derived
P(questionable | CMP = x) quantifies it (HubSpot: 12%, twice the average).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet

from repro.analysis.pervasiveness import legitimate_callers
from repro.crawler.dataset import Dataset
from repro.crawler.wellknown import AttestationSurvey
from repro.web.cmp import CmpCatalogue


@dataclass(frozen=True)
class CmpRow:
    """One CMP's bars in Figure 7, plus the derived conditional."""

    name: str
    sites_total: int  # sites using this CMP (in D_BA)
    sites_questionable: int  # ... that also show a questionable call
    p_cmp: float  # P(CMP = x) over all sites
    p_cmp_given_questionable: float  # P(CMP = x | questionable call)

    @property
    def p_questionable_given_cmp(self) -> float:
        """P(questionable call | CMP = x)."""
        if self.sites_total == 0:
            return 0.0
        return self.sites_questionable / self.sites_total

    @property
    def lift(self) -> float:
        """How over-represented the CMP is among questionable sites."""
        if self.p_cmp == 0.0:
            return 0.0
        return self.p_cmp_given_questionable / self.p_cmp


def figure7(
    d_ba: Dataset,
    allowed_domains: AbstractSet[str],
    survey: AttestationSurvey,
    catalogue: CmpCatalogue | None = None,
) -> list[CmpRow]:
    """The per-CMP probability pairs, in catalogue (figure) order."""
    catalogue = catalogue if catalogue is not None else CmpCatalogue()
    legit = legitimate_callers(allowed_domains, survey)

    total_sites = len(d_ba)
    questionable_sites: set[str] = set()
    cmp_sites: dict[str, int] = {name: 0 for name in catalogue.names()}
    cmp_questionable: dict[str, int] = {name: 0 for name in catalogue.names()}

    domains = d_ba.column("domain")
    questionable_rows = {
        index
        for index, callers in d_ba.calls_by_row()
        if any(caller in legit for caller in callers)
    }
    questionable_sites.update(domains[index] for index in questionable_rows)
    for index, cmp in enumerate(d_ba.column("cmp")):
        if cmp is not None and cmp in cmp_sites:
            cmp_sites[cmp] += 1
            if index in questionable_rows:
                cmp_questionable[cmp] += 1

    questionable_total = len(questionable_sites)
    rows: list[CmpRow] = []
    for name in catalogue.names():
        rows.append(
            CmpRow(
                name=name,
                sites_total=cmp_sites[name],
                sites_questionable=cmp_questionable[name],
                p_cmp=cmp_sites[name] / total_sites if total_sites else 0.0,
                p_cmp_given_questionable=(
                    cmp_questionable[name] / questionable_total
                    if questionable_total
                    else 0.0
                ),
            )
        )
    return rows


def average_questionable_rate(rows: list[CmpRow]) -> float:
    """Mean P(questionable | CMP) over CMPs with any deployment — the
    baseline the paper doubles for HubSpot."""
    rates = [row.p_questionable_given_cmp for row in rows if row.sites_total > 0]
    return sum(rates) / len(rates) if rates else 0.0
