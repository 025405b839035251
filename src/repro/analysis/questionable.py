"""§5: questionable usage — Figures 5 and 6.

Questionable calls are Topics API invocations by legitimate (Allowed ∧
Attested) parties during the Before-Accept visit, i.e. before the user
consents to anything.  Figure 5 counts affected websites per CP; Figure 6
splits the top CPs' behaviour by website TLD region (.com / .jp / .ru /
EU / Other).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Sequence

from repro.analysis.pervasiveness import legitimate_callers
from repro.crawler.dataset import Dataset
from repro.crawler.wellknown import AttestationSurvey
from repro.web.tlds import Region, region_of_domain


@dataclass(frozen=True)
class QuestionableCp:
    """One bar of Figure 5: a CP and the sites where it called pre-consent."""

    caller: str
    websites: int


def questionable_calls_by_cp(
    d_ba: Dataset,
    allowed_domains: AbstractSet[str],
    survey: AttestationSurvey,
) -> dict[str, set[str]]:
    """Legitimate CP → set of sites where it called before consent."""
    legit = legitimate_callers(allowed_domains, survey)
    sites_by_cp: dict[str, set[str]] = {}
    for domain, caller in d_ba.call_values("domain", "caller"):
        if caller in legit:
            sites_by_cp.setdefault(caller, set()).add(domain)
    return sites_by_cp


def figure5(
    d_ba: Dataset,
    allowed_domains: AbstractSet[str],
    survey: AttestationSurvey,
    top: int = 15,
) -> list[QuestionableCp]:
    """The ``top`` CPs by number of websites with a questionable call."""
    sites_by_cp = questionable_calls_by_cp(d_ba, allowed_domains, survey)
    rows = [
        QuestionableCp(caller=caller, websites=len(sites))
        for caller, sites in sites_by_cp.items()
    ]
    rows.sort(key=lambda row: (-row.websites, row.caller))
    return rows[:top]


@dataclass(frozen=True)
class QuestionableByRegion:
    """One CP's Figure 6 row: per-region presence and pre-consent calls."""

    caller: str
    present: dict[Region, int]
    called: dict[Region, int]

    def enabled_percent(self, region: Region) -> float:
        """Share of region presences with a questionable call, as a %."""
        base = self.present.get(region, 0)
        if base == 0:
            return 0.0
        return 100.0 * self.called.get(region, 0) / base


def figure6(
    d_ba: Dataset,
    allowed_domains: AbstractSet[str],
    survey: AttestationSurvey,
    callers: Sequence[str] | None = None,
    top: int = 4,
) -> list[QuestionableByRegion]:
    """Per-TLD-region behaviour of the top questionable CPs.

    ``callers`` defaults to Figure 5's top-``top`` parties.  Presence is
    counted over Before-Accept visits (where consent gating already
    limits which services load — the paper's Figure 6 presence row).
    """
    if callers is None:
        callers = [row.caller for row in figure5(d_ba, allowed_domains, survey, top)]
    wanted = set(callers)

    present: dict[str, dict[Region, int]] = {c: {} for c in callers}
    called: dict[str, dict[Region, set[str]]] = {c: {} for c in callers}
    for domain, third_parties in zip(
        d_ba.column("domain"), d_ba.third_parties_by_row()
    ):
        embedded = wanted.intersection(third_parties)
        if embedded:
            region = region_of_domain(domain)
            for caller in embedded:
                present[caller][region] = present[caller].get(region, 0) + 1
    for domain, caller in d_ba.call_values("domain", "caller"):
        if caller in wanted:
            region = region_of_domain(domain)
            called[caller].setdefault(region, set()).add(domain)

    return [
        QuestionableByRegion(
            caller=caller,
            present={
                region: max(
                    present[caller].get(region, 0),
                    len(called[caller].get(region, ())),
                )
                for region in Region
            },
            called={
                region: len(called[caller].get(region, ())) for region in Region
            },
        )
        for caller in callers
    ]
