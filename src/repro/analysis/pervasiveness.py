"""Figure 2: how pervasive each legitimate CP is, and how often it calls.

For every Allowed ∧ Attested party, count the After-Accept sites where it
is *present* (appears among a visit's loaded third parties) and the subset
where it actually *called* the Topics API.  The paper shows the top 15 by
presence — google-analytics.com leading but never calling, doubleclick.net
calling on about a third of its sites, etc. — plus the headline stat that
45% of visited websites host at least one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet

from repro.crawler.dataset import Dataset
from repro.crawler.wellknown import AttestationSurvey


@dataclass(frozen=True)
class CpPresence:
    """One bar pair of Figure 2."""

    caller: str
    present_on: int  # sites where the CP appears
    called_on: int  # subset where it invoked the Topics API

    @property
    def call_share(self) -> float:
        """Fraction of presences that produced a call."""
        return self.called_on / self.present_on if self.present_on else 0.0


def legitimate_callers(
    allowed_domains: AbstractSet[str], survey: AttestationSurvey
) -> set[str]:
    """The Allowed ∧ Attested population (legitimate potential CPs)."""
    return {d for d in allowed_domains if survey.is_attested(d)}


def figure2(
    d_aa: Dataset,
    allowed_domains: AbstractSet[str],
    survey: AttestationSurvey,
    top: int = 15,
) -> list[CpPresence]:
    """Presence vs calls for the ``top`` most pervasive legitimate parties."""
    legit = legitimate_callers(allowed_domains, survey)

    presence: dict[str, int] = {party: 0 for party in legit}
    called: dict[str, set[str]] = {party: set() for party in legit}
    for third_parties in d_aa.third_parties_by_row():
        for party in legit.intersection(third_parties):
            presence[party] += 1
    for domain, caller in d_aa.call_values("domain", "caller"):
        if caller in legit:
            called[caller].add(domain)

    rows = [
        CpPresence(
            caller=party,
            present_on=count,
            # A caller can invoke the API on a site without surfacing in
            # the object log (e.g. a pure header call); presence is at
            # least the number of sites where it called.
            called_on=len(called[party]),
        )
        for party, count in presence.items()
        if count > 0 or called[party]
    ]
    rows.sort(key=lambda row: (-max(row.present_on, row.called_on), row.caller))
    return rows[:top]


def share_of_sites_with_call(
    d_aa: Dataset,
    legitimate_only: AbstractSet[str] | None = None,
) -> float:
    """Fraction of After-Accept sites hosting at least one Topics call.

    With ``legitimate_only`` given, only calls from that caller set count
    (the paper's §3 framing: "we observe at least one call to the Topics
    API in 45% of visited websites", legitimate uses only).
    """
    if not len(d_aa):
        return 0.0
    matching = sum(
        1
        for _, callers in d_aa.calls_by_row()
        if legitimate_only is None
        or any(caller in legitimate_only for caller in callers)
    )
    return matching / len(d_aa)
