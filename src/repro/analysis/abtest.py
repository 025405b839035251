"""Figure 3 and the A/B-test evidence of §3.

Two analyses:

* :func:`figure3` — for each legitimate CP, the fraction of its presences
  on which it calls the API ("Enabled %").  The paper reads the clustered
  values (≈100/75/66/50/33/25%) as predetermined A/B-test splits.
* :func:`detect_alternation` — over repeated visits to fixed sites, find
  (CP, site) pairs whose call presence forms consistent ON-runs followed
  by OFF-runs, the signature of time-windowed A/B tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet

from repro.crawler.dataset import Dataset
from repro.crawler.repeats import ObservationSeries
from repro.crawler.wellknown import AttestationSurvey
from repro.analysis.pervasiveness import legitimate_callers


@dataclass(frozen=True)
class EnabledRate:
    """One bar of Figure 3."""

    caller: str
    present_on: int
    called_on: int

    @property
    def enabled_percent(self) -> float:
        if self.present_on == 0:
            return 0.0
        return 100.0 * self.called_on / self.present_on


def figure3(
    d_aa: Dataset,
    allowed_domains: AbstractSet[str],
    survey: AttestationSurvey,
    top: int = 15,
    min_presence: int = 20,
) -> list[EnabledRate]:
    """CPs with the highest enabled percentage, presence counts attached.

    ``min_presence`` guards against rate estimates from a handful of
    observations, mirroring the paper's focus on parties with meaningful
    deployment (its top row reports presence counts from 114 upward).
    """
    legit = legitimate_callers(allowed_domains, survey)
    presence: dict[str, int] = {}
    called: dict[str, set[str]] = {}
    for third_parties in d_aa.third_parties_by_row():
        for party in legit.intersection(third_parties):
            presence[party] = presence.get(party, 0) + 1
    for domain, caller in d_aa.call_values("domain", "caller"):
        if caller in legit:
            called.setdefault(caller, set()).add(domain)

    rows = [
        EnabledRate(
            caller=party,
            present_on=max(count, len(called.get(party, ()))),
            called_on=len(called.get(party, ())),
        )
        for party, count in presence.items()
        if count >= min_presence and called.get(party)
    ]
    rows.sort(key=lambda row: (-row.enabled_percent, row.caller))
    return rows[:top]


@dataclass(frozen=True)
class AlternationFinding:
    """Alternation verdict for one (CP, site) pair of a repeated probe."""

    caller: str
    site: str
    runs: tuple[tuple[bool, int], ...]
    alternating: bool
    always_on: bool

    @property
    def on_fraction(self) -> float:
        total = sum(length for _, length in self.runs)
        on = sum(length for value, length in self.runs if value)
        return on / total if total else 0.0


def detect_alternation(
    series: list[ObservationSeries],
    min_run_length: int = 2,
    min_runs: int = 3,
) -> list[AlternationFinding]:
    """Classify each observed (CP, site) series.

    *Alternating* means the series contains at least ``min_runs``
    homogeneous runs, each at least ``min_run_length`` visits long — "for
    some time the usage of the API is ON for all visits, followed by some
    time when it is OFF" (§3).  A pair that called on every single visit
    is *always_on* (a static 100% assignment).
    """
    findings: list[AlternationFinding] = []
    for item in series:
        runs = tuple(item.runs())
        always_on = len(runs) == 1 and runs[0][0]
        inner = runs[1:-1] if len(runs) > 2 else runs
        alternating = (
            len(runs) >= min_runs
            and all(length >= min_run_length for _, length in inner)
        )
        findings.append(
            AlternationFinding(
                caller=item.caller,
                site=item.site,
                runs=runs,
                alternating=alternating,
                always_on=always_on,
            )
        )
    return findings
