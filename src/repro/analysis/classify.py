"""Caller status classification and Table 1.

Every calling party (CP) lands in one cell of the Allowed × Attested
matrix; Table 1 counts, for each dataset, how many distinct CPs of each
status actually called the Topics API.  "Allowed" comes from the (healthy)
allow-list snapshot, "Attested" from the well-known attestation survey.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import AbstractSet

from repro.attestation.allowlist import GatingDecision
from repro.crawler.dataset import Dataset
from repro.crawler.wellknown import AttestationSurvey


class CallerStatus(enum.Enum):
    """One cell of the paper's Allowed × Attested matrix."""

    ALLOWED_ATTESTED = "Allowed & Attested"
    ALLOWED_UNATTESTED = "Allowed & !Attested"
    NOT_ALLOWED_ATTESTED = "!Allowed & Attested"
    NOT_ALLOWED = "!Allowed"

    @property
    def is_legitimate(self) -> bool:
        """Only Allowed ∧ Attested parties may use the API legitimately."""
        return self is CallerStatus.ALLOWED_ATTESTED


def classify_caller(
    caller: str,
    allowed_domains: AbstractSet[str],
    survey: AttestationSurvey,
) -> CallerStatus:
    """Status of one calling party."""
    allowed = caller in allowed_domains
    attested = survey.is_attested(caller)
    if allowed and attested:
        return CallerStatus.ALLOWED_ATTESTED
    if allowed:
        return CallerStatus.ALLOWED_UNATTESTED
    if attested:
        return CallerStatus.NOT_ALLOWED_ATTESTED
    return CallerStatus.NOT_ALLOWED


@dataclass(frozen=True)
class Table1:
    """The paper's Table 1: overall status of Topics API usage.

    The first two rows describe the allow-list itself; the D_AA and D_BA
    sections count distinct CPs *observed calling* in each dataset, split
    by status.  The paper marks !Allowed rows as anomalous (red) and the
    D_BA rows as questionable (blue).
    """

    allowed_total: int
    allowed_unattested: int
    aa_allowed_attested: int
    aa_not_allowed_attested: int
    aa_not_allowed: int
    ba_allowed_attested: int
    ba_not_allowed: int
    aa_not_allowed_attested_callers: tuple[str, ...] = ()

    def as_rows(self) -> list[tuple[str, str, int]]:
        """(section, label, count) rows in the paper's layout order."""
        return [
            ("", "Allowed", self.allowed_total),
            ("", "Allowed & !Attested", self.allowed_unattested),
            ("D_AA", "Allowed & Attested", self.aa_allowed_attested),
            ("D_AA", "!Allowed & Attested", self.aa_not_allowed_attested),
            ("D_AA", "!Allowed", self.aa_not_allowed),
            ("D_BA", "Allowed & Attested", self.ba_allowed_attested),
            ("D_BA", "!Allowed", self.ba_not_allowed),
        ]


def callers_by_status(
    dataset: Dataset,
    allowed_domains: AbstractSet[str],
    survey: AttestationSurvey,
) -> dict[CallerStatus, set[str]]:
    """Distinct CPs of a dataset, grouped by status.

    Only *successful* calls count as usage: attempts a healthy browser
    blocked are not Topics API deployment (in the paper's corrupted-
    allow-list setup every attempt succeeds, so there the distinction is
    moot).
    """
    grouped: dict[CallerStatus, set[str]] = {status: set() for status in CallerStatus}
    for caller, decision in dataset.call_values("caller", "decision"):
        if not GatingDecision(decision).allowed:
            continue
        grouped[classify_caller(caller, allowed_domains, survey)].add(caller)
    return grouped


def build_table1(
    d_ba: Dataset,
    d_aa: Dataset,
    allowed_domains: AbstractSet[str],
    survey: AttestationSurvey,
) -> Table1:
    """Aggregate both datasets into the paper's Table 1."""
    allowed_unattested = sum(
        1 for domain in allowed_domains if not survey.is_attested(domain)
    )
    aa = callers_by_status(d_aa, allowed_domains, survey)
    ba = callers_by_status(d_ba, allowed_domains, survey)
    return Table1(
        allowed_total=len(allowed_domains),
        allowed_unattested=allowed_unattested,
        aa_allowed_attested=len(aa[CallerStatus.ALLOWED_ATTESTED]),
        aa_not_allowed_attested=len(aa[CallerStatus.NOT_ALLOWED_ATTESTED]),
        aa_not_allowed=len(aa[CallerStatus.NOT_ALLOWED]),
        ba_allowed_attested=len(ba[CallerStatus.ALLOWED_ATTESTED]),
        ba_not_allowed=len(ba[CallerStatus.NOT_ALLOWED]),
        aa_not_allowed_attested_callers=tuple(
            sorted(aa[CallerStatus.NOT_ALLOWED_ATTESTED])
        ),
    )
