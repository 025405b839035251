"""Call-type breakdown: how callers invoke the API.

The paper's instrumentation "additionally log[s] the API call type
(JavaScript, Fetch or IFrame)"; §4 uses it to show every anomalous call is
JavaScript.  This module generalises that cut: per-caller and aggregate
call-type mixes over a dataset, separating legitimate from anomalous
populations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import AbstractSet

from repro.analysis.pervasiveness import legitimate_callers
from repro.browser.topics.types import ApiCallType
from repro.crawler.dataset import Dataset
from repro.crawler.wellknown import AttestationSurvey


@dataclass(frozen=True)
class CallTypeMix:
    """One caller's (or population's) invocation mix."""

    caller: str
    counts: dict[str, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def share(self, call_type: ApiCallType) -> float:
        if self.total == 0:
            return 0.0
        return self.counts.get(call_type.value, 0) / self.total

    @property
    def dominant(self) -> str:
        if not self.counts:
            return "none"
        return max(self.counts, key=lambda k: (self.counts[k], k))


def call_type_mix_by_caller(
    dataset: Dataset,
    callers: AbstractSet[str] | None = None,
    min_calls: int = 10,
) -> list[CallTypeMix]:
    """Per-caller mixes, most active first.

    ``callers`` restricts the population (e.g. the legitimate 47);
    ``min_calls`` drops parties with too few calls to characterise.
    """
    counts: dict[str, Counter[str]] = {}
    for caller, call_type in dataset.call_values("caller", "call_type"):
        if callers is not None and caller not in callers:
            continue
        counts.setdefault(caller, Counter())[call_type] += 1
    mixes = [
        CallTypeMix(caller=caller, counts=dict(mix))
        for caller, mix in counts.items()
        if sum(mix.values()) >= min_calls
    ]
    mixes.sort(key=lambda m: (-m.total, m.caller))
    return mixes


def aggregate_mix(
    dataset: Dataset, callers: AbstractSet[str] | None = None
) -> CallTypeMix:
    """One mix over the whole (filtered) call population."""
    totals: Counter[str] = Counter()
    for caller, call_type in dataset.call_values("caller", "call_type"):
        if callers is not None and caller not in callers:
            continue
        totals[call_type] += 1
    label = "all" if callers is None else f"{len(callers)} callers"
    return CallTypeMix(caller=label, counts=dict(totals))


def legitimate_vs_anomalous_mix(
    dataset: Dataset,
    allowed_domains: AbstractSet[str],
    survey: AttestationSurvey,
) -> tuple[CallTypeMix, CallTypeMix]:
    """The §4 contrast: legitimate callers use all three surfaces; the
    anomalous population is pure JavaScript."""
    legit = legitimate_callers(allowed_domains, survey)
    anomalous = {
        caller
        for caller in dataset.calling_parties()
        if caller not in allowed_domains and not survey.is_attested(caller)
    }
    return aggregate_mix(dataset, legit), aggregate_mix(dataset, anomalous)


def render_call_types(mixes: list[CallTypeMix]) -> str:
    """Text table of per-caller mixes."""
    lines = [
        f"{'caller':<26} {'calls':>7} {'js':>7} {'fetch':>7} {'iframe':>7}",
    ]
    for mix in mixes:
        lines.append(
            f"{mix.caller:<26} {mix.total:>7}"
            f" {mix.share(ApiCallType.JAVASCRIPT):>6.0%}"
            f" {mix.share(ApiCallType.FETCH):>6.0%}"
            f" {mix.share(ApiCallType.IFRAME):>6.0%}"
        )
    return "\n".join(lines)
