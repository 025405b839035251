"""Targeting-quality study: the business metric behind §3's A/B tests.

A population of users browses for several epochs (the Topics machinery
accumulating state); an advertiser then serves each user one ad under
three regimes:

* **cookie-profile** — the pre-phase-out world: the server knows the
  user's full interest profile via its tracking identifier;
* **topics** — the Privacy Sandbox world: the server only sees the
  ≤3 coarse topics ``document.browsingTopics()`` returns;
* **none** — phase-out without Topics: untargeted house ads.

Relevance (does the served creative's category match a true interest?)
and revenue quantify exactly what the paper says advertisers are
measuring: how well Topics substitutes for cookies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adserver.inventory import Inventory
from repro.adserver.server import AdResponse, AdServer
from repro.users.browsing import TraceGenerator
from repro.users.population import Population


@dataclass(frozen=True)
class RegimeMetrics:
    """Mean outcomes of one targeting regime."""

    signal: str
    impressions: int
    relevance: float  # share of ads matching a true user interest
    mean_cpm: float


@dataclass(frozen=True)
class TargetingStudyResult:
    cookie: RegimeMetrics
    topics: RegimeMetrics
    untargeted: RegimeMetrics

    @property
    def topics_substitution_ratio(self) -> float:
        """How much of the cookie regime's relevance Topics retains."""
        if self.cookie.relevance == 0:
            return 0.0
        return self.topics.relevance / self.cookie.relevance


class TargetingStudy:
    """Runs the three-regime comparison over one population."""

    def __init__(
        self,
        population_size: int = 60,
        epochs: int = 4,
        seed: int = 5,
        advertiser: str = "advertiser.example",
    ) -> None:
        self._population = Population.generate(population_size, seed=seed)
        self._epochs = epochs
        self._advertiser = advertiser
        self._inventory = Inventory.generate(self._population.taxonomy, seed=seed)

    def _user_interest_roots(self, user_id: int) -> set[int]:
        taxonomy = self._population.taxonomy
        return {
            taxonomy.root_of(topic).topic_id
            for topic in self._population.profile(user_id).topic_ids
        }

    def _relevant(self, response: AdResponse, interest_roots: set[int]) -> bool:
        target = response.campaign.target_topic
        if target is None:
            return False
        taxonomy = self._population.taxonomy
        return taxonomy.root_of(target).topic_id in interest_roots

    def run(self) -> TargetingStudyResult:
        generator = TraceGenerator(
            self._population, callers=[self._advertiser], visits_per_epoch=10
        )
        server = AdServer(self._inventory)

        tallies = {
            "cookie-profile": [0, 0.0, 0.0],  # impressions, relevant, cpm sum
            "topics": [0, 0.0, 0.0],
            "none": [0, 0.0, 0.0],
        }

        for user_id in range(len(self._population)):
            session = generator.run(user_id, self._epochs)
            interest_roots = self._user_interest_roots(user_id)
            profile_topics = self._population.profile(user_id).topic_ids

            responses = {
                "cookie-profile": server.provide_ad_for_profile(profile_topics),
                "topics": server.provide_ad_for_topics(
                    session.topics_for(self._advertiser, self._epochs)
                ),
                "none": server.provide_ad_untargeted(),
            }
            for signal, response in responses.items():
                tally = tallies[signal]
                tally[0] += 1
                tally[1] += 1.0 if self._relevant(response, interest_roots) else 0.0
                tally[2] += response.campaign.cpm

        def metrics(signal: str) -> RegimeMetrics:
            impressions, relevant, cpm_sum = tallies[signal]
            return RegimeMetrics(
                signal=signal,
                impressions=int(impressions),
                relevance=relevant / impressions if impressions else 0.0,
                mean_cpm=cpm_sum / impressions if impressions else 0.0,
            )

        return TargetingStudyResult(
            cookie=metrics("cookie-profile"),
            topics=metrics("topics"),
            untargeted=metrics("none"),
        )


def render_targeting(result: TargetingStudyResult) -> str:
    """Text table of the three regimes."""
    lines = [
        f"{'regime':<16} {'impressions':>12} {'relevance':>10} {'mean CPM':>9}",
    ]
    for metrics in (result.cookie, result.topics, result.untargeted):
        lines.append(
            f"{metrics.signal:<16} {metrics.impressions:>12}"
            f" {metrics.relevance:>9.1%} {metrics.mean_cpm:>8.2f}"
        )
    lines.append(
        f"\nTopics retains {result.topics_substitution_ratio:.0%} of the"
        " cookie regime's targeting relevance."
    )
    return "\n".join(lines)
