"""The re-identification study: population → traces → attack → metrics.

Mirrors the experimental design of the Topics re-identification papers:
a population of users with stable interests browses for ``burn_in`` +
``observation`` epochs; two enrolled parties (both embedded on the sites
the users visit) each collect the per-epoch topic answers the API gives
them; a matcher then links the two views.  Sweeps quantify how linkage
accuracy grows with observation epochs and shrinks with the noise rate.

Both stages run on the population data plane: trace generation shards
users over the shared execution backends into columnar
:class:`~repro.users.columnar.TraceBuffers`, and the linkage attack uses
the sparse bitset/inverted-index ranker once the population is large
enough.  Results are byte-identical to the original per-user loop for
every backend and shard count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.obs import Telemetry
from repro.privacy.attack import (
    LinkageResult,
    ProfileMatcher,
    SequenceMatcher,
    link_profiles,
)
from repro.users.browsing import TraceGenerator
from repro.users.population import Population
from repro.util.executor import ExecutionBackend


@dataclass(frozen=True)
class ReidentificationConfig:
    """One study's parameters."""

    population_size: int = 100
    observation_epochs: int = 4
    burn_in_epochs: int = 3  # history before the first query (fills 3 epochs)
    visits_per_epoch: int = 10
    noise_probability: float = 0.05
    seed: int = 7
    caller_a: str = "site-a.example"
    caller_b: str = "site-b.example"

    def __post_init__(self) -> None:
        if self.population_size <= 0:
            raise ValueError("population_size must be positive")
        if self.observation_epochs <= 0:
            raise ValueError("observation_epochs must be positive")
        if self.burn_in_epochs < 0:
            raise ValueError("burn_in_epochs must be non-negative")
        if self.visits_per_epoch <= 0:
            raise ValueError("visits_per_epoch must be positive")
        if not 0.0 <= self.noise_probability <= 1.0:
            raise ValueError("noise_probability must be within [0, 1]")


@dataclass(frozen=True)
class ReidentificationResult:
    """Linkage metrics for one configuration."""

    config: ReidentificationConfig
    linkage: LinkageResult

    @property
    def accuracy_top1(self) -> float:
        return self.linkage.accuracy_top1

    @property
    def uplift_over_random(self) -> float:
        baseline = self.linkage.random_baseline
        return self.accuracy_top1 / baseline if baseline else 0.0


def run_reidentification(
    config: ReidentificationConfig,
    matcher: ProfileMatcher | None = None,
    population: Population | None = None,
    *,
    backend: "str | ExecutionBackend | None" = None,
    max_workers: int | None = None,
    telemetry: Telemetry = Telemetry.OFF,
) -> ReidentificationResult:
    """Execute one full study.

    ``backend``/``max_workers`` pick the execution backend for both the
    trace-generation and ranking stages (same semantics as the crawl
    plane, ``REPRO_CRAWL_BACKEND``-aware); the result is identical on
    every backend.  ``telemetry``'s metrics and spans observe both stages.
    """
    matcher = matcher if matcher is not None else SequenceMatcher()
    if population is None:
        population = Population.generate(
            config.population_size, seed=config.seed
        )
    generator = TraceGenerator(
        population,
        callers=[config.caller_a, config.caller_b],
        visits_per_epoch=config.visits_per_epoch,
        noise_probability=config.noise_probability,
    )

    total_epochs = config.burn_in_epochs + config.observation_epochs
    query_epochs = range(
        config.burn_in_epochs, config.burn_in_epochs + config.observation_epochs
    )

    buffers = generator.run_many(
        total_epochs,
        query_epochs,
        backend=backend,
        max_workers=max_workers,
        telemetry=telemetry,
    )
    views_a = buffers.views_for(config.caller_a)
    views_b = buffers.views_for(config.caller_b)

    linkage = link_profiles(
        views_a,
        views_b,
        matcher,
        backend=backend,
        max_workers=max_workers,
        telemetry=telemetry,
    )
    return ReidentificationResult(config=config, linkage=linkage)


def sweep_epochs(
    base: ReidentificationConfig,
    epoch_counts: "tuple[int, ...] | list[int]" = (1, 2, 4, 8),
    matcher: ProfileMatcher | None = None,
    *,
    backend: "str | ExecutionBackend | None" = None,
    max_workers: int | None = None,
    telemetry: Telemetry = Telemetry.OFF,
) -> list[ReidentificationResult]:
    """Accuracy as a function of how long the attacker observes."""
    population = Population.generate(base.population_size, seed=base.seed)
    return [
        run_reidentification(
            replace(base, observation_epochs=epochs),
            matcher=matcher,
            population=population,
            backend=backend,
            max_workers=max_workers,
            telemetry=telemetry,
        )
        for epochs in epoch_counts
    ]


def sweep_noise(
    base: ReidentificationConfig,
    noise_levels: "tuple[float, ...] | list[float]" = (0.0, 0.05, 0.25, 0.5),
    matcher: ProfileMatcher | None = None,
    *,
    backend: "str | ExecutionBackend | None" = None,
    max_workers: int | None = None,
    telemetry: Telemetry = Telemetry.OFF,
) -> list[ReidentificationResult]:
    """Accuracy as a function of the plausible-deniability noise rate.

    5% is the deployed value; higher noise trades utility for unlinkability
    and the sweep shows how fast linkage degrades.
    """
    population = Population.generate(base.population_size, seed=base.seed)
    return [
        run_reidentification(
            replace(base, noise_probability=noise),
            matcher=matcher,
            population=population,
            backend=backend,
            max_workers=max_workers,
            telemetry=telemetry,
        )
        for noise in noise_levels
    ]


def render_sweep(results: list[ReidentificationResult], variable: str) -> str:
    """Text table for a sweep (the bench output)."""
    lines = [
        f"{variable:<18} {'top-1':>8} {'top-5':>8} {'mean rank':>10}"
        f" {'random':>8} {'uplift':>8}"
    ]
    for result in results:
        if variable == "epochs":
            value = result.config.observation_epochs
        else:
            value = result.config.noise_probability
        linkage = result.linkage
        lines.append(
            f"{value!s:<18} {linkage.accuracy_top1:>7.1%} "
            f"{linkage.accuracy_top_k(5):>7.1%} {linkage.mean_rank:>10.1f}"
            f" {linkage.random_baseline:>7.1%} {result.uplift_over_random:>7.1f}x"
        )
    return "\n".join(lines)
