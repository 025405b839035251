"""Interest-driven browsing traces feeding per-user Topics state.

:class:`UserTopicsSession` wires one user's own Topics machinery (history,
selector, allow-list) together; :class:`TraceGenerator` simulates weekly
browsing where callers embedded on the visited sites observe the user —
after a few epochs each caller can query the user's topics exactly as a
real advertiser would.

Two generation paths produce byte-identical observed views:

* :meth:`TraceGenerator.run` — the reference path: one user at a time
  through the full object-graph machinery (session, manager, call log);
* :meth:`TraceGenerator.run_many` — the population data plane: users are
  partitioned into contiguous shards over the shared execution backends
  (serial / thread / process, ``REPRO_CRAWL_BACKEND``-aware), each shard
  writes straight into columnar :class:`~repro.users.columnar.TraceBuffers`
  through a hot loop that skips the per-visit object churn (no
  ``TopicsApiCall`` log entries, no per-browse answer computation — only
  history state, which is all the final queries read).

Every user draws from its own ``RngStream`` child (derived from the
population seed and user id, never from a shared cursor), so any shard
count on any backend replays exactly the draws the sequential path
makes — the equivalence tests pin both properties.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from repro.attestation.allowlist import AllowList, AllowListDatabase
from repro.browser.topics.history import BrowsingHistory
from repro.browser.topics.manager import BrowsingTopicsSiteDataManager
from repro.browser.topics.selection import EpochTopicsSelector
from repro.browser.topics.types import ApiCallType, Topic
from repro.obs import Telemetry
from repro.obs.spans import SPAN_REID_TRACES
from repro.users.columnar import TraceBuffers
from repro.users.population import (
    Population,
    PopulationSpec,
    worker_population,
)
from repro.util.executor import (
    ExecutionBackend,
    create_backend,
    is_picklable,
    split_work,
)
from repro.util.psl import etld_plus_one
from repro.util.rng import RngStream
from repro.util.timeline import EPOCH_DURATION


@dataclass
class UserTopicsSession:
    """One user's browser-side Topics state."""

    user_id: int
    manager: BrowsingTopicsSiteDataManager

    def topics_for(self, caller: str, epoch: int) -> list[Topic]:
        """What ``caller`` receives when querying during ``epoch``
        (read-only: does not add an observation)."""
        return self.manager.handle_topics_call(
            caller_host=f"tags.{caller}",
            top_frame_site="query.example",
            call_type=ApiCallType.JAVASCRIPT,
            now=epoch * EPOCH_DURATION,
            observe=False,
        )


class TraceGenerator:
    """Simulates a population's browsing over several epochs."""

    def __init__(
        self,
        population: Population,
        callers: list[str],
        visits_per_epoch: int = 10,
        noise_probability: float = 0.05,
        caller_coverage: float = 1.0,
    ) -> None:
        """``callers`` are the observing parties (all enrolled).

        ``caller_coverage`` is the probability a given caller's tag sits
        on a given visited site — 1.0 models an observer embedded
        everywhere (the strongest attacker).
        """
        if not callers:
            raise ValueError("at least one caller required")
        if visits_per_epoch <= 0:
            raise ValueError("visits_per_epoch must be positive")
        self._population = population
        self._callers = list(callers)
        self._visits_per_epoch = visits_per_epoch
        self._noise_probability = noise_probability
        self._caller_coverage = caller_coverage
        self._rng = RngStream(population.seed, "traces")
        self._allowlist = AllowListDatabase.from_allowlist(AllowList.of(callers))
        #: the party identity each caller observes/queries under — what
        #: ``handle_topics_call`` derives from the ``tags.`` host on every
        #: single call; precomputed once for the batched hot loop.
        self._caller_parties = [etld_plus_one(f"tags.{c}") for c in callers]

    def session_for(self, user_id: int) -> UserTopicsSession:
        """Fresh (empty-history) session for one user."""
        selector = EpochTopicsSelector(
            self._population.classifier,
            user_seed=self._population.seed * 1_000_003 + user_id,
            noise_probability=self._noise_probability,
        )
        manager = BrowsingTopicsSiteDataManager(selector, self._allowlist)
        return UserTopicsSession(user_id=user_id, manager=manager)

    def run(self, user_id: int, epochs: int) -> UserTopicsSession:
        """Simulate ``epochs`` weeks of browsing for one user."""
        session = self.session_for(user_id)
        profile = self._population.profile(user_id)
        interests = profile.normalised()
        if not interests:
            return session
        topics = [topic for topic, _ in interests]
        weights = [weight for _, weight in interests]
        user_rng = self._rng.child("user", user_id)

        for epoch in range(epochs):
            for visit in range(self._visits_per_epoch):
                topic = user_rng.weighted_choice(topics, weights)
                pool = self._population.sites_for(topic)
                if not pool:
                    continue
                site = user_rng.choice(pool)
                at = epoch * EPOCH_DURATION + visit * (
                    EPOCH_DURATION // (self._visits_per_epoch + 1)
                )
                session.manager.record_page_visit(site, at)
                for caller in self._callers:
                    if self._caller_coverage < 1.0 and not user_rng.bernoulli(
                        self._caller_coverage
                    ):
                        continue
                    session.manager.handle_topics_call(
                        caller_host=f"tags.{caller}",
                        top_frame_site=site,
                        call_type=ApiCallType.JAVASCRIPT,
                        now=at,
                    )
        return session

    def observed_topics(
        self, session: UserTopicsSession, caller: str, query_epochs: list[int]
    ) -> list[tuple[int, ...]]:
        """The per-epoch topic-id vectors ``caller`` collects by querying
        at the start of each epoch in ``query_epochs``."""
        collected: list[tuple[int, ...]] = []
        for epoch in query_epochs:
            topics = session.topics_for(caller, epoch)
            collected.append(tuple(sorted(t.topic_id for t in topics)))
        return collected

    # -- batched columnar generation (the population data plane) ---------------

    def run_many(
        self,
        epochs: int,
        query_epochs: Sequence[int],
        user_ids: Sequence[int] | None = None,
        *,
        backend: "str | ExecutionBackend | None" = None,
        max_workers: int | None = None,
        shard_count: int | None = None,
        telemetry: Telemetry = Telemetry.OFF,
    ) -> TraceBuffers:
        """Simulate many users and collect every caller's observed views.

        The population is partitioned into contiguous user shards and run
        over the shared execution backends; each shard returns flat
        :class:`TraceBuffers` that concatenate in shard order, so the
        result is byte-identical for every backend and shard count —
        including to generating the users one by one.

        Process workers rebuild the population from its
        :class:`~repro.users.population.PopulationSpec` through a
        per-worker cache (mirroring the crawl executor's world cache);
        populations without a spec travel by value when picklable and
        fall back to the thread backend otherwise.
        """
        ids = (
            tuple(user_ids)
            if user_ids is not None
            else tuple(range(len(self._population)))
        )
        query = tuple(query_epochs)
        started = time.perf_counter()
        resolved, bounds = split_work(len(ids), backend, max_workers, shard_count)
        shards = [ids[start:stop] for start, stop in bounds]

        merged = TraceBuffers(self._callers, query)
        if resolved.name == "process":
            spec = self._population.spec
            population = None
            if spec is None:
                # Hand-built populations cannot be rebuilt from a spec;
                # ship them by value, or (mirroring the crawl executor's
                # non-picklable fault-injector rule) downgrade to threads.
                if is_picklable(self._population):
                    population = self._population
                else:
                    resolved = create_backend("thread", resolved.max_workers)
        if resolved.name == "process":
            tasks = [
                TraceShardTask(
                    spec=spec,
                    population=population,
                    callers=tuple(self._callers),
                    visits_per_epoch=self._visits_per_epoch,
                    noise_probability=self._noise_probability,
                    caller_coverage=self._caller_coverage,
                    user_ids=shard,
                    epochs=epochs,
                    query_epochs=query,
                )
                for shard in shards
            ]
            results = resolved.map(run_trace_shard, tasks)
        else:
            results = resolved.map(
                lambda shard: self._trace_shard(shard, epochs, query), shards
            )
        for buffers in results:
            merged.extend(buffers)

        elapsed = time.perf_counter() - started
        metrics = telemetry.metrics
        if metrics.enabled:
            metrics.counter("reid_users_total", len(ids))
            metrics.counter("reid_trace_shards_total", len(shards))
            metrics.gauge(
                "reid_trace_users_per_second",
                len(ids) / elapsed if elapsed else 0.0,
            )
        telemetry.recorder.record(
            SPAN_REID_TRACES,
            started,
            started + elapsed,
            users=len(ids),
            shards=len(shards),
            backend=resolved.name,
        )
        return merged

    def _trace_shard(
        self, user_ids: Sequence[int], epochs: int, query_epochs: tuple[int, ...]
    ) -> TraceBuffers:
        """Generate one contiguous shard of users into fresh buffers."""
        buffers = TraceBuffers(self._callers, query_epochs)
        # The hot loop skips the allow-list gate because the generator
        # enrols its own callers; were a caller somehow not allowed, the
        # reference path would observe and answer nothing for it, so fall
        # back to that path rather than silently diverge.
        if all(
            self._allowlist.check_caller(f"tags.{caller}").allowed
            for caller in self._callers
        ):
            for user_id in user_ids:
                self._trace_user_into(buffers, user_id, epochs, query_epochs)
        else:  # pragma: no cover — needs a corrupted allow-list database
            for user_id in user_ids:
                session = self.run(user_id, epochs)
                buffers.append_views(
                    user_id,
                    [
                        self.observed_topics(session, caller, list(query_epochs))
                        for caller in self._callers
                    ],
                )
        return buffers

    def _trace_user_into(
        self,
        buffers: TraceBuffers,
        user_id: int,
        epochs: int,
        query_epochs: tuple[int, ...],
    ) -> None:
        """One user through the batched hot path.

        Replays exactly the RNG draws :meth:`run` makes (weighted topic
        pick, site choice, coverage flips — in that order) against bare
        history state, skipping the session/manager/call-log object
        churn; then answers the queries straight off the selector.  The
        per-epoch answers are pure functions of (final history, caller,
        user seed), so the views are byte-identical to the reference
        path — ``tests/test_users_columnar.py`` pins it.
        """
        selector = EpochTopicsSelector(
            self._population.classifier,
            user_seed=self._population.seed * 1_000_003 + user_id,
            noise_probability=self._noise_probability,
        )
        history = BrowsingHistory()
        interests = self._population.profile(user_id).normalised()
        buffers.begin_user(user_id)

        if interests:
            topics = [topic for topic, _ in interests]
            weights = [weight for _, weight in interests]
            # random.choices(k=1) is bisect_right over the cumulative
            # weights with one random() draw, hi clamped to len-1 — the
            # same draw, with the accumulate lifted out of the visit loop.
            cum_weights = list(accumulate(weights))
            total = cum_weights[-1] + 0.0
            hi = len(topics) - 1
            user_rng = self._rng.child("user", user_id)
            draw = user_rng.random
            pick_site = user_rng.choice
            coverage = self._caller_coverage
            parties = self._caller_parties
            sites_for = self._population.sites_for
            record = history.record_observed_visit
            step = EPOCH_DURATION // (self._visits_per_epoch + 1)
            for epoch in range(epochs):
                epoch_start = epoch * EPOCH_DURATION
                for visit in range(self._visits_per_epoch):
                    topic = topics[bisect_right(cum_weights, draw() * total, 0, hi)]
                    pool = sites_for(topic)
                    if not pool:
                        continue
                    site = pick_site(pool)
                    at = epoch_start + visit * step
                    if coverage >= 1.0:
                        record(site, at, parties)
                    else:
                        record(
                            site,
                            at,
                            [
                                party
                                for party in parties
                                if user_rng.bernoulli(coverage)
                            ],
                        )

        answer = selector.topics_for_caller
        for party in self._caller_parties:
            for epoch in query_epochs:
                buffers.append_cell(
                    sorted(topic.topic_id for topic in answer(history, party, epoch))
                )


# -- picklable shard task / worker (the process-backend transport) -------------


@dataclass(frozen=True)
class TraceShardTask:
    """One trace shard's complete, picklable execution order."""

    spec: PopulationSpec | None
    population: Population | None  # by-value fallback when spec is None
    callers: tuple[str, ...]
    visits_per_epoch: int
    noise_probability: float
    caller_coverage: float
    user_ids: tuple[int, ...]
    epochs: int
    query_epochs: tuple[int, ...]


def run_trace_shard(task: TraceShardTask) -> TraceBuffers:
    """Worker-process entry point: rebuild the population, run the shard.

    Module-level so the spawn context can pickle it by reference; the
    per-process population cache makes repeated shards over one
    population pay the generator exactly once per worker.
    """
    if task.population is not None:
        population = task.population
    elif task.spec is not None:
        population = worker_population(task.spec)
    else:  # pragma: no cover — run_many always sets one of the two
        raise ValueError("trace shard task carries neither spec nor population")
    generator = TraceGenerator(
        population,
        callers=list(task.callers),
        visits_per_epoch=task.visits_per_epoch,
        noise_probability=task.noise_probability,
        caller_coverage=task.caller_coverage,
    )
    return generator._trace_shard(task.user_ids, task.epochs, task.query_epochs)
