"""Epoch topic computation and per-caller answer selection.

Implements §2.1 of the paper (and the Topics API spec it summarises):

* at each epoch boundary, the browser computes the **top 5** topics of the
  epoch from the (classified) sites the user visited, padding with random
  taxonomy topics when history is thin;
* a call returns up to **three topics, one per each of the last three
  epochs**, each chosen *randomly but stably* among that epoch's top 5 for
  the calling site;
* with **5% probability** the epoch's answer is replaced by a uniformly
  random taxonomy topic — the plausible-deniability noise;
* a real (non-noise) topic is only returned to a caller that observed the
  user on a site contributing to that epoch — the noise topic is returned
  regardless, which is exactly what makes it deniable.
"""

from __future__ import annotations

from collections import Counter

from repro.browser.topics.history import BrowsingHistory
from repro.browser.topics.types import EpochTopics, Topic
from repro.taxonomy.classifier import SiteClassifier
from repro.taxonomy.tree import TaxonomyTree
from repro.util.text import stable_digest

#: Number of top topics kept per epoch.
TOP_TOPICS_PER_EPOCH = 5

#: Number of past epochs a call draws from.
EPOCHS_PER_CALL = 3

#: Probability an epoch's answer is replaced by a random topic.
NOISE_PROBABILITY = 0.05

_HASH_SPACE = float(2**64)


class EpochTopicsSelector:
    """Computes epoch digests and answers callers."""

    def __init__(
        self,
        classifier: SiteClassifier,
        user_seed: int,
        taxonomy: TaxonomyTree | None = None,
        taxonomy_version: str = "2-repro",
        model_version: str = "1",
        noise_probability: float = NOISE_PROBABILITY,
    ) -> None:
        if not 0.0 <= noise_probability <= 1.0:
            raise ValueError(f"noise probability out of range: {noise_probability}")
        self._classifier = classifier
        self._taxonomy = taxonomy or classifier.taxonomy
        #: the taxonomy's ids, ascending: the pad and noise-topic alphabet.
        self._all_ids = self._taxonomy.all_ids()
        self._user_seed = user_seed
        self._taxonomy_version = taxonomy_version
        self._model_version = model_version
        self._noise_probability = noise_probability
        self._epoch_cache: dict[int, EpochTopics] = {}
        #: sites contributing each top topic, per epoch — needed for the
        #: observed-by filter.
        self._topic_sites_cache: dict[int, dict[int, set[str]]] = {}
        #: per-epoch memo of the answer each caller gets; an answer is a
        #: pure function of (history state for the epoch, caller, seed),
        #: and every history write invalidates its epoch (see
        #: :meth:`invalidate_epoch`), so the memo can never go stale.
        self._answer_cache: dict[int, dict[str, Topic | None]] = {}

    # -- epoch digests ----------------------------------------------------------

    def epoch_topics(self, history: BrowsingHistory, epoch: int) -> EpochTopics:
        """The epoch's top-5 digest (cached; history for a past epoch is
        immutable once the epoch has ended)."""
        cached = self._epoch_cache.get(epoch)
        if cached is not None:
            return cached

        counts: Counter[int] = Counter()
        topic_sites: dict[int, set[str]] = {}
        for site in history.eligible_sites(epoch):
            weight = max(1, history.visit_count(epoch, site))
            for topic_id in self._classifier.classify(site):
                counts[topic_id] += weight
                topic_sites.setdefault(topic_id, set()).add(site)

        ranked = [topic for topic, _ in counts.most_common(TOP_TOPICS_PER_EPOCH)]
        padded = len(ranked) < TOP_TOPICS_PER_EPOCH
        position = 0
        all_ids = self._all_ids
        while len(ranked) < TOP_TOPICS_PER_EPOCH:
            filler = all_ids[
                stable_digest(str(self._user_seed), "pad", str(epoch), str(position))
                % len(all_ids)
            ]
            position += 1
            if filler not in ranked:
                ranked.append(filler)

        digest = EpochTopics(epoch=epoch, top_topics=tuple(ranked), padded=padded)
        self._epoch_cache[epoch] = digest
        self._topic_sites_cache[epoch] = topic_sites
        return digest

    def invalidate_epoch(self, epoch: int) -> None:
        """Drop a cached digest (used when observing within a live epoch)."""
        self._epoch_cache.pop(epoch, None)
        self._topic_sites_cache.pop(epoch, None)
        self._answer_cache.pop(epoch, None)

    # -- per-caller answers -------------------------------------------------------

    def topics_for_caller(
        self, history: BrowsingHistory, caller: str, current_epoch: int
    ) -> list[Topic]:
        """The (up to three) topics returned to ``caller`` right now.

        One candidate per epoch in [current-3, current-1]; duplicates are
        collapsed, per spec.
        """
        answers: list[Topic] = []
        seen_ids: set[int] = set()
        for epoch in range(current_epoch - EPOCHS_PER_CALL, current_epoch):
            per_epoch = self._answer_cache.setdefault(epoch, {})
            if caller in per_epoch:
                topic = per_epoch[caller]
            else:
                topic = per_epoch[caller] = self._epoch_answer(
                    history, caller, epoch
                )
            if topic is None or topic.topic_id in seen_ids:
                continue
            seen_ids.add(topic.topic_id)
            answers.append(topic)
        return answers

    def _epoch_answer(
        self, history: BrowsingHistory, caller: str, epoch: int
    ) -> Topic | None:
        if self._noise_fraction(caller, epoch) < self._noise_probability:
            return self._random_topic(caller, epoch)

        # A caller that observed the user on nothing this epoch gets no
        # topic for it — that is the situation of every caller against the
        # paper's one-day-old crawl profile.
        if not history.caller_active(epoch, caller):
            return None

        digest = self.epoch_topics(history, epoch)
        pick = digest.top_topics[
            stable_digest(str(self._user_seed), "pick", str(epoch), caller)
            % TOP_TOPICS_PER_EPOCH
        ]
        contributing = self._topic_sites_cache.get(epoch, {}).get(pick)
        if contributing is None:
            # A random padding slot: returned to any active caller — the
            # pad exists precisely so thin histories are not detectable.
            return Topic(
                topic_id=pick,
                taxonomy_version=self._taxonomy_version,
                model_version=self._model_version,
                is_noise=False,
            )
        if not history.caller_observed_any(epoch, caller, sorted(contributing)):
            return None
        return Topic(
            topic_id=pick,
            taxonomy_version=self._taxonomy_version,
            model_version=self._model_version,
            is_noise=False,
        )

    def _noise_fraction(self, caller: str, epoch: int) -> float:
        return (
            stable_digest(str(self._user_seed), "noise", str(epoch), caller)
            / _HASH_SPACE
        )

    def _random_topic(self, caller: str, epoch: int) -> Topic:
        all_ids = self._all_ids
        topic_id = all_ids[
            stable_digest(str(self._user_seed), "noise-topic", str(epoch), caller)
            % len(all_ids)
        ]
        return Topic(
            topic_id=topic_id,
            taxonomy_version=self._taxonomy_version,
            model_version=self._model_version,
            is_noise=True,
        )
