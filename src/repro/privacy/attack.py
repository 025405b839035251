"""Profile-linkage attacks.

Two parties (two websites, or two colluding ad-tech contexts) each hold,
per browser they saw, the sequence of per-epoch topic answers the Topics
API gave *them*.  Because the API picks a (stable, caller-specific) topic
from the same underlying top-5 each epoch, the two views of one user
correlate — and across enough epochs they identify the user, which is the
attack the literature quantifies.

A matcher scores a pair of views; :func:`link_profiles` ranks, for every
user in view A, all candidates in view B, and reports where the true
match landed.

Two ranking strategies produce identical ranks:

* ``dense`` — the reference O(N²) loop: every (user, candidate) pair is
  scored through the matcher object.  Kept as the small-N fallback and
  as the oracle the equivalence tests pin against.
* ``sparse`` — the population-scale path for the two built-in matchers:
  every user's view is encoded as one packed-int bitset over the observed
  topic alphabet (a pair score is one popcount of ANDed bitsets), and an
  inverted topic→users index prunes each user's candidate list to those
  sharing at least one topic.  The true match's score is computed once;
  a candidate scoring below it can never affect the rank, and with a
  positive true score only indexed candidates can reach it — so ranks
  (including the pessimistic tie handling) are byte-identical to the
  dense loop while the scored-pair count collapses from N² to the
  candidate total.  The ranking stage shards users over the shared
  execution backends.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from typing import Protocol, Sequence

from repro.obs import Telemetry
from repro.obs.spans import SPAN_REID_LINKAGE
from repro.util.executor import ExecutionBackend, split_work

#: One caller's view of one user: a topic-id tuple per queried epoch.
ProfileView = Sequence[tuple[int, ...]]

#: Below this population the dense loop wins (no encode/index overhead),
#: so ``strategy="auto"`` stays dense.
SPARSE_MIN_POPULATION = 64

#: Valid ``link_profiles`` strategies, in documentation order.
LINKAGE_STRATEGIES = ("auto", "dense", "sparse")


class ProfileMatcher(Protocol):
    """Scores how likely two views belong to the same user (higher = more)."""

    def score(self, view_a: ProfileView, view_b: ProfileView) -> float: ...


class TopicOverlapMatcher:
    """Jaccard similarity of the *unions* of topics across all epochs.

    Epoch alignment is ignored — robust when the two parties query at
    different times, and already strong because interests persist.
    """

    def score(self, view_a: ProfileView, view_b: ProfileView) -> float:
        union_a = {topic for epoch in view_a for topic in epoch}
        union_b = {topic for epoch in view_b for topic in epoch}
        if not union_a and not union_b:
            return 0.0
        intersection = union_a & union_b
        return len(intersection) / len(union_a | union_b)


class SequenceMatcher:
    """Epoch-aligned intersection count.

    Exploits timing: the same epoch's answers for both parties come from
    the same top-5, so per-epoch overlap is more discriminative than the
    global union when both parties query on the same schedule.
    """

    def score(self, view_a: ProfileView, view_b: ProfileView) -> float:
        total = 0.0
        for epoch_a, epoch_b in zip(view_a, view_b):
            overlap = set(epoch_a) & set(epoch_b)
            total += len(overlap)
        return total


@dataclass(frozen=True)
class LinkageResult:
    """Outcome of linking one population across two views."""

    population_size: int
    true_match_ranks: tuple[int, ...]  # rank 1 = correctly linked first

    @property
    def accuracy_top1(self) -> float:
        if not self.true_match_ranks:
            return 0.0
        return sum(1 for rank in self.true_match_ranks if rank == 1) / len(
            self.true_match_ranks
        )

    def accuracy_top_k(self, k: int) -> float:
        if not self.true_match_ranks:
            return 0.0
        return sum(1 for rank in self.true_match_ranks if rank <= k) / len(
            self.true_match_ranks
        )

    @property
    def mean_rank(self) -> float:
        if not self.true_match_ranks:
            return 0.0
        return sum(self.true_match_ranks) / len(self.true_match_ranks)

    @property
    def random_baseline(self) -> float:
        """Top-1 accuracy of guessing uniformly."""
        return 1.0 / self.population_size if self.population_size else 0.0


def _sparse_mode(matcher: ProfileMatcher) -> str | None:
    """Which bitset encoding replicates ``matcher``, if any.

    Exact types only: a subclass may override ``score`` and silently
    diverge from the popcount arithmetic, so it falls back to dense.
    """
    if type(matcher) is SequenceMatcher:
        return "sequence"
    if type(matcher) is TopicOverlapMatcher:
        return "overlap"
    return None


class _SparseLinkage:
    """One linkage instance encoded as bitsets plus an inverted index.

    Topics observed anywhere in either view are assigned bit positions;
    each user's view becomes one Python int, so a pair score is one
    popcount of two ANDed ints.  ``overlap`` encodes the user's topic
    union; ``sequence`` packs the per-epoch bitsets side by side, epoch
    ``e`` in the lane at bit offset ``e * width`` (``width`` the alphabet
    size), so the lanes never overlap and the popcount of an AND is the
    sum of per-epoch intersections over the epochs both views hold.
    The inverted index maps an (epoch, topic) cell — or a bare topic for
    ``overlap`` — to the B-side users holding it: exactly the candidates
    that can score above zero against an A-side view containing it.

    Scores reproduce the matcher arithmetic exactly: ``sequence`` sums
    are integers (the dense path accumulates the same integers into a
    float), and ``overlap`` divides the same two ints the dense path
    divides, so ``>=`` comparisons — and therefore ranks and ties — are
    byte-identical to scoring through the matcher objects.

    Instances pickle (ints, tuples, dicts of arrays), so ranking shards
    can travel to process-backend workers.
    """

    __slots__ = (
        "mode",
        "size",
        "a_bits",
        "b_bits",
        "a_topics",
        "a_counts",
        "b_counts",
        "index",
    )

    def __init__(
        self,
        views_a: "Sequence[ProfileView]",
        views_b: "Sequence[ProfileView]",
        mode: str,
    ) -> None:
        self.mode = mode
        self.size = len(views_a)
        bit_of: dict[int, int] = {}
        for view in (*views_a, *views_b):
            for epoch in view:
                for topic in epoch:
                    bit_of.setdefault(topic, len(bit_of))

        def bitset(topics: "Sequence[int] | set[int]", offset: int = 0) -> int:
            bits = 0
            for topic in topics:
                bits |= 1 << (bit_of[topic] + offset)
            return bits

        if mode == "sequence":
            # One int per user, epoch ``e`` in the lane at bit offset
            # ``e * width``; index keyed by (epoch, topic).
            width = len(bit_of)

            def packed(view: "tuple[tuple[int, ...], ...]") -> int:
                bits = 0
                for position, epoch in enumerate(view):
                    bits |= bitset(epoch, position * width)
                return bits

            self.a_topics = [
                tuple(tuple(set(epoch)) for epoch in view) for view in views_a
            ]
            b_topics = [tuple(tuple(set(epoch)) for epoch in view) for view in views_b]
            self.a_bits = [packed(view) for view in self.a_topics]
            self.b_bits = [packed(view) for view in b_topics]
            self.a_counts = ()
            self.b_counts = ()
            index: dict[tuple[int, int], array] = {}
            for user, view in enumerate(b_topics):
                for position, epoch in enumerate(view):
                    for topic in epoch:
                        key = (position, topic)
                        holders = index.get(key)
                        if holders is None:
                            holders = array("q")
                            index[key] = holders
                        holders.append(user)
            self.index = index
        else:
            # Per-user union bitsets; index keyed by bare topic.
            unions_a = [
                {topic for epoch in view for topic in epoch} for view in views_a
            ]
            unions_b = [
                {topic for epoch in view for topic in epoch} for view in views_b
            ]
            self.a_bits = [bitset(union) for union in unions_a]
            self.b_bits = [bitset(union) for union in unions_b]
            self.a_topics = [tuple(union) for union in unions_a]
            self.a_counts = tuple(len(union) for union in unions_a)
            self.b_counts = tuple(len(union) for union in unions_b)
            topic_index: dict[int, array] = {}
            for user, union in enumerate(unions_b):
                for topic in union:
                    holders = topic_index.get(topic)
                    if holders is None:
                        holders = array("q")
                        topic_index[topic] = holders
                    holders.append(user)
            self.index = topic_index

    # -- scoring ---------------------------------------------------------------

    def _score_overlap(self, user: int, candidate: int) -> float:
        count_a = self.a_counts[user]
        count_b = self.b_counts[candidate]
        if not count_a and not count_b:
            return 0.0
        intersection = (self.a_bits[user] & self.b_bits[candidate]).bit_count()
        return intersection / (count_a + count_b - intersection)

    def _candidates(self, user: int) -> set[int]:
        """B-side users able to score above zero against ``user``'s view."""
        index = self.index
        found: set[int] = set()
        if self.mode == "sequence":
            for position, topics in enumerate(self.a_topics[user]):
                for topic in topics:
                    holders = index.get((position, topic))
                    if holders is not None:
                        found.update(holders)
        else:
            for topic in self.a_topics[user]:
                holders = index.get(topic)
                if holders is not None:
                    found.update(holders)
        found.discard(user)
        return found

    def ranks(self, start: int, stop: int) -> tuple[array, int, int]:
        """True-match ranks for users ``start..stop``.

        Returns ``(ranks, pairs_scored, candidates_pruned)`` so callers
        can aggregate work metrics across shards.
        """
        sequence = self.mode == "sequence"
        score = self._score_overlap
        a_bits = self.a_bits
        b_bits = self.b_bits
        impostors = self.size - 1
        ranks = array("q")
        pairs_scored = 0
        candidates_pruned = 0
        for user in range(start, stop):
            bits = a_bits[user]
            if sequence:
                true_score = (bits & b_bits[user]).bit_count()
            else:
                true_score = score(user, user)
            pairs_scored += 1
            if true_score <= 0:
                # Every impostor scores >= 0 >= the true score, so the
                # pessimistic tie rule puts the true match dead last —
                # without scoring a single pair.
                ranks.append(self.size)
                candidates_pruned += impostors
                continue
            candidates = self._candidates(user)
            # Unindexed candidates share no topic cell, score exactly 0,
            # and can never reach a positive true score.
            candidates_pruned += impostors - len(candidates)
            pairs_scored += len(candidates)
            if sequence:
                better_or_equal = sum(
                    1
                    for candidate in candidates
                    if (bits & b_bits[candidate]).bit_count() >= true_score
                )
            else:
                better_or_equal = sum(
                    1
                    for candidate in candidates
                    if score(user, candidate) >= true_score
                )
            ranks.append(better_or_equal + 1)
        return ranks, pairs_scored, candidates_pruned


def _rank_shard(task: "tuple[_SparseLinkage, int, int]") -> tuple[array, int, int]:
    """Process-backend worker: rank one contiguous user shard."""
    linkage, start, stop = task
    return linkage.ranks(start, stop)


def _dense_ranks(
    views_a: "Sequence[ProfileView]",
    views_b: "Sequence[ProfileView]",
    matcher: ProfileMatcher,
) -> tuple[list[int], int]:
    """The reference O(N²) ranking loop (and its scored-pair count)."""
    ranks: list[int] = []
    for user, view_a in enumerate(views_a):
        true_score = matcher.score(view_a, views_b[user])
        better_or_equal = sum(
            1
            for candidate, view_b in enumerate(views_b)
            if candidate != user and matcher.score(view_a, view_b) >= true_score
        )
        ranks.append(better_or_equal + 1)
    return ranks, len(views_a) * len(views_a)


def link_profiles(
    views_a: "Sequence[ProfileView]",
    views_b: "Sequence[ProfileView]",
    matcher: ProfileMatcher,
    *,
    strategy: str = "auto",
    backend: "str | ExecutionBackend | None" = None,
    max_workers: int | None = None,
    shard_count: int | None = None,
    telemetry: Telemetry = Telemetry.OFF,
) -> LinkageResult:
    """Attack: for each user's view in A, rank all B candidates.

    ``views_a[i]`` and ``views_b[i]`` belong to the same user — the ground
    truth the returned ranks are measured against.  Ties rank the true
    match pessimistically *behind* equal-scoring impostors, so reported
    accuracy never flatters the attack.

    ``strategy`` picks the ranking path: ``"dense"`` is the reference
    O(N²) matcher loop, ``"sparse"`` the bitset/inverted-index path (built
    -in matchers only), and ``"auto"`` (default) uses sparse for supported
    matchers once the population reaches ``SPARSE_MIN_POPULATION``.  Both
    paths return identical ranks.  The sparse ranking stage shards users
    over the shared execution backends (``backend``/``max_workers``/
    ``shard_count``, same semantics as trace generation).
    """
    if len(views_a) != len(views_b):
        raise ValueError("views must cover the same population")
    if strategy not in LINKAGE_STRATEGIES:
        raise ValueError(
            f"unknown linkage strategy {strategy!r}; expected one of "
            f"{', '.join(LINKAGE_STRATEGIES)}"
        )
    size = len(views_a)
    mode = _sparse_mode(matcher)
    if strategy == "sparse" and mode is None:
        raise ValueError(
            "sparse linkage replicates only the built-in matchers "
            "(SequenceMatcher, TopicOverlapMatcher); pass strategy='dense' "
            f"for {type(matcher).__name__}"
        )
    use_sparse = mode is not None and (
        strategy == "sparse" or (strategy == "auto" and size >= SPARSE_MIN_POPULATION)
    )

    started = time.perf_counter()
    backend_name = "serial"
    if not use_sparse:
        ranks, pairs_scored = _dense_ranks(views_a, views_b, matcher)
        candidates_pruned = 0
        effective = "dense"
    else:
        linkage = _SparseLinkage(views_a, views_b, mode or "sequence")
        resolved, bounds = split_work(size, backend, max_workers, shard_count)
        backend_name = resolved.name
        if resolved.name == "process":
            results = resolved.map(
                _rank_shard, [(linkage, lo, hi) for lo, hi in bounds]
            )
        else:
            results = resolved.map(lambda b: linkage.ranks(b[0], b[1]), bounds)
        ranks = []
        pairs_scored = 0
        candidates_pruned = 0
        for shard_ranks, shard_pairs, shard_pruned in results:
            ranks.extend(shard_ranks)
            pairs_scored += shard_pairs
            candidates_pruned += shard_pruned
        effective = "sparse"

    elapsed = time.perf_counter() - started
    metrics = telemetry.metrics
    if metrics.enabled:
        metrics.counter("reid_pairs_scored_total", pairs_scored)
        metrics.counter("reid_candidates_pruned_total", candidates_pruned)
        metrics.gauge(
            "reid_rank_users_per_second", size / elapsed if elapsed else 0.0
        )
    telemetry.recorder.record(
        SPAN_REID_LINKAGE,
        started,
        started + elapsed,
        users=size,
        strategy=effective,
        backend=backend_name,
        pairs_scored=pairs_scored,
        candidates_pruned=candidates_pruned,
    )
    return LinkageResult(population_size=size, true_match_ranks=tuple(ranks))
