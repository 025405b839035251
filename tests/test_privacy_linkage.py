"""Sparse linkage: exact equivalence with the dense reference ranker.

The sparse path's whole value proposition is that it changes the cost,
not the answer — so the pin here is byte-identical ``true_match_ranks``
(including the pessimistic tie handling) on adversarial random views,
for both built-in matchers, every backend, and any shard count.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import MetricsRegistry, Recorder, Telemetry
from repro.obs.spans import SPAN_REID_LINKAGE
from repro.privacy.attack import (
    LINKAGE_STRATEGIES,
    SPARSE_MIN_POPULATION,
    SequenceMatcher,
    TopicOverlapMatcher,
    link_profiles,
)

#: Tiny topic alphabet + short epochs → dense tie structure, the regime
#: where a subtly wrong comparison would surface immediately.
view = st.lists(
    st.lists(st.integers(1, 6), max_size=3).map(tuple), min_size=1, max_size=3
)
paired_views = st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.tuples(
        st.lists(view, min_size=n, max_size=n),
        st.lists(view, min_size=n, max_size=n),
    )
)

#: Wide alphabet + up to 8 epochs → a packed sequence view often runs
#: past one 64-bit word, and past 64 topics per lane; ids 1–8 recur, so
#: pairs still share topics and tie.  A and B draw their epoch counts
#: independently, so views of unequal length meet, and epochs may be empty.
wide_topic = st.one_of(st.integers(1, 8), st.integers(1, 700))
wide_view = st.lists(
    st.lists(wide_topic, max_size=6).map(tuple), min_size=1, max_size=8
)
wide_paired_views = st.lists(
    st.tuples(wide_view, wide_view), min_size=1, max_size=12
).map(lambda pairs: ([a for a, _ in pairs], [b for _, b in pairs]))


class TestSparseDenseEquivalence:
    @given(paired_views)
    @settings(max_examples=120, deadline=None)
    def test_sequence_matcher_ranks_identical(self, views):
        views_a, views_b = views
        dense = link_profiles(views_a, views_b, SequenceMatcher(), strategy="dense")
        sparse = link_profiles(
            views_a, views_b, SequenceMatcher(), strategy="sparse", backend="serial"
        )
        assert dense.true_match_ranks == sparse.true_match_ranks

    @given(paired_views)
    @settings(max_examples=120, deadline=None)
    def test_overlap_matcher_ranks_identical(self, views):
        views_a, views_b = views
        dense = link_profiles(
            views_a, views_b, TopicOverlapMatcher(), strategy="dense"
        )
        sparse = link_profiles(
            views_a,
            views_b,
            TopicOverlapMatcher(),
            strategy="sparse",
            backend="serial",
        )
        assert dense.true_match_ranks == sparse.true_match_ranks

    @pytest.mark.parametrize(
        "matcher",
        [SequenceMatcher(), TopicOverlapMatcher()],
        ids=lambda matcher: type(matcher).__name__,
    )
    @given(views=wide_paired_views)
    @settings(max_examples=50, deadline=None)
    def test_wide_alphabet_ranks_identical(self, matcher, views):
        views_a, views_b = views
        dense = link_profiles(views_a, views_b, matcher, strategy="dense")
        sparse = link_profiles(
            views_a, views_b, matcher, strategy="sparse", backend="serial"
        )
        assert dense.true_match_ranks == sparse.true_match_ranks

    @given(paired_views, st.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_shard_count_invariant(self, views, shard_count):
        views_a, views_b = views
        whole = link_profiles(
            views_a, views_b, SequenceMatcher(), strategy="sparse", backend="serial"
        )
        sharded = link_profiles(
            views_a,
            views_b,
            SequenceMatcher(),
            strategy="sparse",
            backend="serial",
            shard_count=shard_count,
        )
        assert whole.true_match_ranks == sharded.true_match_ranks

    def test_empty_views_rank_dead_last_on_both_paths(self):
        views = [[()] for _ in range(9)]
        for matcher in (SequenceMatcher(), TopicOverlapMatcher()):
            dense = link_profiles(views, views, matcher, strategy="dense")
            sparse = link_profiles(
                views, views, matcher, strategy="sparse", backend="serial"
            )
            assert dense.true_match_ranks == sparse.true_match_ranks == (9,) * 9

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_backends_identical(self, backend):
        views_a = [[(u % 5, u % 3), (u % 7,)] for u in range(40)]
        views_b = [[(u % 5,), (u % 7, u % 2)] for u in range(40)]
        dense = link_profiles(views_a, views_b, SequenceMatcher(), strategy="dense")
        sparse = link_profiles(
            views_a,
            views_b,
            SequenceMatcher(),
            strategy="sparse",
            backend=backend,
            max_workers=2,
            shard_count=3,
        )
        assert dense.true_match_ranks == sparse.true_match_ranks


class TestStrategySelection:
    def test_auto_stays_dense_below_threshold(self):
        views = [[(1,)] for _ in range(SPARSE_MIN_POPULATION - 1)]
        metrics = MetricsRegistry()
        result = link_profiles(
            views, views, SequenceMatcher(), telemetry=Telemetry(metrics=metrics)
        )
        n = len(views)
        assert result.population_size == n
        # Dense scores every pair, including each user's true pair.
        snapshot = metrics.snapshot()
        assert snapshot.counter_total("reid_pairs_scored_total") == n * n
        assert snapshot.counter_total("reid_candidates_pruned_total") == 0

    def test_auto_goes_sparse_at_threshold(self):
        views = [[(user,)] for user in range(SPARSE_MIN_POPULATION)]
        metrics = MetricsRegistry()
        result = link_profiles(
            views,
            views,
            SequenceMatcher(),
            backend="serial",
            telemetry=Telemetry(metrics=metrics),
        )
        n = len(views)
        assert result.true_match_ranks == (1,) * n
        snapshot = metrics.snapshot()
        # Disjoint singleton views: each user scores only its true pair
        # and prunes every impostor.
        assert snapshot.counter_total("reid_pairs_scored_total") == n
        assert snapshot.counter_total("reid_candidates_pruned_total") == n * (n - 1)

    def test_custom_matcher_falls_back_to_dense(self):
        class InvertedMatcher:
            def score(self, view_a, view_b):
                return -SequenceMatcher().score(view_a, view_b)

        views = [[(user % 3,)] for user in range(SPARSE_MIN_POPULATION)]
        result = link_profiles(views, views, InvertedMatcher())
        dense = link_profiles(views, views, InvertedMatcher(), strategy="dense")
        assert result.true_match_ranks == dense.true_match_ranks

    def test_sparse_rejects_custom_matcher(self):
        class WeirdMatcher:
            def score(self, view_a, view_b):
                return 0.0

        with pytest.raises(ValueError, match="built-in matchers"):
            link_profiles([[(1,)]], [[(1,)]], WeirdMatcher(), strategy="sparse")

    def test_matcher_subclass_falls_back_to_dense(self):
        class ShiftedSequenceMatcher(SequenceMatcher):
            def score(self, view_a, view_b):
                return super().score(view_a, view_b) + 1.0

        views = [[(user % 2,)] for user in range(SPARSE_MIN_POPULATION)]
        result = link_profiles(views, views, ShiftedSequenceMatcher())
        dense = link_profiles(
            views, views, ShiftedSequenceMatcher(), strategy="dense"
        )
        assert result.true_match_ranks == dense.true_match_ranks

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown linkage strategy"):
            link_profiles([], [], SequenceMatcher(), strategy="quantum")
        assert "sparse" in LINKAGE_STRATEGIES

    def test_mismatched_population_rejected(self):
        with pytest.raises(ValueError, match="same population"):
            link_profiles([[(1,)]], [], SequenceMatcher())


class TestObservability:
    def test_span_records_strategy_and_work(self):
        recorder = Recorder()
        views = [[(user % 4,)] for user in range(SPARSE_MIN_POPULATION)]
        link_profiles(
            views,
            views,
            SequenceMatcher(),
            backend="serial",
            telemetry=Telemetry(recorder=recorder),
        )
        (span,) = recorder.spans(SPAN_REID_LINKAGE)
        assert span.fields["strategy"] == "sparse"
        assert span.fields["users"] == SPARSE_MIN_POPULATION
        assert span.fields["pairs_scored"] > 0
        assert span.fields["candidates_pruned"] >= 0
