"""Unit tests for the named deterministic random streams."""

from itertools import accumulate

import pytest
from hypothesis import given, strategies as st

from repro.util.rng import RngStream, derive_seed


class TestDeriveSeed:
    def test_same_inputs_same_seed(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_different_root_seeds_differ(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_different_names_differ(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_path_is_not_concatenation(self):
        # ("ab",) and ("a", "b") must be distinct paths.
        assert derive_seed(1, "ab") != derive_seed(1, "a", "b")

    def test_accepts_integer_names(self):
        assert derive_seed(1, 42) == derive_seed(1, 42)
        assert derive_seed(1, 42) == derive_seed(1, "42")

    def test_stable_across_calls(self):
        # A regression pin: the derivation must never change, or every
        # generated world changes under users' feet.
        assert derive_seed(0) == derive_seed(0)
        assert isinstance(derive_seed(0), int)


class TestRngStream:
    def test_reproducible_sequence(self):
        a = RngStream(7, "x")
        b = RngStream(7, "x")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_children_are_independent_of_parent_draws(self):
        parent_a = RngStream(7, "p")
        child_before = parent_a.child("c").random()
        parent_b = RngStream(7, "p")
        for _ in range(100):
            parent_b.random()  # consume parent draws
        child_after = parent_b.child("c").random()
        assert child_before == child_after

    def test_child_path_naming(self):
        stream = RngStream(1, "web").child("site", 5)
        assert stream.name == "web/site/5"

    def test_root_name(self):
        assert RngStream(1).name == "<root>"

    def test_bernoulli_extremes(self):
        stream = RngStream(1, "b")
        assert stream.bernoulli(0.0) is False
        assert stream.bernoulli(1.0) is True
        assert stream.bernoulli(-0.5) is False
        assert stream.bernoulli(1.5) is True

    def test_bernoulli_rate_approximation(self):
        stream = RngStream(1, "b")
        hits = sum(stream.bernoulli(0.3) for _ in range(20_000))
        assert 0.27 < hits / 20_000 < 0.33

    def test_randint_bounds(self):
        stream = RngStream(1, "i")
        values = {stream.randint(2, 5) for _ in range(200)}
        assert values == {2, 3, 4, 5}

    def test_weighted_choice_respects_zero_weight(self):
        stream = RngStream(1, "w")
        picks = {stream.weighted_choice(["a", "b"], [1.0, 0.0]) for _ in range(50)}
        assert picks == {"a"}

    def test_weighted_choice_length_mismatch(self):
        with pytest.raises(ValueError):
            RngStream(1, "w").weighted_choice(["a"], [1.0, 2.0])

    def test_zipf_rank_weights_shape(self):
        weights = RngStream(1).zipf_rank_weights(4, exponent=1.0)
        assert weights == [1.0, 0.5, pytest.approx(1 / 3), 0.25]

    def test_zipf_rank_weights_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            RngStream(1).zipf_rank_weights(0)

    def test_subset_probability_one_keeps_everything(self):
        stream = RngStream(1, "s")
        assert stream.subset([1, 2, 3], 1.0) == [1, 2, 3]

    def test_geometric_zero_mean(self):
        assert RngStream(1, "g").geometric(0.0) == 0

    def test_geometric_mean_approximation(self):
        stream = RngStream(1, "g")
        draws = [stream.geometric(5.0) for _ in range(20_000)]
        assert 4.6 < sum(draws) / len(draws) < 5.4

    def test_geometric_rejects_negative(self):
        with pytest.raises(ValueError):
            RngStream(1, "g").geometric(-1.0)

    def test_weighted_indices_in_range(self):
        stream = RngStream(1, "wi")
        cumulative = [1.0, 3.0, 6.0]
        picks = stream.weighted_indices(cumulative, 500)
        assert all(0 <= index < 3 for index in picks)

    def test_weighted_indices_distribution(self):
        stream = RngStream(1, "wi")
        cumulative = [1.0, 1.0 + 9.0]  # weights 1 and 9
        picks = stream.weighted_indices(cumulative, 5_000)
        share_second = sum(1 for index in picks if index == 1) / len(picks)
        assert 0.85 < share_second < 0.95

    def test_weighted_indices_empty_rejected(self):
        with pytest.raises(ValueError):
            RngStream(1).weighted_indices([], 1)

    def test_sample_distinct(self):
        stream = RngStream(1, "sa")
        picked = stream.sample(list(range(100)), 10)
        assert len(set(picked)) == 10

    def test_shuffle_is_permutation(self):
        stream = RngStream(1, "sh")
        items = list(range(20))
        shuffled = items[:]
        stream.shuffle(shuffled)
        assert sorted(shuffled) == items


# -- table-driven helpers draw what the per-call helpers draw ------------------

seeds = st.integers(0, 2**32)
#: Probabilities in (0, inf): the keep-helper's contract (zero odds are
#: dropped by its callers), values >= 1 included.
probabilities = st.floats(
    min_value=0.0, max_value=4.0, exclude_min=True, allow_nan=False
) | st.sampled_from([1.0, 1e-300, 1.0 - 2**-53, 1e300])
weights = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False) | st.just(0.0)


class TestTableHelpers:
    @given(seed=seeds, odds=st.lists(probabilities, max_size=40))
    def test_keep_each_matches_per_pair_bernoulli(self, seed, odds):
        pairs = [(index, probability) for index, probability in enumerate(odds)]
        table, per_pair = RngStream(seed, "k"), RngStream(seed, "k")
        kept = table.keep_each(pairs)
        assert kept == [item for item, p in pairs if per_pair.bernoulli(p)]
        assert table.random() == per_pair.random()

    @given(
        seed=seeds,
        weight_list=st.lists(weights, min_size=1, max_size=30).filter(
            lambda ws: sum(ws) > 0
        ),
        picks=st.integers(1, 5),
    )
    def test_pick_cumulative_matches_weighted_choice(self, seed, weight_list, picks):
        population = [f"item-{index}" for index in range(len(weight_list))]
        cumulative = tuple(accumulate(weight_list))
        table, per_call = RngStream(seed, "p"), RngStream(seed, "p")
        for _ in range(picks):
            assert table.pick_cumulative(
                population, cumulative
            ) == per_call.weighted_choice(population, weight_list)
        assert table.random() == per_call.random()
