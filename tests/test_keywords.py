"""Unit tests for the keyword universe."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.messages.keywords import DEFAULT_THEMES, KeywordUniverse


class TestConstruction:
    def test_size(self):
        assert len(KeywordUniverse(200)) == 200

    def test_small_pool_uses_theme_prefix(self):
        universe = KeywordUniverse(5)
        assert universe.keywords == DEFAULT_THEMES[:5]

    def test_large_pool_pads_with_synthetic_keywords(self):
        universe = KeywordUniverse(50)
        assert "kw049" in universe
        assert len(set(universe.keywords)) == 50

    def test_custom_themes(self):
        universe = KeywordUniverse(3, themes=("a", "b", "c", "d"))
        assert universe.keywords == ("a", "b", "c")

    def test_duplicate_themes_rejected(self):
        with pytest.raises(ConfigurationError):
            KeywordUniverse(3, themes=("a", "a"))

    def test_zero_size_rejected(self):
        with pytest.raises(ConfigurationError):
            KeywordUniverse(0)

    def test_membership_and_index(self):
        universe = KeywordUniverse(10)
        keyword = universe.keywords[3]
        assert keyword in universe
        assert universe.index_of(keyword) == 3
        with pytest.raises(ConfigurationError):
            universe.index_of("not-a-keyword")


class TestSampling:
    def test_sample_distinct(self, rng):
        universe = KeywordUniverse(30)
        picked = universe.sample(rng, 20)
        assert len(picked) == 20
        assert len(set(picked)) == 20
        assert all(k in universe for k in picked)

    def test_sample_respects_exclusions(self, rng):
        universe = KeywordUniverse(10)
        excluded = universe.keywords[:5]
        picked = universe.sample(rng, 5, exclude=excluded)
        assert set(picked) == set(universe.keywords[5:])

    def test_oversample_rejected(self, rng):
        universe = KeywordUniverse(5)
        with pytest.raises(ConfigurationError):
            universe.sample(rng, 6)

    def test_negative_count_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            KeywordUniverse(5).sample(rng, -1)

    def test_sample_interests_returns_frozenset(self, rng):
        interests = KeywordUniverse(30).sample_interests(rng, 7)
        assert isinstance(interests, frozenset)
        assert len(interests) == 7

    def test_irrelevant_for_avoids_content(self, rng):
        universe = KeywordUniverse(20)
        content = list(universe.keywords[:5])
        tags = universe.irrelevant_for(rng, content, 10)
        assert not set(tags) & set(content)

    def test_sampling_is_deterministic(self):
        import numpy as np

        universe = KeywordUniverse(30)
        a = universe.sample(np.random.default_rng(1), 10)
        b = universe.sample(np.random.default_rng(1), 10)
        assert a == b


def reference_sample(universe, rng, count, exclude=()):
    """``KeywordUniverse.sample`` as it was: a filtered pool copy on
    every call and a Python sort of the chosen NumPy scalars."""
    excluded = set(exclude)
    candidates = [kw for kw in universe.keywords if kw not in excluded]
    if count > len(candidates):
        raise ConfigurationError("oversample")
    if count < 0:
        raise ConfigurationError("negative count")
    chosen = rng.choice(len(candidates), size=count, replace=False)
    return [candidates[i] for i in sorted(chosen)]


class TestSampleMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        size=st.integers(min_value=1, max_value=60),
        data=st.data(),
    )
    def test_same_keywords_and_same_draws(self, seed, size, data):
        universe = KeywordUniverse(size)
        exclude = data.draw(st.one_of(
            st.just(()),
            st.lists(
                st.sampled_from(universe.keywords + ("not-in-pool",)),
                max_size=size,
            ),
            st.frozensets(st.sampled_from(universe.keywords), max_size=size),
        ))
        left = size - len(set(exclude) & set(universe.keywords))
        count = data.draw(st.integers(min_value=0, max_value=left))
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        assert universe.sample(ours, count, exclude=exclude) == (
            reference_sample(universe, theirs, count, exclude)
        )
        # Both consumed exactly the same draws.
        assert ours.random() == theirs.random()
