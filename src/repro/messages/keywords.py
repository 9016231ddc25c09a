"""Keyword universe with ground-truth semantics.

The paper's Table 5.1 uses a pool of 200 social-interest keywords; every
node subscribes to 20 of them and every message is annotated with a
subset.  In the real system annotations come from Google Cloud Vision
plus human input; here each message carries a hidden set of *true
content keywords* drawn from the universe, so the system can judge — as
a human rater would — whether an added tag is relevant.

Keywords are plain strings such as ``"kw017"`` (or drawn from a small
thematic vocabulary when one is supplied).
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["KeywordUniverse", "DEFAULT_THEMES"]

#: A small thematic vocabulary used for readable examples (disaster /
#: battlefield scenarios from the paper's introduction).  When the pool
#: is larger than this list, synthetic ``kwNNN`` keywords fill the rest.
DEFAULT_THEMES: Tuple[str, ...] = (
    "flood", "fire", "earthquake", "collapsed-bridge", "road-blocked",
    "medical-aid", "food-supply", "water-supply", "shelter", "evacuation",
    "rescue-team", "helicopter", "convoy", "checkpoint", "sniper",
    "minefield", "enemy-patrol", "friendly-forces", "supply-drop",
    "radio-tower", "power-outage", "hospital", "casualty", "survivor",
    "landslide", "storm", "wildfire", "chemical-spill", "gas-leak",
    "building-damage", "tree", "car", "parking-lot", "garden", "books",
)


class KeywordUniverse:
    """A fixed pool of keywords with sampling helpers.

    Args:
        size: Number of keywords in the pool (paper default: 200).
        themes: Optional human-readable names used for the first
            ``len(themes)`` keywords.

    Example:
        >>> universe = KeywordUniverse(200)
        >>> len(universe)
        200
    """

    def __init__(self, size: int = 200, themes: Optional[Sequence[str]] = None):
        if size <= 0:
            raise ConfigurationError(f"keyword pool size must be > 0, got {size}")
        vocabulary = list(themes if themes is not None else DEFAULT_THEMES)
        if len(set(vocabulary)) != len(vocabulary):
            raise ConfigurationError("theme keywords must be unique")
        keywords: List[str] = vocabulary[:size]
        for index in range(len(keywords), size):
            keywords.append(f"kw{index:03d}")
        self._keywords: Tuple[str, ...] = tuple(keywords)
        self._index = {kw: i for i, kw in enumerate(self._keywords)}

    def __len__(self) -> int:
        return len(self._keywords)

    def __contains__(self, keyword: str) -> bool:
        return keyword in self._index

    def __iter__(self):
        return iter(self._keywords)

    @property
    def keywords(self) -> Tuple[str, ...]:
        """All keywords in the pool."""
        return self._keywords

    def index_of(self, keyword: str) -> int:
        """Position of ``keyword`` in the pool.

        Raises:
            ConfigurationError: If the keyword is not in the universe.
        """
        try:
            return self._index[keyword]
        except KeyError:
            raise ConfigurationError(
                f"keyword {keyword!r} is not in the universe"
            ) from None

    def sample(
        self, rng: np.random.Generator, count: int, *,
        exclude: Sequence[str] = (),
    ) -> List[str]:
        """Draw ``count`` distinct keywords uniformly without replacement.

        Args:
            rng: Source of randomness.
            count: Number of keywords to draw.
            exclude: Keywords that must not be drawn.

        Raises:
            ConfigurationError: If fewer than ``count`` keywords remain
                after exclusion.
        """
        candidates: Sequence[str] = self._keywords
        if exclude:
            excluded = set(exclude)
            candidates = [kw for kw in candidates if kw not in excluded]
        if count > len(candidates):
            raise ConfigurationError(
                f"cannot sample {count} keywords from a pool of "
                f"{len(candidates)} (after exclusions)"
            )
        if count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count}")
        chosen = rng.choice(len(candidates), size=count, replace=False)
        chosen.sort()
        return [candidates[i] for i in chosen.tolist()]

    def sample_interests(
        self, rng: np.random.Generator, count: int = 20
    ) -> FrozenSet[str]:
        """Draw a node's direct-interest subscription set (paper: 20)."""
        return frozenset(self.sample(rng, count))

    def sample_content(
        self, rng: np.random.Generator, count: int
    ) -> FrozenSet[str]:
        """Draw a message's ground-truth content keyword set."""
        return frozenset(self.sample(rng, count))

    def irrelevant_for(
        self,
        rng: np.random.Generator,
        content: Sequence[str],
        count: int,
    ) -> List[str]:
        """Draw keywords *not* describing ``content`` (malicious tags)."""
        return self.sample(rng, count, exclude=content)
