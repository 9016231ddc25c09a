"""User role hierarchies.

The incentive formula divides by the sending user's rank ``R_u`` (1 is
the top of the hierarchy — a Sergeant in the paper's battlefield
example, with Soldiers at 2, and so on), so senior users' messages
carry larger promises.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["RoleHierarchy"]


class RoleHierarchy:
    """Named ranks with a population distribution.

    Args:
        levels: Rank names ordered from the top (rank 1) downward, e.g.
            ``("sergeant", "soldier")``.
        fractions: Population share per rank; must sum to 1.

    Example:
        >>> hierarchy = RoleHierarchy(("sergeant", "soldier"), (0.1, 0.9))
        >>> hierarchy.rank_of("sergeant")
        1
    """

    def __init__(
        self,
        levels: Sequence[str] = ("sergeant", "soldier"),
        fractions: Sequence[float] = (0.1, 0.9),
    ):
        if not levels:
            raise ConfigurationError("at least one role level is required")
        if len(levels) != len(fractions):
            raise ConfigurationError(
                f"{len(levels)} levels but {len(fractions)} fractions"
            )
        if len(set(levels)) != len(levels):
            raise ConfigurationError("role names must be unique")
        if not all(0.0 <= f <= 1.0 for f in fractions):
            raise ConfigurationError(
                f"fractions must be in [0, 1], got {tuple(fractions)!r}"
            )
        total = sum(fractions)
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(
                f"role fractions must sum to 1, got {total!r}"
            )
        self._levels: Tuple[str, ...] = tuple(levels)
        self._fractions: Tuple[float, ...] = tuple(float(f) for f in fractions)

    @property
    def levels(self) -> Tuple[str, ...]:
        """Rank names from the top down."""
        return self._levels

    def rank_of(self, level: str) -> int:
        """Numeric rank of ``level`` (1 = top).

        Raises:
            ConfigurationError: For unknown level names.
        """
        try:
            return self._levels.index(level) + 1
        except ValueError:
            raise ConfigurationError(f"unknown role level {level!r}") from None

    def name_of(self, rank: int) -> str:
        """Name of numeric ``rank``."""
        if not 1 <= rank <= len(self._levels):
            raise ConfigurationError(
                f"rank must be in [1, {len(self._levels)}], got {rank}"
            )
        return self._levels[rank - 1]

    def assign(
        self, node_ids: Sequence[int], rng: np.random.Generator
    ) -> Dict[int, int]:
        """Randomly assign a rank to every node per the distribution."""
        ids: List[int] = list(node_ids)
        ranks = rng.choice(
            np.arange(1, len(self._levels) + 1),
            size=len(ids),
            p=np.array(self._fractions),
        )
        return {node_id: int(rank) for node_id, rank in zip(ids, ranks)}
