"""Non-fixture test helpers (importable as ``tests.helpers``)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.messages.message import Message, Priority
from repro.mobility.trace import Contact, ContactTrace
from repro.network.node import Node
from repro.network.world import World
from repro.routing.base import Router
from repro.sim.engine import Engine
from repro.sim.rng import RandomStreams


def make_message(
    source: int = 0,
    created_at: float = 0.0,
    *,
    size: int = 1_000,
    quality: float = 0.8,
    priority: Priority = Priority.MEDIUM,
    content: Sequence[str] = ("flood", "rescue-team"),
    keywords: Optional[Sequence[str]] = None,
    uuid: Optional[str] = None,
) -> Message:
    """A small message with sane defaults for unit tests."""
    if keywords is None:
        keywords = tuple(content)
    return Message(
        source=source,
        created_at=created_at,
        size=size,
        quality=quality,
        priority=priority,
        content=frozenset(content),
        keywords=tuple(keywords),
        uuid=uuid,
    )


def make_world(
    interests: Dict[int, Sequence[str]],
    router: Router,
    *,
    link_speed: float = 1_000.0,
    buffer_capacity: int = 1_000_000,
    ttl: Optional[float] = None,
    seed: int = 7,
    roles: Optional[Dict[int, int]] = None,
    behaviors: Optional[Dict[int, object]] = None,
) -> World:
    """A world over explicitly scripted nodes (no mobility needed).

    Contacts are driven by hand-built :class:`ContactTrace` objects via
    ``world.load_contact_trace`` or by calling the internal contact
    hooks directly in tests.
    """
    nodes: List[Node] = []
    for node_id, keywords in sorted(interests.items()):
        nodes.append(
            Node(
                node_id,
                keywords,
                role=(roles or {}).get(node_id, 1),
                buffer_capacity=buffer_capacity,
                behavior=(behaviors or {}).get(node_id),
            )
        )
    return World(
        Engine(),
        nodes,
        router,
        link_speed=link_speed,
        streams=RandomStreams(seed),
        ttl=ttl,
    )


def contact(start: float, end: float, a: int, b: int) -> Contact:
    """Shorthand contact constructor."""
    return Contact(start, end, a, b)


def trace_of(*contacts: Contact) -> ContactTrace:
    """Shorthand trace constructor."""
    return ContactTrace(contacts)


def assert_store_invariants(store) -> None:
    """The interest store invariants the batched decay and growth rely on.

    Over every table row of ``store`` (an ``InterestStore``): absent cells
    hold exactly ``0.0``; present weights lie in ``(0, 1]``; direct cells
    are present with weight at least 0.5; and no weight is ``-0.0``.
    """
    rows = len(store)
    weights = store._w[:rows]
    present = store._p[:rows]
    direct = store._d[:rows]
    absent = weights[~present]
    assert not absent.any(), "an absent cell holds a weight"
    kept = weights[present]
    assert (kept > 0.0).all() and (kept <= 1.0).all(), (
        "a present weight is outside (0, 1]"
    )
    assert not (direct & ~present).any(), "a direct cell is absent"
    assert (weights[direct] >= 0.5).all(), "a direct weight is under 0.5"
    assert not np.signbit(weights).any(), "a weight is -0.0"
