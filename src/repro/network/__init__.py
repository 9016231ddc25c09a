"""Network substrate: nodes, buffers, links, energy, and the world."""

from repro.network.buffer import DropPolicy, MessageBuffer
from repro.network.energy import EnergyModel
from repro.network.link import Link, Transfer
from repro.network.node import Node
from repro.network.world_state import WorldState

__all__ = [
    "DropPolicy",
    "MessageBuffer",
    "EnergyModel",
    "Link",
    "Transfer",
    "Node",
    "WorldState",
]
