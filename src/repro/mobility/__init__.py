"""Mobility models and contact detection.

Replaces the mobility + connectivity layer of the ONE simulator: node
positions evolve under a mobility model (the paper uses Random Waypoint),
and a range-based contact detector converts position samples into a
:class:`~repro.mobility.trace.ContactTrace` that the protocol simulation
consumes.
"""

from repro.mobility.base import MobilityModel
from repro.mobility.composite import (
    CompositePopulationModel,
    make_model,
    make_population_model,
)
from repro.mobility.contact import ContactDetector, detect_contacts, hetero_pairs
from repro.mobility.manhattan import ManhattanGrid
from repro.mobility.one_trace import load_one_trace, save_one_trace
from repro.mobility.random_walk import RandomWalk
from repro.mobility.random_waypoint import RandomWaypoint
from repro.mobility.stationary import Stationary
from repro.mobility.trace import Contact, ContactTrace

__all__ = [
    "MobilityModel",
    "RandomWaypoint",
    "RandomWalk",
    "Stationary",
    "ManhattanGrid",
    "Contact",
    "ContactTrace",
    "ContactDetector",
    "CompositePopulationModel",
    "detect_contacts",
    "hetero_pairs",
    "make_model",
    "make_population_model",
    "load_one_trace",
    "save_one_trace",
]
