"""Discrete-event simulation substrate.

This package provides the generic machinery every other subsystem is
built on: a deterministic event queue driven by an integer-nanosecond
virtual clock (:mod:`repro.sim.engine`), time-unit constants
(:mod:`repro.sim.units`) and seeded random-stream management
(:mod:`repro.sim.rng`).
"""

from repro.sim.engine import Event, Simulator
from repro.sim.rng import RngFactory
from repro.sim.units import MS, NS, SEC, US, fmt_time

__all__ = [
    "Event",
    "Simulator",
    "RngFactory",
    "NS",
    "US",
    "MS",
    "SEC",
    "fmt_time",
]
