"""Deterministic discrete-event simulation substrate."""

from .kernel import Event, Simulator
from .resources import ResourceStats, SerialDevice, WorkerPool
from .rng import RngRegistry

__all__ = [
    "Event",
    "ResourceStats",
    "RngRegistry",
    "SerialDevice",
    "Simulator",
    "WorkerPool",
]
