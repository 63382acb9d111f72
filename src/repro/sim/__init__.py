"""Discrete-event simulation kernel: scheduler, observation probe, RNG
streams, errors."""

from .engine import EventHandle, PeriodicTask, Simulator
from .errors import (ConfigurationError, QueryError, ReproError,
                     RoutingError, SimulationError)
from .probe import Probe, ProtocolObserver
from .rng import RngRegistry

__all__ = [
    "EventHandle", "PeriodicTask", "Probe", "ProtocolObserver", "Simulator",
    "ConfigurationError", "QueryError", "ReproError", "RoutingError",
    "SimulationError", "RngRegistry",
]
