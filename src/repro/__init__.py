"""repro — reproduction of DIKNN (Wu, Chuang, Chen & Chen, ICDE 2007).

An itinerary-based KNN query processing algorithm for mobile sensor
networks, together with the full simulation substrate it is evaluated on:
a discrete-event kernel, an abstract CSMA MAC with energy accounting,
random-waypoint mobility, GPSR geographic routing, and the KPT and
Peer-tree competitor protocols.

Quickstart::

    from repro import SimulationConfig, build_simulation, DIKNNProtocol
    from repro import run_query, Vec2

    handle = build_simulation(SimulationConfig(seed=7), DIKNNProtocol())
    handle.warm_up()
    outcome = run_query(handle, Vec2(60, 60), k=20)
    print(outcome.latency, outcome.pre_accuracy, outcome.energy_j)
"""

from .baselines import (FloodingConfig, FloodingProtocol, KPTConfig,
                        KPTProtocol, PeerTreeConfig, PeerTreeProtocol)
from .core import (DIKNNConfig, DIKNNProtocol, KNNQuery, QueryIdAllocator,
                   QueryProtocol, QueryResult, knnb_radius,
                   per_run_allocator)
from .experiments import (SimulationConfig, SimulationHandle,
                          build_simulation, defaults_table, fig8_sweep,
                          fig9_sweep, resilience_sweep, run_query,
                          run_workload)
from .faults import FaultInjector, FaultPlan
from .geometry import Rect, Vec2
from .metrics import (QueryOutcome, RunMetrics, post_accuracy, pre_accuracy,
                      true_knn)
from .net import Network, SensorNode
from .obs import (KernelProfiler, MetricsRegistry, SpanTracker, Telemetry,
                  TraceLog, enable_observability)
from .routing import GpsrRouter
from .service import (Outcome, QueryService, ServiceConfig, ServiceReport,
                      run_service_soak)
from .sim import Simulator
from .validate import (InvariantViolation, ValidationHarness,
                       enable_validation)

__version__ = "1.0.0"

__all__ = [
    "FloodingConfig", "FloodingProtocol", "KPTConfig", "KPTProtocol",
    "PeerTreeConfig", "PeerTreeProtocol", "DIKNNConfig", "DIKNNProtocol",
    "KNNQuery", "QueryIdAllocator", "QueryProtocol", "QueryResult",
    "knnb_radius", "per_run_allocator",
    "SimulationConfig", "SimulationHandle",
    "build_simulation", "defaults_table", "fig8_sweep", "fig9_sweep",
    "resilience_sweep", "FaultInjector", "FaultPlan",
    "run_query", "run_workload", "Rect", "Vec2", "QueryOutcome",
    "RunMetrics", "post_accuracy", "pre_accuracy", "true_knn", "Network",
    "SensorNode", "GpsrRouter", "Outcome", "QueryService", "ServiceConfig",
    "ServiceReport", "run_service_soak", "Simulator", "InvariantViolation",
    "ValidationHarness", "enable_validation", "KernelProfiler",
    "MetricsRegistry", "SpanTracker", "Telemetry", "TraceLog",
    "enable_observability", "__version__",
]
