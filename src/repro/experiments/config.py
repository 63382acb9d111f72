"""Simulation configuration and factory (paper §5.1 defaults).

``SimulationConfig`` captures every knob of the paper's settings table;
``build_simulation`` wires a ready-to-query simulation out of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from ..core.base import QueryProtocol
from ..deploy import (CaribouDeployment, ClusteredDeployment, Deployment,
                      GridDeployment, HaltonDeployment,
                      JitteredGridDeployment, UniformDeployment)
from ..faults import FAULT_STREAM, FaultInjector, FaultPlan, poisson_crashes
from ..geometry import Rect, Vec2
from ..mobility import RandomWaypointMobility, StaticMobility
from ..net import MacConfig, Network, RadioModel, SensorNode
from ..routing import GpsrConfig, GpsrRouter
from ..sim import ConfigurationError, Simulator

#: the paper's §5.1 default-parameter table, name -> (value, unit)
PAPER_DEFAULTS: Dict[str, Tuple[object, str]] = {
    "node_number": (200, "nodes"),
    "network_size": ("115 x 115", "m^2"),
    "node_degree": (20, "neighbors"),
    "response_size": (10, "bytes"),
    "channel_rate": (250, "kbps"),
    "time_unit_m": (0.018, "s"),
    "rendezvous": ("enabled", ""),
    "radio_range_r": (20, "m"),
    "sector_number": (8, "sectors"),
    "mu_max": (10, "m/s"),
    "beacon_interval": (0.5, "s"),
    "rts_cts": ("off", ""),
    "query_interval": (4, "s"),
    "assurance_gain": (0.1, ""),
}

_DEPLOYMENTS = {
    "uniform": UniformDeployment,
    "clustered": ClusteredDeployment,
    "caribou": CaribouDeployment,
    "grid": GridDeployment,
    "jittered-grid": JitteredGridDeployment,
    "halton": HaltonDeployment,
}


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to build one simulation instance."""

    n_nodes: int = 200
    field_size: Tuple[float, float] = (115.0, 115.0)
    radio_range: float = 20.0
    channel_rate_bps: float = 250_000.0
    max_speed: float = 10.0              # µmax of the RWP model
    beacon_interval: float = 0.5
    packet_loss_rate: float = 0.0
    shadowing_sigma: float = 0.0         # log-normal link irregularity
    seed: int = 0
    deployment: str = "uniform"
    sink_position: Optional[Tuple[float, float]] = None  # default: corner
    warmup_s: float = 1.5
    query_interval_mean: float = 4.0     # exponential inter-query time
    assurance_gain: float = 0.1
    query_margin_fraction: float = 0.15  # inset query points from the field
                                         # edge (avoids KNN edge effects)
    # -- fault injection (repro.faults; all off by default) -------------
    crash_rate: float = 0.0              # per-node crash events per second
    node_downtime_s: Optional[float] = 5.0   # crash recovery delay
                                             # (None = permanent death)
    blackout: Optional[Tuple[float, ...]] = None
                                         # (at, cx, cy, radius, duration_s)
    link_fault: Optional[Tuple[float, ...]] = None
                                         # (at, duration_s, extra_loss)
    beacon_outage: Optional[Tuple[float, ...]] = None
                                         # (at, duration_s), every node
    fault_horizon_s: float = 120.0       # how far past warm-up Poisson
                                         # crashes are scheduled

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigurationError("need at least one node")
        if self.deployment not in _DEPLOYMENTS:
            raise ConfigurationError(
                f"unknown deployment {self.deployment!r}; "
                f"choose from {sorted(_DEPLOYMENTS)}")
        if self.max_speed < 0:
            raise ConfigurationError("max_speed must be >= 0")
        if self.crash_rate < 0:
            raise ConfigurationError("crash_rate must be >= 0")
        if self.node_downtime_s is not None and self.node_downtime_s <= 0:
            raise ConfigurationError(
                "node_downtime_s must be positive or None")
        # Normalize JSON-scenario lists to tuples.
        for name, width in (("blackout", 5), ("link_fault", 3),
                            ("beacon_outage", 2)):
            value = getattr(self, name)
            if value is None:
                continue
            if len(value) != width:
                raise ConfigurationError(
                    f"{name} needs {width} values, got {len(value)}")
            object.__setattr__(self, name, tuple(float(v) for v in value))

    @property
    def has_faults(self) -> bool:
        return (self.crash_rate > 0.0 or self.blackout is not None
                or self.link_fault is not None
                or self.beacon_outage is not None)

    @property
    def field(self) -> Rect:
        return Rect.from_size(*self.field_size)

    def with_(self, **changes) -> "SimulationConfig":
        """A modified copy (sweep helper)."""
        return replace(self, **changes)


@dataclass
class SimulationHandle:
    """A built simulation: kernel, network, router, protocol, sink."""

    config: SimulationConfig
    sim: Simulator
    network: Network
    router: GpsrRouter
    protocol: QueryProtocol
    sink: SensorNode
    faults: Optional[FaultInjector] = None
    #: runtime invariant harness; set only when validation is enabled
    validator: Optional[object] = None
    #: telemetry hub (repro.obs.Telemetry); set only when --obs is on
    obs: Optional[object] = None

    def warm_up(self) -> None:
        """Start beacons, let tables fill, then build protocol structures."""
        self.network.warm_up(self.config.warmup_s)
        self.protocol.setup()


def make_deployment(name: str) -> Deployment:
    """Deployment generator by name."""
    return _DEPLOYMENTS[name]()


def build_simulation(config: SimulationConfig,
                     protocol: QueryProtocol,
                     mac_config: Optional[MacConfig] = None,
                     gpsr_config: Optional[GpsrConfig] = None
                     ) -> SimulationHandle:
    """Construct a full simulation per ``config`` and install ``protocol``.

    The sink is a dedicated stationary node (a base station) placed at
    ``config.sink_position`` (default: near the field corner); the
    ``config.n_nodes`` sensor nodes follow the random waypoint model with
    µmax = ``config.max_speed``.
    """
    sim = Simulator(seed=config.seed)
    radio = RadioModel(range_m=config.radio_range,
                       channel_rate_bps=config.channel_rate_bps,
                       base_loss_rate=config.packet_loss_rate,
                       shadowing_sigma=config.shadowing_sigma)
    network = Network(sim, radio=radio, mac_config=mac_config,
                      beacon_interval=config.beacon_interval)
    field = config.field
    deploy_rng = sim.rng.stream("deploy")
    positions = make_deployment(config.deployment).generate(
        config.n_nodes, field, deploy_rng)
    reading_rng = sim.rng.stream("readings")
    for i, pos in enumerate(positions):
        if config.max_speed > 0:
            mobility = RandomWaypointMobility(
                pos, field, sim.rng.stream(f"mobility.{i}"),
                max_speed=config.max_speed)
        else:
            mobility = StaticMobility(pos)
        network.add_node(SensorNode(i, mobility,
                                    reading=float(reading_rng.uniform(0, 100))))
    sink_pos = (Vec2(*config.sink_position) if config.sink_position
                else Vec2(field.x_min + 0.05 * field.width,
                          field.y_min + 0.05 * field.height))
    sink = SensorNode(config.n_nodes, StaticMobility(field.clamp(sink_pos)))
    network.add_node(sink)
    router = GpsrRouter(network, config=gpsr_config)
    protocol.install(network, router)
    injector = _build_faults(config, sim, network)
    handle = SimulationHandle(config=config, sim=sim, network=network,
                              router=router, protocol=protocol, sink=sink,
                              faults=injector)
    # Lazy import: repro.validate is only pulled in (and only attaches)
    # when validation was switched on for this process.
    from ..validate.harness import maybe_attach
    handle.validator = maybe_attach(handle)
    # Same pattern for telemetry (--obs); both subscribe to sim.probe,
    # so neither depends on the other's attach or detach order.
    from ..obs.telemetry import maybe_attach_obs
    handle.obs = maybe_attach_obs(handle)
    return handle


def _build_faults(config: SimulationConfig, sim: Simulator,
                  network: Network) -> Optional[FaultInjector]:
    """Translate the config's fault knobs into an installed injector.

    Poisson crash schedules draw only from the dedicated ``"faults"``
    stream, and only when ``crash_rate > 0`` — a fault-free run consumes
    exactly the same random draws as one built before this subsystem
    existed.  The sink (a powered base station) never crashes.
    """
    if not config.has_faults:
        return None
    plan = FaultPlan()
    if config.crash_rate > 0.0:
        plan.extend(poisson_crashes(
            sim.rng.stream(FAULT_STREAM), range(config.n_nodes),
            rate=config.crash_rate, start=config.warmup_s,
            duration=config.fault_horizon_s,
            downtime_s=config.node_downtime_s))
    if config.blackout is not None:
        at, cx, cy, radius, duration = config.blackout
        plan.blackout((cx, cy), radius, at=at, duration_s=duration)
    if config.link_fault is not None:
        at, duration, extra = config.link_fault
        plan.degrade_links(at, duration, extra)
    if config.beacon_outage is not None:
        at, duration = config.beacon_outage
        plan.suppress_beacons(at, duration)
    network.start_neighbor_sweep()
    return FaultInjector(sim, network, plan).install()


def defaults_table() -> str:
    """The paper's §5.1 parameter table, formatted (experiment E0)."""
    lines = ["Parameter            Value        Unit",
             "-" * 42]
    for name, (value, unit) in PAPER_DEFAULTS.items():
        lines.append(f"{name:<20} {str(value):<12} {unit}")
    return "\n".join(lines)
