"""Applies a :class:`~repro.faults.plan.FaultPlan` to a live simulation.

The injector owns the seam between declared faults and simulator state:
it schedules every event on the kernel, flips ``node.alive`` for crashes
and blackouts, installs the time-windowed loss overlay on both MAC
instances (protocol and beacon traffic degrade together), and mutes
beacons through the network's suppression set.  Protocols never see the
injector — they only observe its consequences, exactly as a deployed
protocol would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..net.network import Network
from ..sim.engine import Simulator
from .plan import (BeaconSuppression, FaultPlan, LinkDegradation, NodeCrash,
                   NodeRecovery, RegionalBlackout)

#: the dedicated RNG stream randomized fault schedules draw from
FAULT_STREAM = "faults"


@dataclass
class FaultStats:
    """What the injector actually did (for diagnostics and tests)."""

    crashes: int = 0
    recoveries: int = 0
    blackouts: int = 0
    blackout_kills: int = 0
    degradation_windows: int = 0
    suppression_windows: int = 0
    #: node id -> number of times it was killed (crash or blackout)
    kills_by_node: Dict[int, int] = field(default_factory=dict)


class FaultInjector:
    """Installs a fault plan onto a running ``Simulator``/``Network``."""

    def __init__(self, sim: Simulator, network: Network,
                 plan: Optional[FaultPlan] = None):
        self.sim = sim
        self.network = network
        self.plan = plan or FaultPlan()
        self.stats = FaultStats()
        self._installed = False
        # Active extra-loss windows: (start, end, extra_loss).
        self._loss_windows: List[Tuple[float, float, float]] = []
        #: hooks fired as ``fn(event, node_id_or_None)`` on kill/recover
        self.on_fault: List[Callable[[str, Optional[int]], None]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> "FaultInjector":
        """Schedule every planned event; idempotent per injector."""
        if self._installed:
            return self
        self._installed = True
        for event in self.plan:
            self._schedule(event)
        if any(isinstance(e, LinkDegradation) for e in self.plan):
            self._install_loss_overlay()
        return self

    def _at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule at ``time``, clamped to now for already-past times."""
        self.sim.schedule_at(max(time, self.sim.now), callback)

    def _schedule(self, event) -> None:
        if isinstance(event, NodeCrash):
            self._at(event.at, lambda: self._crash(event.node_id))
            if event.downtime_s is not None:
                self._at(event.at + event.downtime_s,
                         lambda: self._recover(event.node_id))
        elif isinstance(event, NodeRecovery):
            self._at(event.at, lambda: self._recover(event.node_id))
        elif isinstance(event, RegionalBlackout):
            self._at(event.at, lambda: self._blackout(event))
        elif isinstance(event, LinkDegradation):
            self._loss_windows.append(
                (event.at, event.at + event.duration_s, event.extra_loss))
            self.stats.degradation_windows += 1
        elif isinstance(event, BeaconSuppression):
            self._at(event.at, lambda: self._suppress(event))
        else:  # pragma: no cover - plan types are closed
            raise TypeError(f"unknown fault event {event!r}")

    # -- crash / recover ---------------------------------------------------

    def _kill(self, node_id: int) -> bool:
        node = self.network.nodes.get(node_id)
        if node is None or not node.alive:
            return False
        node.alive = False
        self.stats.kills_by_node[node_id] = \
            self.stats.kills_by_node.get(node_id, 0) + 1
        return True

    def _crash(self, node_id: int) -> None:
        if self._kill(node_id):
            self.stats.crashes += 1
            self._notify("crash", node_id)

    def _recover(self, node_id: int) -> None:
        node = self.network.nodes.get(node_id)
        if node is None or node.alive:
            return
        # A reboot loses volatile state: the node relearns its
        # neighborhood from scratch instead of trusting entries that are
        # stale by exactly the downtime.
        node.reset_neighbors()
        node.alive = True
        self.stats.recoveries += 1
        self._notify("recover", node_id)

    def _blackout(self, event: RegionalBlackout) -> None:
        center = event.center_vec
        r_sq = event.radius * event.radius
        victims = []
        now = self.sim.now
        for node in self.network.nodes.values():
            if not node.alive:
                continue
            if node.mobility.position_at(now).distance_sq_to(center) <= r_sq:
                victims.append(node.id)
        for node_id in victims:
            self._kill(node_id)
        self.stats.blackouts += 1
        self.stats.blackout_kills += len(victims)
        self._notify("blackout", None)
        if event.recover and victims:
            self._at(event.at + event.duration_s,
                     lambda: self._lift_blackout(victims))

    def _lift_blackout(self, victims: List[int]) -> None:
        for node_id in victims:
            self._recover(node_id)

    # -- link degradation --------------------------------------------------

    def _install_loss_overlay(self) -> None:
        # The MAC reads it at ``sim.now`` per frame and the beacon kernel
        # at each fire's logical time, not the flush time.
        self.network.mac.loss_overlay_at = self.extra_loss_at

    def extra_loss_at(self, t: float) -> float:
        """Extra channel loss in effect at simulated time ``t``.

        Overlapping windows compose as independent erasures.
        """
        survive = 1.0
        for start, end, extra in self._loss_windows:
            if start <= t < end:
                survive *= 1.0 - extra
        return 1.0 - survive

    # -- beacon suppression ------------------------------------------------

    def _suppress(self, event: BeaconSuppression) -> None:
        ids = (event.node_ids if event.node_ids is not None
               else tuple(self.network.nodes))
        self.network.mute_beacons(ids)
        self.stats.suppression_windows += 1
        self._at(event.at + event.duration_s,
                 lambda: self.network.unmute_beacons(ids))

    # -- notification ------------------------------------------------------

    def _notify(self, kind: str, node_id: Optional[int]) -> None:
        for hook in self.on_fault:
            hook(kind, node_id)
