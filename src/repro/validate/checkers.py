"""The invariant checkers.

Five families, one per substrate layer:

* **event-causality** — the kernel clock is monotone and every executed
  event runs exactly at its scheduled time.
* **energy-conservation** — every ledger account equals the sum of the
  tx/rx/idle charges actually made against it (shadow accounting), and no
  charge is negative or non-finite.
* **neighbor-soundness** — every neighbor-table entry is vouched for by a
  beacon that was actually delivered, and (when the eviction sweep runs)
  no entry outlives the staleness bound.
* **mac-sanity** — no node is delivered a frame it sent itself, and the
  MAC's concurrent-airtime / sender-busy bookkeeping drains to zero once
  the event queue does.
* **sector-algebra** — DIKNN's sectors partition the query disk, and the
  sink's idempotent bundle merge never double-counts a sector's
  exploration statistics, however often a bundle is (re)delivered.

All checkers observe only: no RNG draws, no scheduled events, no state
mutation.  Violations raise :class:`InvariantViolation` naming the node,
time and invariant.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Set, Tuple

from ..core.diknn import DIKNNProtocol
from ..geometry import TWO_PI, Vec2
from ..geometry.shapes import Circle, Sector
from ..sim.probe import ProtocolObserver
from .base import Checker, InvariantViolation, ValidationContext

_REL_TOL = 1e-9
_ABS_TOL = 1e-12


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _REL_TOL * max(1.0, abs(a), abs(b)) + _ABS_TOL


# ---------------------------------------------------------------------------
# event causality
# ---------------------------------------------------------------------------

class CausalityChecker(Checker):
    """Monotone clock; events execute exactly at their scheduled time."""

    name = "event-causality"

    def __init__(self) -> None:
        super().__init__()
        self._sim = None
        self._last_time = -math.inf

    def attach(self, ctx: ValidationContext) -> None:
        self._sim = ctx.sim
        self._last_time = ctx.sim.now
        ctx.sim.probe.subscribe("kernel", self.on_event)

    def detach(self, ctx: ValidationContext) -> None:
        ctx.sim.probe.unsubscribe("kernel", self.on_event)

    def on_event(self, event_time: float, _callback) -> None:
        self.checks_run += 1
        if not math.isfinite(event_time):
            self.fail(f"event executed at non-finite time {event_time!r}",
                      time=self._last_time)
        if event_time < self._last_time:
            self.fail(
                f"event executed at {event_time:.9f} after the clock "
                f"already reached {self._last_time:.9f} (causality broken)",
                time=event_time)
        if self._sim is not None and self._sim.now != event_time:
            self.fail(
                f"clock reads {self._sim.now:.9f} while executing an event "
                f"scheduled for {event_time:.9f}", time=event_time)
        self._last_time = event_time

    def checkpoint(self, ctx: ValidationContext) -> None:
        self.checks_run += 1
        if ctx.sim.now < self._last_time:
            self.fail(
                f"clock moved backwards: now {ctx.sim.now:.9f} < last "
                f"executed event {self._last_time:.9f}", time=ctx.sim.now)


# ---------------------------------------------------------------------------
# energy conservation
# ---------------------------------------------------------------------------

class EnergyChecker(Checker):
    """Both parts of every ledger account equal the sum of the charges
    actually booked under their channel."""

    name = "energy-conservation"

    _KINDS = ("tx", "rx", "idle")

    def __init__(self) -> None:
        super().__init__()
        self._sim = None
        # part tag -> node -> {"tx": j, "rx": j, "idle": j}
        self._shadow: Dict[str, Dict[int, Dict[str, float]]] = {}
        self._baseline: Dict[str, Dict[int, Tuple[float, float, float]]] = {}
        # part tag -> the charge observer subscribed for it
        self._taps: Dict[str, object] = {}

    #: (tag, probe channel) of each ledger part
    _PARTS = (("protocol", "charge"), ("beacon", "beacon_charge"))

    def attach(self, ctx: ValidationContext) -> None:
        self._sim = ctx.sim
        ledger = ctx.network.ledger
        for tag, channel in self._PARTS:
            # accounts() materializes any deferred (banked) charges: the
            # baseline must include everything already charged, or the
            # late materialization would read as an unobserved charge.
            self._shadow[tag] = {}
            self._baseline[tag] = {
                nid: (acct.tx_j, acct.rx_j, acct.idle_j)
                for nid, acct in ledger.accounts(channel).items()}
            self._taps[tag] = self._make_observer(tag)
            ctx.sim.probe.subscribe(channel, self._taps[tag])

    def detach(self, ctx: ValidationContext) -> None:
        for tag, channel in self._PARTS:
            ctx.sim.probe.unsubscribe(channel, self._taps.pop(tag, None))

    def _make_observer(self, tag: str):
        shadow = self._shadow[tag]

        def _observe(node_id: int, kind: str, cost: float) -> None:
            self.checks_run += 1
            if not math.isfinite(cost) or cost < 0.0:
                now = self._sim.now if self._sim is not None else None
                self.fail(f"{tag} ledger charged a {kind} cost of {cost!r}",
                          node=node_id, time=now)
            acct = shadow.get(node_id)
            if acct is None:
                acct = {"tx": 0.0, "rx": 0.0, "idle": 0.0}
                shadow[node_id] = acct
            acct[kind] += cost

        return _observe

    def checkpoint(self, ctx: ValidationContext) -> None:
        now = ctx.sim.now
        for tag, channel in self._PARTS:
            shadow = self._shadow[tag]
            baseline = self._baseline[tag]
            for node_id, acct in ctx.network.ledger.accounts(
                    channel).items():
                self.checks_run += 1
                base = baseline.get(node_id, (0.0, 0.0, 0.0))
                seen = shadow.get(node_id,
                                  {"tx": 0.0, "rx": 0.0, "idle": 0.0})
                for idx, kind in enumerate(self._KINDS):
                    booked = getattr(acct, f"{kind}_j")
                    expected = base[idx] + seen[kind]
                    if not _close(booked, expected):
                        self.fail(
                            f"{tag} ledger out of balance: {kind} account "
                            f"reads {booked:.12g} J but charges sum to "
                            f"{expected:.12g} J", node=node_id, time=now)
                if not _close(acct.total_j,
                              acct.tx_j + acct.rx_j + acct.idle_j):
                    self.fail(
                        f"{tag} ledger total {acct.total_j:.12g} J is not "
                        "the sum of its tx/rx/idle parts",
                        node=node_id, time=now)


# ---------------------------------------------------------------------------
# neighbor-table soundness
# ---------------------------------------------------------------------------

class NeighborTableChecker(Checker):
    """Neighbor entries are backed by delivered beacons and honor the
    staleness bound (when the proactive eviction sweep is running)."""

    name = "neighbor-soundness"

    def __init__(self) -> None:
        super().__init__()
        self._network = None
        # (receiver, src) -> last delivered beacon time
        self._delivered: Dict[Tuple[int, int], float] = {}
        # entries predating attach: (node, neighbor) -> heard_at
        self._baseline: Dict[Tuple[int, int], float] = {}

    def attach(self, ctx: ValidationContext) -> None:
        self._network = ctx.network
        for node in ctx.network.nodes.values():
            for nbr_id, entry in node.neighbor_table.items():
                self._baseline[(node.id, nbr_id)] = entry.heard_at
        ctx.sim.probe.subscribe("beacon", self.on_beacon)

    def detach(self, ctx: ValidationContext) -> None:
        ctx.sim.probe.unsubscribe("beacon", self.on_beacon)

    def on_beacon(self, receiver_id: int, src_id: int, time: float) -> None:
        self._delivered[(receiver_id, src_id)] = time

    def checkpoint(self, ctx: ValidationContext) -> None:
        now = ctx.sim.now
        network = ctx.network
        sweep = network._sweep_task
        stale_bound = None
        if sweep is not None:
            stale_bound = network.neighbor_timeout + 2.0 * sweep._period
        for node in network.nodes.values():
            if not node.alive:
                continue  # a dead node's table is frozen, not maintained
            for nbr_id, entry in node.neighbor_table.items():
                self.checks_run += 1
                if entry.heard_at > now + _ABS_TOL:
                    self.fail(
                        f"neighbor {nbr_id} was 'heard' at "
                        f"{entry.heard_at:.6f}, in the future",
                        node=node.id, time=now)
                pre = self._baseline.get((node.id, nbr_id))
                if pre is not None and pre == entry.heard_at:
                    pass  # predates observation; soundness unverifiable
                else:
                    last = self._delivered.get((node.id, nbr_id))
                    if last is None:
                        self.fail(
                            f"neighbor entry for {nbr_id} has no delivered "
                            "beacon backing it", node=node.id, time=now)
                    elif entry.heard_at > last + _ABS_TOL:
                        self.fail(
                            f"neighbor entry for {nbr_id} claims a beacon "
                            f"at {entry.heard_at:.6f} but the last one "
                            f"delivered was at {last:.6f}",
                            node=node.id, time=now)
                if stale_bound is not None \
                        and now - entry.heard_at > stale_bound:
                    self.fail(
                        f"neighbor entry for {nbr_id} is "
                        f"{now - entry.heard_at:.3f}s old, past the "
                        f"eviction bound {stale_bound:.3f}s",
                        node=node.id, time=now)


# ---------------------------------------------------------------------------
# MAC sanity
# ---------------------------------------------------------------------------

class MacSanityChecker(Checker):
    """No self-delivery; airtime/busy bookkeeping is consistent and
    drains to zero with the event queue."""

    name = "mac-sanity"

    def __init__(self) -> None:
        super().__init__()
        self._network = None

    def attach(self, ctx: ValidationContext) -> None:
        self._network = ctx.network
        ctx.sim.probe.subscribe("trace", self.on_trace)

    def detach(self, ctx: ValidationContext) -> None:
        ctx.sim.probe.unsubscribe("trace", self.on_trace)

    def on_trace(self, event: str, message, node_id: int) -> None:
        self.checks_run += 1
        now = self._network.sim.now if self._network is not None else None
        if event == "deliver" and node_id == message.src:
            self.fail(
                f"node received its own {message.kind!r} frame "
                "(self-delivery)", node=node_id, time=now)
        if event == "send" and node_id != message.src:
            self.fail(
                f"{message.kind!r} frame traced as sent by {node_id} but "
                f"stamped src={message.src}", node=node_id, time=now)

    def checkpoint(self, ctx: ValidationContext) -> None:
        now = ctx.sim.now
        for tx in ctx.network.mac._active:
            self.checks_run += 1
            if tx.end < tx.start:
                self.fail(
                    f"MAC holds a transmission ending ({tx.end:.9f}) "
                    f"before it starts ({tx.start:.9f})",
                    node=tx.sender, time=now)
            if tx.start > now + _ABS_TOL:
                self.fail(
                    f"MAC holds a transmission starting in the future "
                    f"({tx.start:.9f})", node=tx.sender, time=now)

    def finalize(self, ctx: ValidationContext) -> None:
        # Only meaningful once nothing is left to run: an in-flight frame
        # is legitimate while events are pending.
        if ctx.sim.pending_events > 0:
            return
        now = ctx.sim.now
        mac = ctx.network.mac
        self.checks_run += 1
        leftovers = mac.in_flight(now)
        if leftovers:
            tx = leftovers[0]
            self.fail(
                f"MAC airtime bookkeeping did not drain: "
                f"{len(leftovers)} transmission(s) still active, e.g. "
                f"sender {tx.sender} until {tx.end:.9f}",
                node=tx.sender, time=now)
        busy = mac.busy_senders(now)
        if busy:
            self.fail(
                f"MAC sender queues did not drain: nodes {busy} "
                "still marked busy with no events pending",
                node=busy[0], time=now)


# ---------------------------------------------------------------------------
# DIKNN sector algebra
# ---------------------------------------------------------------------------

def check_sector_partition(point: Vec2, sectors: int,
                           radius: float = 1.0) -> int:
    """Verify the S cone-shaped sectors partition the query disk.

    Samples a deterministic fan of directions around ``point`` and checks
    that every sample lands in exactly the sector its angle predicts, that
    all ``sectors`` indices are reachable, and that the Sector shapes
    agree with :func:`repro.core.diknn.sector_of`.  Returns the number of
    samples checked; raises :class:`InvariantViolation` on any mismatch.
    """
    from ..core.diknn import sector_of  # local: avoid import cycle at load

    if sectors < 1:
        raise InvariantViolation(
            "sector-algebra", f"sector count must be >= 1, got {sectors}")
    width = TWO_PI / sectors
    circle = Circle(point, radius)
    # A lone sector is the whole disk; Sector's half-open arc cannot
    # express a full circle, so model it by the circle itself.
    shapes = ([circle] if sectors == 1
              else [Sector(circle, j * width, (j + 1) * width)
                    for j in range(sectors)])
    n = max(8 * sectors, 64)
    hit: Set[int] = set()
    for i in range(n):
        angle = (i + 0.5) * TWO_PI / n   # mid-bin: off the borders
        expected = min(int(angle / width), sectors - 1)
        p = Vec2(point.x + 0.9 * radius * math.cos(angle),
                 point.y + 0.9 * radius * math.sin(angle))
        got = sector_of(p, point, sectors)
        if got != expected:
            raise InvariantViolation(
                "sector-algebra",
                f"direction {angle:.6f} rad maps to sector {got}, "
                f"expected {expected} (sectors do not partition the disk)")
        containing = [j for j, s in enumerate(shapes) if s.contains(p)]
        if containing != [expected]:
            raise InvariantViolation(
                "sector-algebra",
                f"sample at angle {angle:.6f} rad lies in sector shapes "
                f"{containing}, expected exactly [{expected}]")
        hit.add(got)
    if len(hit) != sectors:
        raise InvariantViolation(
            "sector-algebra",
            f"only {len(hit)} of {sectors} sectors are reachable")
    if sector_of(point, point, sectors) != 0:
        raise InvariantViolation(
            "sector-algebra", "query point itself must map to sector 0")
    return n


class _QueryTrack:
    __slots__ = ("seen", "explored", "voids")

    def __init__(self) -> None:
        self.seen: Set[int] = set()
        self.explored = 0.0
        self.voids = 0.0


class SectorChecker(Checker, ProtocolObserver):
    """DIKNN sector partition + idempotent bundle-merge accounting.

    Keeps an independent per-query record of which sectors have reported
    and what they contributed, and cross-checks the protocol's own
    accounting after every merged result bundle — a regression in the
    duplicate-bundle suppression shows up as a divergence here.  A
    ``protocol`` probe subscriber: it checks each issued query's sector
    partition on ``query_issued`` and the sink state on
    ``bundle_merged``, which the protocol emits only for live bundles.
    """

    name = "sector-algebra"

    def __init__(self) -> None:
        super().__init__()
        self._protocol: Optional[DIKNNProtocol] = None
        self._track: Dict[int, _QueryTrack] = {}

    def attach(self, ctx: ValidationContext) -> None:
        if not isinstance(ctx.protocol, DIKNNProtocol):
            return  # nothing to check for other protocols
        self._protocol = ctx.protocol
        ctx.sim.probe.subscribe("protocol", self)

    def detach(self, ctx: ValidationContext) -> None:
        if self._protocol is not None:
            ctx.sim.probe.unsubscribe("protocol", self)
            self._protocol = None

    # -- protocol events --------------------------------------------------

    def query_issued(self, query, _sink_id: int, _at: float) -> None:
        self.checks_run += check_sector_partition(
            query.point, self._protocol.config.sectors)
        self._track.setdefault(query.query_id, _QueryTrack())

    def bundle_merged(self, query_id: int, inner: dict, node_id: int,
                      now: float) -> None:
        protocol = self._protocol
        self.checks_run += 1

        cand_ids = [int(c[0]) for c in inner["cands"]]
        if len(set(cand_ids)) != len(cand_ids):
            self.fail(
                "result bundle carries duplicate candidate node ids "
                f"{sorted(cand_ids)} (merge is not idempotent)",
                node=node_id, time=now, query_id=query_id)

        track = self._track.setdefault(query_id, _QueryTrack())
        new_sectors = [s for s in inner["sectors"] if s not in track.seen]
        if new_sectors:
            track.explored += inner["explored"]
            track.voids += inner["voids"]
            track.seen.update(new_sectors)

        result = protocol._result_of(query_id)
        if result is None:
            return  # this bundle completed the query; state was consumed
        for s in inner["sectors"]:
            if not 0 <= s < result.sectors_total:
                self.fail(
                    f"bundle reports sector {s}, outside "
                    f"[0, {result.sectors_total})",
                    node=node_id, time=now, query_id=query_id)
        proto_seen = protocol.sectors_seen(query_id)
        if proto_seen != track.seen:
            self.fail(
                f"sink sector accounting diverged: protocol says "
                f"{sorted(proto_seen)}, bundles delivered say "
                f"{sorted(track.seen)}",
                node=node_id, time=now, query_id=query_id)
        if result.sectors_reported != len(track.seen):
            self.fail(
                f"sectors_reported={result.sectors_reported} but "
                f"{len(track.seen)} distinct sector(s) have reported "
                "(duplicate bundle double-counted)",
                node=node_id, time=now, query_id=query_id)
        if len(track.seen) > result.sectors_total:
            self.fail(
                f"{len(track.seen)} sectors reported out of "
                f"{result.sectors_total}", node=node_id, time=now,
                query_id=query_id)
        explored = result.meta.get("explored", 0.0)
        if not _close(explored, track.explored):
            self.fail(
                f"exploration counter reads {explored:.6g} but distinct "
                f"bundles contributed {track.explored:.6g} "
                "(duplicate bundle double-counted)",
                node=node_id, time=now, query_id=query_id)


DEFAULT_CHECKERS = (CausalityChecker, EnergyChecker, NeighborTableChecker,
                    MacSanityChecker, SectorChecker)
