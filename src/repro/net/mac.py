"""Abstract CSMA-style MAC layer.

Substitutes the ns-2 802.11/802.15.4 MAC (DESIGN.md §4).  What the paper's
evaluation actually exercises at this layer is:

* frame serialization delay (airtime at 250 kbps),
* contention backoff that grows with local channel load,
* collision-induced loss when transmissions overlap in space and time,
* link-layer ARQ for unicast frames (retries cost time and energy).

All four are modeled; 802.11 frame formats, virtual carrier sense and exact
binary exponential backoff are not, since no compared quantity depends on
them.  Loss is sampled per receiver: a reception fails with the base channel
loss rate, or if any concurrent transmission from within interference range
of the receiver overlaps the frame (each such interferer corrupts the frame
independently with ``collision_coeff``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Callable, List, Optional, Sequence, Tuple

from ..geometry import Vec2
from ..sim.engine import Simulator
from .energy import EnergyLedger
from .messages import Message
from .radio import RadioModel
from .txindex import ActiveTxIndex

DeliverFn = Callable[[int, Message], None]
FailFn = Callable[[Message], None]
#: a frame's PHY receivers as parallel columns: ids (ascending), x, y
Receivers = Tuple[Sequence[int], Sequence[float], Sequence[float]]


@dataclass(frozen=True)
class MacConfig:
    """Tunable MAC behaviour."""

    slot_time_s: float = 0.00032       # 802.15.4 unit backoff period
    base_cw_slots: int = 8             # contention window in slots
    cw_per_interferer: int = 8         # extra window per concurrent local tx
    collision_coeff: float = 0.6       # P(one overlapping interferer corrupts)
    ack_bytes: int = 11
    max_retries: int = 7       # 802.11 default retry limit
    retry_timeout_s: float = 0.004
    overhear_header_only: bool = True  # non-addressed receivers decode header
    contention_free: bool = False      # LR-WPAN CFP (paper §3.3): slots are
                                       # scheduled, so no backoff and no
                                       # collision loss (channel loss stays)


@dataclass
class MacStats:
    """Counters of MAC activity, for diagnostics and tests."""

    frames_sent: int = 0
    frames_delivered: int = 0
    frames_lost_channel: int = 0
    frames_lost_collision: int = 0
    unicast_retries: int = 0
    unicast_failures: int = 0
    bytes_sent: int = 0


@dataclass
class _ActiveTx:
    start: float
    end: float
    pos: Vec2
    sender: int


class MacLayer:
    """Shared-medium MAC simulation.

    The MAC does not know about nodes; callers hand it sender/receiver
    positions captured at transmission time, and a delivery callback.
    """

    def __init__(self, sim: Simulator, radio: RadioModel,
                 ledger: EnergyLedger, config: Optional[MacConfig] = None):
        self.sim = sim
        self.radio = radio
        self.ledger = ledger
        self.config = config or MacConfig()
        self.stats = MacStats()
        self._rng = sim.rng.stream("mac")
        #: optional time-windowed extra loss (fault injection), ``fn(t) ->
        #: extra erasure probability at t``, composed with the radio's
        #: base loss as independent erasure.  The beacon kernel reads it
        #: at each fire's logical time, frames at ``sim.now``.
        self.loss_overlay_at: Optional[Callable[[float], float]] = None
        # Backoff/queueing samples go out on the probe's ``mac_sample``
        # channel, trouble frames (losses, exhausted ARQ) on ``mac_frame``.
        self._probe = sim.probe
        # Active transmissions, bucketed by position at interference-range
        # cell size with lazy end-time expiry (see repro.net.txindex);
        # supports append/len/iteration like the flat list it replaced.
        self._active: ActiveTxIndex = ActiveTxIndex(
            self.radio.interference_range_m)
        # A node has one radio: its frames serialize. Tracks when each
        # sender's queue drains so bursts (e.g. one node unicasting to many
        # destinations at once) go out one frame at a time.
        self._sender_busy_until: dict = {}

    # -- channel state -------------------------------------------------------

    def loss_rate(self) -> float:
        """Effective channel loss right now."""
        return self.loss_rate_at(self.sim.now)

    def loss_rate_at(self, t: float) -> float:
        """Effective channel loss at logical time ``t``: base rate plus
        any fault overlay, composed as independent erasures."""
        loss = self.radio.base_loss_rate
        if self.loss_overlay_at is not None:
            extra = self.loss_overlay_at(t)
            if extra > 0.0:
                loss = 1.0 - (1.0 - loss) * (1.0 - extra)
        return loss

    def _prune_active(self) -> None:
        self._active.prune(self.sim.now)

    def _interferers_near(self, pos: Vec2, start: float, end: float,
                          exclude_sender: Optional[int] = None) -> int:
        """Concurrent transmissions overlapping [start, end] whose sender is
        within interference range of ``pos``; ``exclude_sender=None``
        counts everything (no magic sentinel)."""
        r_sq = self.radio.interference_range_m ** 2
        return self._active.count_near(pos.x, pos.y, r_sq, start, end,
                                       exclude_sender=exclude_sender)

    def local_load(self, pos: Vec2) -> int:
        """Transmissions currently audible (interference range) around pos."""
        self._prune_active()
        now = self.sim.now
        # Probe a tiny forward window so a frame starting exactly now is
        # counted (a zero-width interval would overlap nothing).
        return self._interferers_near(pos, now, now + 1e-9)

    def in_flight(self, now: Optional[float] = None) -> List[_ActiveTx]:
        """Transmissions whose airtime overlaps ``now`` (default: the
        simulation clock).  Read-only introspection for diagnostics and
        the validation layer's airtime-drain invariant."""
        t = self.sim.now if now is None else now
        return [tx for tx in self._active if tx.end > t]

    def busy_senders(self, now: Optional[float] = None) -> List[int]:
        """Senders whose serialization queue has not drained by ``now``."""
        t = self.sim.now if now is None else now
        return [sender for sender, until in self._sender_busy_until.items()
                if until > t]

    # -- transmission --------------------------------------------------------

    def backoff_delay(self, pos: Vec2) -> float:
        """Random CSMA backoff scaled by current local channel load."""
        if self.config.contention_free:
            return 0.0
        load = self.local_load(pos)
        window = self.config.base_cw_slots + load * self.config.cw_per_interferer
        slots = int(self._rng.integers(0, max(window, 1)))
        # While the channel is busy the sender also waits out the residual
        # airtime of the loudest overlapping frame.
        residual = 0.0
        if load:
            residual = self._active.max_residual_near(
                pos.x, pos.y, self.radio.interference_range_m ** 2,
                self.sim.now)
        return residual + slots * self.config.slot_time_s

    def transmit(self, sender: int, sender_pos: Vec2, message: Message,
                 receivers: Receivers,
                 deliver: DeliverFn,
                 on_unicast_fail: Optional[FailFn] = None) -> None:
        """Send ``message`` from ``sender`` to the PHY neighborhood.

        Args:
            sender: transmitting node id.
            sender_pos: its position at transmission time.
            message: the frame; ``message.dst`` selects broadcast vs unicast.
            receivers: all nodes in radio range as parallel
                ``(ids, xs, ys)`` sequences (ids, then positions).
            deliver: callback invoked per successful reception.
            on_unicast_fail: invoked when a unicast exhausts its retries.
        """
        # Serialize this sender's queue: a burst of frames from one node
        # goes out back-to-back, not simultaneously.
        now = self.sim.now
        queue_delay = max(0.0,
                          self._sender_busy_until.get(sender, 0.0) - now)
        airtime = self.radio.airtime(message.size_bytes)
        self._sender_busy_until[sender] = now + queue_delay + airtime
        sample = self._probe.mac_sample
        if sample and queue_delay > 0.0:
            for fn in sample:
                fn("queue_s", queue_delay)

        if queue_delay > 0.0:
            self.sim.schedule_in(
                queue_delay,
                lambda: self._transmit_attempt(sender, sender_pos, message,
                                               receivers, deliver,
                                               on_unicast_fail, attempt=0))
        else:
            self._transmit_attempt(sender, sender_pos, message, receivers,
                                   deliver, on_unicast_fail, attempt=0)

    def _transmit_attempt(self, sender: int, sender_pos: Vec2,
                          message: Message,
                          receivers: Receivers,
                          deliver: DeliverFn,
                          on_unicast_fail: Optional[FailFn],
                          attempt: int) -> None:
        self._prune_active()
        backoff = self.backoff_delay(sender_pos)
        for fn in self._probe.mac_sample:
            fn("backoff_s", backoff)

        def _begin() -> None:
            self._do_transmit(sender, sender_pos, message, receivers,
                              deliver, on_unicast_fail, attempt)

        self.sim.schedule_in(backoff, _begin)

    def _interference_counts(self, xs: Sequence[float],
                             ys: Sequence[float], start: float, end: float,
                             sender: int) -> Optional[List[int]]:
        """Per receiver, the number of other senders' transmissions
        overlapping [start, end) within interference range of it — what
        ``_interferers_near`` counts — from one pass over the active set;
        None when no such transmission exists at all."""
        others = [(tx.pos.x, tx.pos.y) for tx in self._active
                  if tx.sender != sender
                  and not (tx.end <= start or tx.start >= end)]
        if not others:
            return None
        r_sq = self.radio.interference_range_m ** 2
        counts = [0] * len(xs)
        for ox, oy in others:
            counts = [c + ((ox - x) * (ox - x) + (oy - y) * (oy - y) <= r_sq)
                      for c, x, y in zip(counts, xs, ys)]
        return counts

    def _resolve_frame(self, sender: int, message: Message,
                       receivers: Receivers, start: float, end: float,
                       attempt: int) -> List[int]:
        """Decide which receivers decode a frame on the air over
        [start, end), charge their reception, count and report the
        losses, and return the addressed receivers it reached.

        One pass per frame: interference counts for every receiver,
        then per receiver in order the draws it needs (channel loss when
        loss > 0, then a collision draw when it has interferers and
        survived the channel), so the ``mac`` stream is consumed exactly
        as a receiver-by-receiver loop would; the surviving receivers
        are charged in that order by one ledger call.
        """
        cfg = self.config
        bits = (message.size_bytes + self.radio.header_bytes) * 8
        overheard_bits = (self.radio.header_bytes * 8
                          if cfg.overhear_header_only else bits)
        ids, xs, ys = receivers
        dst = message.dst
        broadcast = message.is_broadcast
        n_intf = (None if cfg.contention_free
                  else self._interference_counts(xs, ys, start, end, sender))
        loss = self.loss_rate()
        if loss > 0.0 and n_intf is not None:
            # How many collision draws follow depends on the channel
            # draws: one scalar draw at a time.
            draw = self._rng.random
        else:
            # The count is known up front (one per receiver on a lossy
            # channel, else one per receiver with interferers), and one
            # vector draw consumes the stream as that many scalar draws.
            n_draws = (len(ids) if loss > 0.0
                       else 0 if n_intf is None
                       else sum(1 for k in n_intf if k))
            draw = (iter(self._rng.random(n_draws).tolist()).__next__
                    if n_draws else None)
        survive = 1.0 - cfg.collision_coeff
        rx_ids: List[int] = []
        rx_bits: List[int] = []
        delivered_to: List[int] = []
        lost_ch = lost_col = 0
        for rid, k in zip(ids, repeat(0) if n_intf is None else n_intf):
            addressed = broadcast or rid == dst
            if loss > 0.0 and draw() < loss:
                if addressed:
                    lost_ch += 1
                continue
            if k and draw() >= survive ** k:
                if addressed:
                    lost_col += 1
                continue
            rx_ids.append(rid)
            if addressed:
                rx_bits.append(bits)
                delivered_to.append(rid)
            else:
                rx_bits.append(overheard_bits)
        self.stats.frames_lost_channel += lost_ch
        self.stats.frames_lost_collision += lost_col
        self.ledger.charge_rx_many(rx_ids, rx_bits)
        if lost_ch or lost_col:
            for fn in self._probe.mac_frame:
                fn(start, kind=message.kind, sender=sender,
                   dst=message.dst, lost_channel=lost_ch,
                   lost_collision=lost_col, attempt=attempt)
        return delivered_to

    def _do_transmit(self, sender: int, sender_pos: Vec2, message: Message,
                     receivers: Receivers,
                     deliver: DeliverFn, on_unicast_fail: Optional[FailFn],
                     attempt: int) -> None:
        cfg = self.config
        airtime = self.radio.airtime(message.size_bytes)
        start = self.sim.now
        end = start + airtime
        bits = (message.size_bytes + self.radio.header_bytes) * 8

        self._prune_active()
        self._active.append(_ActiveTx(start, end, sender_pos, sender))
        self.ledger.charge_tx(sender, bits, self.radio.range_m)
        self.stats.frames_sent += 1
        self.stats.bytes_sent += message.size_bytes

        delivered_to = self._resolve_frame(sender, message, receivers,
                                           start, end, attempt)
        delay = airtime + self.radio.propagation_delay_s

        if message.is_broadcast:
            if delivered_to:
                self.stats.frames_delivered += len(delivered_to)

                def _deliver_bcast() -> None:
                    for rid in delivered_to:
                        deliver(rid, message)

                self.sim.schedule_in(delay, _deliver_bcast)
            return

        # Unicast with ARQ: only the destination can be delivered to.
        if delivered_to:
            self.stats.frames_delivered += 1
            ack_bits = (cfg.ack_bytes + self.radio.header_bytes) * 8
            self.ledger.charge_tx(message.dst, ack_bits, self.radio.range_m)
            self.ledger.charge_rx(sender, ack_bits)
            ack_delay = delay + self.radio.airtime(cfg.ack_bytes)
            self.sim.schedule_in(
                ack_delay, lambda: deliver(message.dst, message))
            return

        if attempt < cfg.max_retries:
            self.stats.unicast_retries += 1
            retry_wait = delay + cfg.retry_timeout_s

            def _retry() -> None:
                self._transmit_attempt(sender, sender_pos, message,
                                       receivers, deliver, on_unicast_fail,
                                       attempt + 1)

            self.sim.schedule_in(retry_wait, _retry)
            return

        self.stats.unicast_failures += 1
        for fn in self._probe.mac_frame:
            fn(start, kind=message.kind, sender=sender, dst=message.dst,
               arq_exhausted=True, attempts=attempt + 1)
        if on_unicast_fail is not None:
            self.sim.schedule_in(delay + cfg.retry_timeout_s,
                                 lambda: on_unicast_fail(message))
