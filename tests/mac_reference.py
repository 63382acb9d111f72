"""Per-receiver reference model of the MAC frame path (test-only).

``MacLayer._resolve_frame`` decides a frame's receptions in one pass:
one collection of the overlapping transmissions from other senders,
interference counts for every receiver against it, the ``mac`` stream's
draws made only where a receiver needs one, and one
``EnergyLedger.charge_rx_many`` call.  :class:`ReferenceMac` is the
straightforward model it is proven against, written for clarity, not
speed — the frame loop as the MAC first had it:

* each receiver gets a ``Vec2`` and its own ``_interferers_near`` query
  against the active-transmission index;
* per receiver, in order: a channel-loss draw when the loss rate is
  positive, then a collision draw when it has interferers and survived
  the channel;
* each surviving receiver is charged by its own ``charge_rx`` call: the
  whole frame when addressed (or when overhearers decode whole frames),
  the header otherwise.

Everything else (queueing, backoff, ACKs, retries, delivery scheduling)
is the product's, inherited unchanged.
"""

from __future__ import annotations

from typing import List

from repro.geometry import Vec2
from repro.net.mac import MacLayer


class ReferenceMac(MacLayer):
    """A MAC whose frames resolve one receiver at a time."""

    def _resolve_frame(self, sender, message, receivers, start, end,
                       attempt) -> List[int]:
        cfg = self.config
        bits = (message.size_bytes + self.radio.header_bytes) * 8
        header_bits = self.radio.header_bytes * 8
        delivered_to: List[int] = []
        lost_ch = lost_col = 0
        loss = self.loss_rate()
        ids, xs, ys = receivers
        for rid, x, y in zip(ids, xs, ys):
            rpos = Vec2(x, y)
            addressed = message.is_broadcast or rid == message.dst
            lost_channel = loss > 0.0 and self._rng.random() < loss
            n_intf = (0 if cfg.contention_free
                      else self._interferers_near(rpos, start, end, sender))
            lost_collision = False
            if n_intf and not lost_channel:
                p_survive = (1.0 - cfg.collision_coeff) ** n_intf
                lost_collision = self._rng.random() >= p_survive
            if lost_channel:
                if addressed:
                    self.stats.frames_lost_channel += 1
                    lost_ch += 1
                continue
            if lost_collision:
                if addressed:
                    self.stats.frames_lost_collision += 1
                    lost_col += 1
                continue
            if addressed:
                self.ledger.charge_rx(rid, bits)
                delivered_to.append(rid)
            elif cfg.overhear_header_only:
                self.ledger.charge_rx(rid, header_bits)
            else:
                self.ledger.charge_rx(rid, bits)
        if lost_ch or lost_col:
            for fn in self._probe.mac_frame:
                fn(start, kind=message.kind, sender=sender,
                   dst=message.dst, lost_channel=lost_ch,
                   lost_collision=lost_col, attempt=attempt)
        return delivered_to
