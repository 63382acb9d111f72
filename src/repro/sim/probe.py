"""The probe: one observation surface per simulation.

Every observer of a run (validation checkers, telemetry, the kernel
profiler, the flight recorder, trace logs) subscribes to a channel of
its simulator's :class:`Probe` instead of patching an attribute into the
substrate. A channel is a tuple of subscribers. An emission site reads
it once and loops over it, so a run with nobody listening pays one
empty-tuple test per site. ``docs/OBSERVABILITY.md`` lists who emits on
each channel and who subscribes.

Subscribers are pure observers: they draw no simulation randomness,
schedule no events and mutate no simulation state. A run is therefore
bit-identical with any set of subscribers attached, and attach/detach
order cannot matter: each subscriber removes exactly what it added.
"""

from __future__ import annotations

from typing import Any

#: the channels, each with what its subscribers are called with
CHANNELS = (
    "kernel",         # fn(time, callback) before each kernel event
    "kernel_timed",   # fn(callback, elapsed_s) after it (perf_counter)
    "mac_sample",     # fn(kind, value): "backoff_s" / "queue_s"
    "mac_frame",      # fn(time, **fields) per lost or ARQ-exhausted frame
    "trace",          # fn(event, message, node_id): "send" / "deliver"
    "beacon",         # fn(receiver_id, src_id, time) per delivered beacon
    "beacon_batch",   # fn(count) per beacon delivery batch
    "charge",         # fn(node_id, kind, cost) per charge to the
                      # ledger's protocol part
    "beacon_charge",  # same, beacon part; moves the batched beacon
                      # kernel off its bulk energy path
    "route",          # objects with the route_* methods GPSR calls
    "protocol",       # ProtocolObserver-shaped objects
    "itinerary",      # fn(itinerary) per sector plan (re)build
)


class Probe:
    """Typed subscriber channels of one simulation."""

    __slots__ = CHANNELS

    def __init__(self) -> None:
        for channel in CHANNELS:
            setattr(self, channel, ())

    def subscribe(self, channel: str, subscriber: Any) -> None:
        """Append ``subscriber`` to ``channel``."""
        if channel not in CHANNELS:
            raise ValueError(f"unknown probe channel {channel!r}")
        setattr(self, channel, getattr(self, channel) + (subscriber,))

    def unsubscribe(self, channel: str, subscriber: Any) -> None:
        """Remove one registration of ``subscriber`` from ``channel``; a
        no-op if it has none. Compared with ``==``, so a fresh bound
        method of the subscribed object matches."""
        subs = getattr(self, channel)
        if subscriber in subs:
            i = subs.index(subscriber)
            setattr(self, channel, subs[:i] + subs[i + 1:])


class ProtocolObserver:
    """A ``protocol`` channel subscriber that ignores every event; a
    subclass overrides the ones it wants.  The sink emits
    ``bundle_received`` for a live result bundle before merging it and
    ``bundle_merged`` after; a late bundle emits neither."""

    def _ignore(self, *_args: Any, **_kwargs: Any) -> None:
        return None

    query_issued = route_attempt = home_reached = sector_dispatched = \
        token_hop = token_retry = sector_void = sector_finished = \
        window_closed = bundle_sent = requery_dispatched = \
        bundle_received = bundle_merged = query_finalized = _ignore
