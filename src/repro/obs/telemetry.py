"""The telemetry hub: one object wiring spans, metrics, raw events and
the kernel profiler to a running simulation.

``Telemetry`` is opt-in and zero-cost when off: it subscribes to the
simulator's probe (``sim.probe``: the ``mac_sample``, ``beacon_batch``,
``charge``, ``route``, ``protocol`` and ``itinerary`` channels, plus
``trace`` and ``kernel_timed`` through its trace log and profiler), and
an empty channel costs one test per emission site.  ``detach`` removes
exactly those subscriptions, so other subscribers (a validation harness,
a second telemetry) keep theirs whatever the detach order.  All
subscribers are *pure observers* — they never draw randomness, schedule
events or mutate simulation state — so an instrumented run is
bit-identical to an uninstrumented one (the golden-trace determinism
suite enforces this).

Enable per-process with :func:`enable_observability` (the CLI's ``--obs``
flag); ``build_simulation`` then attaches a ``Telemetry`` to every handle
it constructs, exactly like ``repro.validate``'s ``--validate``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..sim.probe import ProtocolObserver
from .events import TraceLog
from .metrics import MetricsRegistry
from .profiler import KernelProfiler
from .sampling import SAMPLING_STREAM, SamplingPolicy, TailSampler
from .spans import SpanTracker


class Telemetry(ProtocolObserver):
    """Telemetry state of one simulation run.

    ``sample_every_n > 0`` switches the hub into the scale-aware
    *sampled* tier: spans and per-query histogram observations are
    staged by a :class:`~repro.obs.sampling.TailSampler` and only kept
    for failed/flagged queries plus a deterministic 1-in-N of the
    COMPLETE ones.  The sampler draws exclusively from the dedicated
    ``obs.sampling`` stream, so enabling it never perturbs simulation
    randomness.
    """

    def __init__(self, profile_kernel: bool = True,
                 trace_events: bool = True, sample_every_n: int = 0,
                 max_staged: int = 10_000):
        self.metrics = MetricsRegistry()
        self.spans = SpanTracker()
        self.profiler: Optional[KernelProfiler] = (
            KernelProfiler() if profile_kernel else None)
        self.events: Optional[TraceLog] = None
        self.sampler: Optional[TailSampler] = None
        self._trace_events = trace_events
        self._sample_every_n = sample_every_n
        self._max_staged = max_staged
        self._sim = None
        self._network = None
        self._subscriptions: List[Tuple[str, object]] = []
        self._finalized = False
        # span bookkeeping: open span ids by role
        self._root: Dict[int, int] = {}
        self._route: Dict[int, int] = {}
        self._sector: Dict[Tuple[int, int], int] = {}
        self._window: Dict[Tuple[int, int], int] = {}
        self._return: Dict[Tuple[int, frozenset], int] = {}
        self._energy0: Dict[int, float] = {}
        self._issued_at: Dict[int, float] = {}
        # geometric query point per query id, kept so home_reached can
        # report the anchor displacement (declared home vs. target)
        self._qpoint: Dict[int, Tuple[float, float]] = {}
        # Hot-path caches: the mac_sample/charge/beacon_batch channels fire
        # per frame sample / charge / delivery batch, so the metric objects
        # are resolved once instead of a registry lookup per call.
        self._beacons_delivered = self.metrics.counter(
            "net.beacons.delivered")
        self._mac_hists: Dict[str, object] = {}
        self._charge_counters: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def attached(self) -> bool:
        return self._sim is not None

    def attach(self, sim, network, protocol=None, router=None) -> None:
        """Subscribe to a built simulation's probe; ``protocol`` and
        ``router`` switch on the ``protocol`` and ``route`` channels."""
        if self._sim is not None:
            raise RuntimeError("telemetry is already attached")
        self._sim = sim
        self._network = network
        if self._trace_events:
            self.events = TraceLog(network)
        if self.profiler is not None:
            self.profiler.install(sim)
        if self._sample_every_n > 0 and self.sampler is None:
            self.sampler = TailSampler(
                SamplingPolicy(sample_every_n=self._sample_every_n,
                               max_staged=self._max_staged),
                sim.rng.stream(SAMPLING_STREAM), self.metrics,
                self.spans)
        self._subscriptions = [("beacon_batch", self._on_beacon_batch),
                               ("mac_sample", self._on_mac),
                               ("charge", self._on_charge),
                               ("itinerary", self._on_itinerary_build)]
        if router is not None:
            self._subscriptions.append(("route", self))
        if protocol is not None:
            self._subscriptions.append(("protocol", self))
        for channel, subscriber in self._subscriptions:
            sim.probe.subscribe(channel, subscriber)

    def attach_handle(self, handle) -> None:
        """Attach to a :class:`~repro.experiments.config.SimulationHandle`."""
        self.attach(handle.sim, handle.network,
                    protocol=handle.protocol, router=handle.router)

    def detach(self) -> None:
        """Remove every subscription :meth:`attach` made (idempotent)."""
        if self._sim is None:
            return
        if self.events is not None:
            self.events.detach()
        if self.profiler is not None:
            self.profiler.uninstall()
        for channel, subscriber in self._subscriptions:
            self._sim.probe.unsubscribe(channel, subscriber)
        self._subscriptions = []
        self._sim = None

    def finalize(self) -> None:
        """End-of-run sweep: snapshot substrate counters into gauges and
        close any span the protocol never got to (node death, timeout
        after ``abandon`` was skipped).  Idempotent."""
        if self._finalized:
            return
        self._finalized = True
        now = self._sim.now if self._sim is not None else 0.0
        for span in self.spans.open_spans():
            self.spans.end(span.span_id, at=max(now, span.start),
                           status="unfinished")
        if self._network is None:
            return
        mac = self._network.mac.stats
        # Losses are counted per receiver; a broadcast frame can lose at
        # several receivers at once, so normalize by receive attempts.
        attempts = (mac.frames_delivered + mac.frames_lost_channel
                    + mac.frames_lost_collision)
        gauges = {
            "mac.frames_sent": mac.frames_sent,
            "mac.frames_delivered": mac.frames_delivered,
            "mac.frames_lost_channel": mac.frames_lost_channel,
            "mac.frames_lost_collision": mac.frames_lost_collision,
            "mac.unicast_retries": mac.unicast_retries,
            "mac.unicast_failures": mac.unicast_failures,
            "mac.collision_rate": (mac.frames_lost_collision / attempts
                                   if attempts else 0.0),
            "net.messages_sent": self._network.stats.messages_sent,
            "net.deliveries": self._network.stats.deliveries,
            "net.beacons_sent": self._network.stats.beacons_sent,
            "energy.total_j": self._network.ledger.total_j(),
            "energy.beacon_total_j":
                self._network.ledger.total_j("beacon_charge"),
        }
        for name, value in gauges.items():
            self.metrics.gauge(name).set(float(value))

    # ------------------------------------------------------------------
    # substrate observers
    # ------------------------------------------------------------------

    def _on_beacon_batch(self, count: int) -> None:
        self._beacons_delivered.inc(count)

    def _on_mac(self, kind: str, value: float) -> None:
        hist = self._mac_hists.get(kind)
        if hist is None:
            hist = self._mac_hists[kind] = \
                self.metrics.histogram(f"mac.{kind}")
        hist.observe(value)

    def _on_charge(self, node_id: int, kind: str, cost: float) -> None:
        counter = self._charge_counters.get(kind)
        if counter is None:
            counter = self._charge_counters[kind] = \
                self.metrics.counter(f"energy.{kind}_j")
        counter.inc(cost)

    def _on_itinerary_build(self, itinerary) -> None:
        self.metrics.counter("itinerary.builds").inc()
        self.metrics.histogram("itinerary.waypoints").observe(
            len(itinerary.waypoints))

    # -- probe ``route`` channel (GPSR) ---------------------------------

    def route_hop(self, inner_kind: str, perimeter: bool) -> None:
        self.metrics.counter("gpsr.forwards").inc()
        if perimeter:
            self.metrics.counter("gpsr.perimeter_hops").inc()

    def route_link_retry(self, _inner_kind: str) -> None:
        self.metrics.counter("gpsr.link_retries").inc()

    def route_delivered(self, _inner_kind: str, hops: int) -> None:
        self.metrics.counter("gpsr.deliveries").inc()
        self.metrics.histogram("gpsr.route.hops").observe(hops)

    def route_dropped(self, _inner_kind: str, reason: str) -> None:
        self.metrics.counter("gpsr.drops").inc()
        self.metrics.counter(f"gpsr.drops.{reason}").inc()

    def route_mode(self, _inner_kind: str, qid: Optional[int],
                   node_id: int, old: str, new: str, dist_m: float,
                   at: float) -> None:
        """A route flipped greedy<->perimeter at ``node_id``."""
        self.metrics.counter(f"gpsr.mode.{old}_to_{new}").inc()
        if new == "perimeter":
            self.metrics.counter("gpsr.perimeter_entries").inc()
        if qid is not None:
            self.stage_instant(qid, self.spans.instant(
                f"gpsr {old}->{new}", at=at, node=node_id, query_id=qid,
                dist_m=dist_m))

    def route_anchor(self, _inner_kind: str, qid: Optional[int],
                     node_id: int, offset_m: float, mode: str,
                     reason: str, at: float) -> None:
        """A route-to-location terminal declared ``node_id`` the home
        anchor, ``offset_m`` away from the geometric target."""
        self.metrics.histogram("gpsr.anchor.offset_m").observe(offset_m)
        self.metrics.counter(f"gpsr.anchor.{reason}").inc()
        if qid is not None:
            self.stage_instant(qid, self.spans.instant(
                "anchor declared", at=at, node=node_id, query_id=qid,
                offset_m=offset_m, mode=mode, reason=reason))

    # ------------------------------------------------------------------
    # tail-sampling plumbing (no-ops when the sampler is off)
    # ------------------------------------------------------------------

    def _stage(self, qid: int, span_id: int) -> None:
        if self.sampler is not None:
            self.sampler.note_span(("q", qid), span_id)

    def stage_instant(self, qid: int, inst) -> None:
        """Buffer an instant under its query's staging key."""
        if self.sampler is not None:
            self.sampler.note_instant(("q", qid), inst)

    def _observe_query(self, qid: int, series: str,
                       value: float) -> None:
        """Record a per-query histogram observation, deferred to the
        promote/discard decision when the query is staged."""
        if self.sampler is None \
                or not self.sampler.buffer(("q", qid), series, value):
            self.metrics.histogram(series).observe(value)

    # -- service-layer staging (called by repro.service) ----------------

    def service_opened(self, service_id: int, span_id: int) -> None:
        """A served query began: stage it as one sampling unit."""
        if self.sampler is not None:
            key = ("s", service_id)
            self.sampler.open(key)
            self.sampler.note_span(key, span_id)

    def service_attempt(self, service_id: int, query_id: int) -> None:
        """Alias a protocol attempt onto its served query, so the whole
        serve tree is promoted or discarded together."""
        if self.sampler is not None:
            self.sampler.adopt(("q", query_id), ("s", service_id))

    def service_flag(self, service_id: int, reason: str) -> None:
        """Force promotion of a served query (breaker opened on it)."""
        if self.sampler is not None:
            self.sampler.flag(("s", service_id), reason)

    def service_finalized(self, service_id: int,
                          complete: bool) -> Optional[bool]:
        """Decide a served query's sampling fate at finalization."""
        if self.sampler is not None:
            return self.sampler.finalize(("s", service_id), complete)
        return None

    # ------------------------------------------------------------------
    # protocol lifecycle observers (DIKNN)
    # ------------------------------------------------------------------

    def query_issued(self, query, sink_id: int, at: float) -> None:
        qid = query.query_id
        self.metrics.counter("diknn.query.issued").inc()
        self._issued_at[qid] = at
        self._qpoint[qid] = (query.point.x, query.point.y)
        self._energy0[qid] = self._network.ledger.snapshot()
        self._root[qid] = self.spans.begin(
            f"query q{qid}", "query", at=at, node=sink_id, query_id=qid,
            k=query.k)
        if self.sampler is not None:
            key = ("q", qid)
            if self.sampler.resolve(key) == key:
                # a bare protocol query is its own sampling unit; a
                # served attempt was already adopted by its service key
                self.sampler.open(key)
            self.sampler.note_span(key, self._root[qid])

    def route_attempt(self, qid: int, attempt: int, at: float) -> None:
        root = self._root.get(qid)
        if root is None:
            return
        if attempt == 0 and qid not in self._route:
            self._route[qid] = self.spans.begin(
                "route", "route", at=at,
                node=self.spans.get(root).node, query_id=qid, parent=root)
            self._stage(qid, self._route[qid])
        else:
            self.metrics.counter("diknn.query.route_retries").inc()
            self.stage_instant(qid, self.spans.instant(
                "route retry", at=at, query_id=qid, attempt=attempt))

    def home_reached(self, qid: int, node_id: int, radius: float,
                     hops: int, at: float) -> None:
        self.metrics.histogram("diknn.route.hops").observe(hops)
        self.metrics.histogram("diknn.knnb.radius_m").observe(radius)
        extra: Dict[str, float] = {}
        qpoint = self._qpoint.get(qid)
        if qpoint is not None and self._network is not None:
            home_pos = self._network.nodes[node_id].position()
            dx = home_pos.x - qpoint[0]
            dy = home_pos.y - qpoint[1]
            displacement = (dx * dx + dy * dy) ** 0.5
            extra["displacement_m"] = displacement
            self.metrics.histogram(
                "diknn.home.displacement_m").observe(displacement)
        span_id = self._route.pop(qid, None)
        if span_id is not None and self.spans.is_open(span_id):
            self.spans.end(span_id, at=at, home=node_id, hops=hops,
                           radius_m=radius, **extra)

    def sector_dispatched(self, qid: int, sector: int, node_id: int,
                          at: float) -> None:
        key = (qid, sector)
        if key in self._sector and self.spans.is_open(self._sector[key]):
            # Watchdog re-dispatch into a still-unreported sector: the
            # traversal restarts inside the same sector span.
            self.stage_instant(qid, self.spans.instant(
                "sector redispatch", at=at, node=node_id,
                query_id=qid, sector=sector))
            return
        self.metrics.counter("diknn.sector.dispatched").inc()
        self._sector[key] = self.spans.begin(
            f"sector {sector}", "sector", at=at, node=node_id,
            query_id=qid, parent=self._root.get(qid), sector=sector)
        self._stage(qid, self._sector[key])

    def token_hop(self, qid: int, sector: int, node_id: int,
                  at: float) -> None:
        self.metrics.counter("diknn.token.hops").inc()
        key = (qid, sector)
        prev = self._window.pop(key, None)
        if prev is not None and self.spans.is_open(prev):
            # The Q-node died before its window closed; the token only
            # moves on via a fresh dispatch.
            self.spans.end(prev, at=at, status="superseded")
        parent = self._sector.get(key)
        if parent is not None and not self.spans.is_open(parent):
            # The sector already reported (watchdog re-query raced the
            # traversal); the straggling token's window cannot attach to
            # a closed parent.
            parent = None
        self._window[key] = self.spans.begin(
            f"window @{node_id}", "window", at=at, node=node_id,
            query_id=qid, parent=parent, sector=sector)
        self._stage(qid, self._window[key])

    def token_retry(self, qid: int, sector: int, node_id: int,
                    at: float) -> None:
        self.metrics.counter("diknn.token.retries").inc()
        self.stage_instant(qid, self.spans.instant(
            "token retry", at=at, node=node_id, query_id=qid,
            sector=sector))

    def sector_void(self, qid: int, sector: int, node_id: int,
                    voids: int, consecutive: int, at: float) -> None:
        """The sector itinerary detoured around a coverage void."""
        self.metrics.counter("diknn.sector.voids").inc()
        self.stage_instant(qid, self.spans.instant(
            "void detour", at=at, node=node_id, query_id=qid,
            sector=sector, voids=voids, consecutive=consecutive))

    def sector_finished(self, qid: int, sector: int, node_id: int,
                        reason: str, waypoint_index: int, voids: int,
                        progress: float, at: float) -> None:
        """A sector traversal ended (before the result bundle is sent).

        ``reason`` is ``plan_complete`` / ``dead_end`` /
        ``detours_exhausted``; ``progress`` is the fraction of the
        waypoint plan consumed."""
        self.metrics.counter(f"diknn.sector.finish.{reason}").inc()
        self.metrics.histogram("diknn.sector.progress").observe(progress)
        self.stage_instant(qid, self.spans.instant(
            "sector finished", at=at, node=node_id, query_id=qid,
            sector=sector, reason=reason, waypoint_index=waypoint_index,
            voids=voids, progress=progress))

    def window_closed(self, qid: int, sector: int, node_id: int,
                      replies: int, at: float) -> None:
        self.metrics.histogram("diknn.window.replies").observe(replies)
        span_id = self._window.pop((qid, sector), None)
        if span_id is not None and self.spans.is_open(span_id):
            self.spans.end(span_id, at=at, replies=replies)

    def bundle_sent(self, qid: int, sectors: List[int], node_id: int,
                    at: float) -> None:
        self.metrics.counter("diknn.bundle.sent").inc()
        key = (qid, frozenset(sectors))
        if key in self._return and self.spans.is_open(self._return[key]):
            self.stage_instant(qid, self.spans.instant(
                "bundle resent", at=at, node=node_id, query_id=qid))
            return
        self._return[key] = self.spans.begin(
            "return", "return", at=at, node=node_id, query_id=qid,
            parent=self._sector.get((qid, sectors[0])),
            sectors=list(sectors))
        self._stage(qid, self._return[key])

    def bundle_received(self, qid: int, sectors: List[int],
                        at: float) -> None:
        fresh = False
        for key, span_id in list(self._return.items()):
            if key[0] == qid and key[1] & set(sectors) \
                    and self.spans.is_open(span_id):
                self.spans.end(span_id, at=at)
        for sector in sectors:
            span_id = self._sector.get((qid, sector))
            if span_id is not None and self.spans.is_open(span_id):
                fresh = True
                # A watchdog re-query can race the original traversal:
                # the sector's answer arrives while a collection window
                # is still open inside it.  Close the window with the
                # sector (a child may not outlive its parent).
                window_id = self._window.pop((qid, sector), None)
                if window_id is not None and self.spans.is_open(window_id):
                    self.spans.end(window_id, at=at, status="superseded")
                span = self.spans.end(span_id, at=at)
                self._observe_query(qid, "diknn.sector.latency_s",
                                    at - span.start)
        if fresh:
            self.metrics.counter("diknn.bundle.received").inc()
        else:
            self.metrics.counter("diknn.bundle.duplicates").inc()

    def requery_dispatched(self, qid: int, sectors: List[int],
                           at: float) -> None:
        self.metrics.counter("diknn.requery.dispatched").inc(len(sectors))
        self.stage_instant(qid, self.spans.instant(
            "watchdog requery", at=at, query_id=qid,
            sectors=list(sectors)))

    def query_finalized(self, qid: int, completed: bool,
                        at: float) -> None:
        root = self._root.pop(qid, None)
        if root is None:
            return  # a protocol this layer does not instrument
        status = "completed" if completed else "abandoned"
        self.metrics.counter(f"diknn.query.{status}").inc()
        # Close every straggler bottom-up so children end before parents.
        for store, extra in ((self._window, {"status": "unfinished"}),
                             (self._return, {"status": "lost"}),
                             (self._sector, {"status": "unreported"})):
            for key in [k for k in store if k[0] == qid]:
                span_id = store.pop(key)
                if self.spans.is_open(span_id):
                    self.spans.end(span_id, at=at, **extra)
        span_id = self._route.pop(qid, None)
        if span_id is not None and self.spans.is_open(span_id):
            self.spans.end(span_id, at=at, status="unfinished")
        self.spans.end(root, at=at, status=status)
        self._qpoint.pop(qid, None)
        issued = self._issued_at.pop(qid, None)
        if completed and issued is not None:
            self._observe_query(qid, "diknn.query.latency_s", at - issued)
        energy0 = self._energy0.pop(qid, None)
        if energy0 is not None:
            # Approximate under overlapping queries (ledger deltas are
            # network-wide), exactly like the runner's per-query energy.
            self._observe_query(qid, "diknn.query.energy_j",
                                self._network.ledger.since(energy0))
        if self.sampler is not None:
            key = ("q", qid)
            if self.sampler.resolve(key) == key:
                # bare query: decide now; a served attempt's fate rides
                # its owning service key (decided by the service layer)
                self.sampler.finalize(key, completed)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def run_summary(self) -> Dict[str, object]:
        """JSON-safe digest of the run's telemetry (for RunMetrics)."""
        self.finalize()
        problems = self.spans.check_integrity()
        out: Dict[str, object] = {
            "metrics": self.metrics.to_dict(),
            "spans": len(self.spans.spans),
            "open_spans": len(self.spans.open_spans()),
            "span_problems": problems,
            "instants": len(self.spans.instants),
            "raw_events": (len(self.events)
                           if self.events is not None else 0),
        }
        if self.sampler is not None:
            out["sampling"] = self.sampler.summary()
        if self.profiler is not None:
            out["kernel_hotspots"] = [
                {"handler": label, "calls": calls, "total_s": total_s,
                 "mean_us": mean_us, "share": share}
                for label, calls, total_s, mean_us, share
                in self.profiler.to_rows(10)]
        return out

    def report(self, top: int = 10) -> str:
        """Human-readable end-of-run telemetry report."""
        self.finalize()
        parts = [self.metrics.summary_table()]
        queries = sorted({s.query_id for s in self.spans.spans
                          if s.query_id is not None})
        parts.append(f"\nspan trees: {len(queries)} queries, "
                     f"{len(self.spans.spans)} spans, "
                     f"{len(self.spans.instants)} instants")
        if self.profiler is not None and self.profiler.events_timed:
            parts.append("\n" + self.profiler.report(top))
        return "\n".join(parts)


# ---------------------------------------------------------------------------
# process-wide switch (what the CLI's --obs flips)
# ---------------------------------------------------------------------------

_ENABLED = False
_SAMPLE_EVERY_N = 0
_ACTIVE: List[Telemetry] = []


def enable_observability(enabled: bool = True,
                         sample_every_n: int = 0) -> None:
    """Turn telemetry on/off for subsequently built simulations.

    ``sample_every_n > 0`` selects the scale-aware sampled tier: the
    raw-event trace and kernel profiler stay off and per-query spans go
    through the tail sampler (the CLI's ``--obs-sample N``)."""
    global _ENABLED, _SAMPLE_EVERY_N
    _ENABLED = enabled
    _SAMPLE_EVERY_N = sample_every_n if enabled else 0


def observability_enabled() -> bool:
    return _ENABLED


def maybe_attach_obs(handle) -> Optional[Telemetry]:
    """Attach a :class:`Telemetry` to ``handle`` when observability is on.

    Called by :func:`repro.experiments.config.build_simulation`; returns
    the telemetry (also recorded on ``handle.obs``) or None.
    """
    if not _ENABLED:
        return None
    if _SAMPLE_EVERY_N > 0:
        telemetry = Telemetry(profile_kernel=False, trace_events=False,
                              sample_every_n=_SAMPLE_EVERY_N)
    else:
        telemetry = Telemetry()
    telemetry.attach_handle(handle)
    _ACTIVE.append(telemetry)
    return telemetry


def active_telemetry() -> List[Telemetry]:
    """Every telemetry attached this process (latest last)."""
    return list(_ACTIVE)


def reset_observability() -> None:
    """Disable telemetry and detach everything (tests)."""
    global _ENABLED, _SAMPLE_EVERY_N
    _ENABLED = False
    _SAMPLE_EVERY_N = 0
    for telemetry in _ACTIVE:
        telemetry.detach()
    _ACTIVE.clear()
