"""Run one part of one workload in this interpreter and print its record.

    PYTHONPATH=src python3 perfbench/child.py --workload churn \
        --seed 1 --part 0 [--trace]

``run.py`` starts one fresh interpreter per part, so process-global state
(message and route id counters, enable flags) cannot leak from one
simulation into the next, and the peak RSS it reports belongs to one
simulation. The last line of standard output is the part's record as
JSON: host timings, the query outcomes the parent pools into the
end-to-end metrics, deterministic counts, a behaviour digest and, with
``--trace``, the per-layer self times.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import heapq
import json
import resource
import statistics
import sys
from dataclasses import asdict
from time import perf_counter
from typing import Dict, List, Optional

from workloads import (QUERY_TIMEOUT_S, WORKLOADS, Inputs, Query,
                       inputs_for, percentile)

#: simulated seconds between a closed-loop client's looks at its query
POLL_S = 0.05

#: reported candidate positions must match the mobility ground truth at
#: their report time to this many metres
POSITION_TOLERANCE_M = 1e-6

#: simulated seconds an open-loop part runs between two speed probes
CHUNK_S = 8.0

#: median probe time on the reference box (a shared 2-vCPU x86 machine,
#: CPython 3.11) when this benchmark was defined
REF_PROBE_S = 0.005


def _probe_loop() -> None:
    """A fixed piece of interpreter work, unrelated to the program: heap,
    dict and float operations like the simulator's own hot loops."""
    heap: list = []
    table: dict = {}
    acc = 0.0
    for i in range(4000):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        table[i & 255] = acc
        acc += (i % 13) * 0.5
        if len(heap) > 64:
            heapq.heappop(heap)


class Clock:
    """Host time of timed work, raw and scaled to the reference speed.

    A shared machine changes speed by tens of percent from one second to
    the next, and the program's CPU time changes with it. Around each
    piece of timed work the clock times a fixed probe loop, and scales
    the work's wall time by ``REF_PROBE_S`` over the mean of the probe
    times before and after it. Probes run outside the timed work, with
    the garbage collector off, so the program's heap does not change
    what they measure.
    """

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.s = 0.0
        self._last = self.probe()

    @staticmethod
    def probe() -> float:
        collecting = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(3):
                t0 = perf_counter()
                _probe_loop()
                times.append(perf_counter() - t0)
        finally:
            if collecting:
                gc.enable()
        return statistics.median(times)

    def run(self, fn):
        t0 = perf_counter()
        out = fn()
        elapsed = perf_counter() - t0
        after = self.probe()
        self.raw_s += elapsed
        self.s += elapsed * 2.0 * REF_PROBE_S / (self._last + after)
        self._last = after
        return out


def watch_meta(protocol, totals: Dict[str, float]) -> None:
    """Add the ``voids`` and ``qnode_hops`` of every result ``protocol``
    hands back, through a completion callback or ``abandon``, to
    ``totals``. This covers the attempts a ``QueryService`` makes on its
    own too. The wrappers are set on the instance, so traced and
    untraced parts run them alike; the callback wrapper keeps the
    callback's module, so the tracer charges it to the same layer."""
    issue, abandon = protocol.issue, protocol.abandon

    def add(result) -> None:
        if result is not None:
            for key in ("voids", "qnode_hops"):
                totals[key] += float(result.meta.get(key, 0.0))

    def watched_issue(sink, query, on_complete):
        @functools.wraps(on_complete)
        def done(result):
            add(result)
            return on_complete(result)
        return issue(sink, query, done)

    def watched_abandon(query_id):
        result = abandon(query_id)
        add(result)
        return result

    protocol.issue = watched_issue
    protocol.abandon = watched_abandon


class Ledger:
    """Per-query accounting and answer checks of one part."""

    def __init__(self, network):
        self.network = network
        self.rows: List[dict] = []
        self.errors: List[str] = []

    def open(self, qid: int, q: Query, due: float) -> dict:
        row = {"qid": qid, "k": q.k, "due": due, "final": 0,
               "complete": False, "useful": False, "latency": None,
               "post": 0.0, "ids": []}
        self.rows.append(row)
        return row

    def close(self, row: dict, result, at: float, complete: bool,
              useful: bool) -> None:
        """Record one terminal outcome; ``result`` is a QueryResult (or
        None when nothing came back), scored against the oracle at
        ``at``."""
        import repro.metrics.accuracy as accuracy
        row["final"] += 1
        if row["final"] > 1:
            self.errors.append(f"query {row['qid']} finalized twice")
            return
        row["complete"] = complete
        row["useful"] = useful
        if useful:
            row["latency"] = at - row["due"]
        if result is None:
            return
        self.check(row, result, at, complete)
        row["ids"] = result.top_k_ids()
        row["post"] = accuracy.post_accuracy(self.network, result, at=at)

    def check(self, row: dict, result, at: float, complete: bool) -> None:
        """A wrong answer: ids outside the network or repeated, more than
        k of them, a candidate whose reported position is not where the
        mobility model had that node at its report time, or a complete
        answer missing sectors or finishing before it was issued."""
        qid = row["qid"]
        ids = result.top_k_ids()
        if len(ids) > row["k"] or len(set(ids)) != len(ids):
            self.errors.append(f"query {qid}: bad id list {ids}")
        for cand in result.candidates:
            node = self.network.nodes.get(cand.node_id)
            if node is None:
                self.errors.append(f"query {qid}: unknown node "
                                   f"{cand.node_id}")
                continue
            truth = node.mobility.position_at(cand.reported_at)
            if truth.distance_to(cand.position) > POSITION_TOLERANCE_M:
                self.errors.append(
                    f"query {qid}: node {cand.node_id} reported at "
                    f"{cand.position} but was at {truth}")
            if cand.reported_at > at + 1e-9:
                self.errors.append(f"query {qid}: candidate reported "
                                   f"after the answer")
        if complete:
            if result.sectors_reported < result.sectors_total:
                self.errors.append(f"query {qid}: complete with "
                                   f"{result.sectors_reported}/"
                                   f"{result.sectors_total} sectors")
            if at < row["due"]:
                self.errors.append(f"query {qid}: answered before due")

    def audit(self) -> None:
        for row in self.rows:
            if row["final"] == 0:
                self.errors.append(f"query {row['qid']} unaccounted")


# ---------------------------------------------------------------------------
# drive loops
# ---------------------------------------------------------------------------

def _make_query(handle, qid: int, q: Query):
    import repro
    return repro.KNNQuery(query_id=qid, sink_id=handle.sink.id,
                          point=repro.Vec2(q.x, q.y), k=q.k,
                          issued_at=handle.sim.now,
                          assurance_gain=handle.config.assurance_gain)


def drive_open(handle, inputs: Inputs, ledger: Ledger,
               clock: Clock) -> float:
    """Queries issued at their due times, each abandoned and scored on
    its partial answer if not complete ``QUERY_TIMEOUT_S`` later."""
    import repro
    sim, protocol = handle.sim, handle.protocol
    ids = repro.per_run_allocator(sim)
    start = sim.now

    def issue(q: Query) -> None:
        query = _make_query(handle, ids.allocate(), q)
        row = ledger.open(query.query_id, q, sim.now)

        def give_up() -> None:
            if row["final"]:
                return
            ledger.close(row, protocol.abandon(query.query_id), sim.now,
                         complete=False, useful=False)

        timer = sim.schedule_in(QUERY_TIMEOUT_S, give_up)

        def on_complete(result) -> None:
            timer.cancel()
            ledger.close(row, result, sim.now, complete=True, useful=True)

        protocol.issue(handle.sink, query, on_complete)

    for q in inputs.queries:
        sim.schedule_at(start + q.due, lambda q=q: issue(q))
    end = start + inputs.window_s + QUERY_TIMEOUT_S + 1.0
    while sim.now < end:
        until = min(sim.now + CHUNK_S, end)
        clock.run(lambda: sim.run(until=until))
    return inputs.window_s


def drive_service(handle, inputs: Inputs, ledger: Ledger, clock: Clock,
                  counts: Dict[str, float]) -> float:
    """One client in a closed loop over a ``QueryService``: each query is
    submitted once the previous one has an outcome. The kernel runs in
    ``POLL_S`` steps and the client looks at its query between steps, so
    the client adds no events; every submission must end in exactly one
    outcome."""
    import repro
    from repro.service import Outcome
    sim = handle.sim
    service = clock.run(lambda: repro.QueryService(handle))
    start = sim.now
    waits = []

    def serve(q: Query) -> None:
        sq = service.submit(repro.Vec2(q.x, q.y), q.k)
        row = ledger.open(sq.service_id, q, sq.submitted_at)
        limit = sim.now + service.config.deadline_s + POLL_S
        while not sq.finalized and sim.now < limit:
            sim.run(until=sim.now + POLL_S)
        if not sq.finalized:
            return                     # audit() reports it unaccounted
        result = None
        if sq.candidates:
            result = repro.QueryResult(
                query=repro.KNNQuery(query_id=sq.service_id,
                                     sink_id=handle.sink.id, point=sq.point,
                                     k=sq.k, issued_at=sq.submitted_at),
                candidates=list(sq.candidates),
                completed_at=sq.finalized_at,
                sectors_reported=sq.sectors_reported,
                sectors_total=sq.sectors_total)
        ledger.close(row, result, sq.finalized_at,
                     complete=sq.outcome is Outcome.COMPLETE,
                     useful=sq.outcome in (Outcome.COMPLETE,
                                           Outcome.PARTIAL))
        if sq.started_at is not None:
            waits.append(sq.started_at - sq.submitted_at)

    for q in inputs.queries:
        clock.run(lambda: serve(q))
    span_s = sim.now - start
    report = clock.run(lambda: service.report(span_s))
    if not report.all_accounted or report.submitted != len(inputs.queries):
        ledger.errors.append(
            f"service accounted {report.submitted - report.unaccounted} "
            f"of {len(inputs.queries)} submissions")
    metrics = service.metrics
    counts["service.shed"] = report.shed
    counts["service.retries"] = report.retries
    counts["service.attempts"] = metrics.counter("service.attempts").value
    counts["service.breaker_opens"] = \
        metrics.counter("service.breaker.open").value
    counts["service.useful"] = (report.counts.get("complete", 0)
                                + report.counts.get("partial", 0))
    counts["service.queue_wait_p90_s"] = (percentile(waits, 0.90)
                                          if waits else 0.0)
    return span_s


# ---------------------------------------------------------------------------
# one part
# ---------------------------------------------------------------------------

def _counts(handle, telemetry) -> Dict[str, float]:
    net = handle.network
    out: Dict[str, float] = {"sim.events": handle.sim.events_executed}
    for name, value in asdict(net.mac.stats).items():
        out[f"mac.{name}"] = value
    out["network.messages_sent"] = net.stats.messages_sent
    out["network.deliveries"] = net.stats.deliveries
    out["beacons.evictions"] = net.neighbor_evictions
    out["gpsr.deliveries"] = handle.router.deliveries
    out["gpsr.drops"] = handle.router.drops
    out["diknn.requeries"] = handle.protocol.redispatches
    if handle.faults is not None:
        stats = handle.faults.stats
        out["faults.crashes"] = stats.crashes
        out["faults.recoveries"] = stats.recoveries
        out["faults.blackout_kills"] = stats.blackout_kills
    if telemetry is not None and telemetry.sampler is not None:
        out["obs.promoted"] = telemetry.sampler.summary()["promoted"]
    return out


def setup(workload: str, seed: int, part: int, clock: Clock):
    """Build and warm up one part's simulation: (inputs, handle,
    telemetry or None)."""
    import repro
    inputs = inputs_for(workload, seed, part)

    def build():
        handle = repro.build_simulation(inputs.config,
                                        repro.DIKNNProtocol())
        telemetry = None
        if inputs.sample_every_n:
            telemetry = repro.Telemetry(
                trace_events=False, profile_kernel=False,
                sample_every_n=inputs.sample_every_n)
            telemetry.attach_handle(handle)
        handle.warm_up()
        return handle, telemetry

    return (inputs,) + clock.run(build)


def run_part(workload: str, seed: int, part: int, setups: int = 1) -> dict:
    """Run one part. ``setups`` > 1 builds and warms up that many more
    simulations of the part after the measured phase, timing each and
    throwing it away, and reports the median set-up time of them all;
    the measured simulation is always the interpreter's first."""
    spec = WORKLOADS[workload]
    setup_clock = Clock()
    inputs, handle, telemetry = setup(workload, seed, part, setup_clock)
    clock = Clock()
    sim, net = handle.sim, handle.network
    meta = {"voids": 0.0, "qnode_hops": 0.0}
    watch_meta(handle.protocol, meta)
    events0 = sim.events_executed
    energy0 = net.ledger.snapshot()
    ledger = Ledger(net)
    counts: Dict[str, float] = {}
    if spec.mode == "open":
        span_s = drive_open(handle, inputs, ledger, clock)
    else:
        span_s = drive_service(handle, inputs, ledger, clock, counts)
    if telemetry is not None:
        clock.run(telemetry.finalize)
    energy_j = net.ledger.since(energy0)
    ledger.audit()

    counts.update(_counts(handle, telemetry))
    counts["sim.events_measured"] = sim.events_executed - events0
    counts["diknn.qnode_hops"] = meta["qnode_hops"]
    counts["diknn.voids"] = meta["voids"]
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_clocks = [setup_clock]
    for _ in range(setups - 1):
        setup_clocks.append(Clock())
        setup(workload, seed, part, setup_clocks[-1])
    answers = [[r["qid"], r["final"], r["ids"]] for r in ledger.rows]
    digest = hashlib.sha256(json.dumps(
        [sim.events_executed, answers, repr(energy_j),
         sorted(counts.items())]).encode()).hexdigest()
    record = {
        "workload": workload, "seed": seed, "part": part,
        "setup_s": statistics.median(c.s for c in setup_clocks),
        "setup_raw_s": setup_clock.raw_s,
        "wall_s": clock.s, "wall_raw_s": clock.raw_s,
        "peak_rss_mib": peak_rss_mib,
        "span_s": span_s, "energy_j": energy_j,
        "latency": [r["latency"] for r in ledger.rows],
        "post": [r["post"] for r in ledger.rows],
        "complete": [r["complete"] for r in ledger.rows],
        "useful": [r["useful"] for r in ledger.rows],
        "errors": ledger.errors[:20], "n_errors": len(ledger.errors),
        "counts": counts, "digest": digest,
    }
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, required=True)
    parser.add_argument("--setups", type=int, default=1,
                        help="set-ups to time (see run_part)")
    parser.add_argument("--trace", action="store_true",
                        help="wrap the layer boundaries and report "
                             "per-layer self time")
    args = parser.parse_args(argv)
    tracer = None
    if args.trace:
        # Install before repro builds anything, so every object is
        # created from the wrapped classes.
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    record = run_part(args.workload, args.seed, args.part, args.setups)
    if tracer is not None:
        record["trace"] = tracer.report()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
