"""Experiment runner: single queries and paper-style workload runs.

A *run* follows §5.1: a warm-started network processes queries issued at
exponentially distributed intervals for a fixed duration; latency, energy
and pre/post accuracy are averaged over the run's queries.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..core.query import KNNQuery, QueryResult, per_run_allocator
from ..geometry import Vec2
from ..metrics.accuracy import post_accuracy, pre_accuracy
from ..metrics.outcome import (QueryOutcome, RunMetrics,
                               energy_dispersion)
from .config import SimulationConfig, SimulationHandle, build_simulation
from .workloads import QueryWorkload, UniformWorkload

ProtocolFactory = Callable[[SimulationConfig], "object"]


def await_completion(sim, done: List[QueryResult],
                     timeout: float) -> None:
    """Run the kernel until ``done`` is populated or ``timeout`` passes.

    Event-driven: the completion callback requests a kernel stop, so the
    run ends right after the event that answered the query — no
    per-event polling.  An unanswered query gets the first event beyond
    the deadline as well (in-flight deliveries land before the caller
    abandons), matching the historical stepping loop.

    The caller's completion callback must call ``sim.request_stop()``
    when it fires (see :func:`run_query`); this helper only drives the
    clock.
    """
    deadline = sim.now + timeout
    sim.run(until=deadline)
    if not done and sim.now >= deadline:
        sim.step()


def run_query(handle: SimulationHandle, point: Vec2, k: int,
              timeout: float = 15.0,
              assurance_gain: Optional[float] = None) -> QueryOutcome:
    """Issue one query on a warmed-up simulation and wait for the answer.

    Returns the outcome; for an unanswered query (``timeout`` reached) the
    partial result the sink gathered is still scored for accuracy.
    """
    g = (assurance_gain if assurance_gain is not None
         else handle.config.assurance_gain)
    sim = handle.sim
    query = KNNQuery(query_id=per_run_allocator(sim).allocate(),
                     sink_id=handle.sink.id,
                     point=point, k=k, issued_at=sim.now,
                     assurance_gain=g)
    done: List[QueryResult] = []
    energy_before = handle.network.ledger.snapshot()

    def _on_complete(result: QueryResult) -> None:
        done.append(result)
        sim.request_stop()

    handle.protocol.issue(handle.sink, query, _on_complete)
    await_completion(sim, done, timeout)
    energy = handle.network.ledger.since(energy_before)
    if done:
        result = done[0]
        outcome = QueryOutcome(
            query_id=query.query_id, k=k, completed=True,
            latency=result.latency,
            pre_accuracy=pre_accuracy(handle.network, result),
            post_accuracy=post_accuracy(handle.network, result),
            energy_j=energy, meta=dict(result.meta))
        if handle.validator is not None:
            handle.validator.observe_outcome(result, outcome)
            handle.validator.check_now()
        return outcome
    partial = handle.protocol.abandon(query.query_id)
    give_up = handle.sim.now
    pre = pre_accuracy(handle.network, partial) if partial else 0.0
    post = (post_accuracy(handle.network, partial, at=give_up)
            if partial else 0.0)
    outcome = QueryOutcome(query_id=query.query_id, k=k, completed=False,
                           latency=None, pre_accuracy=pre,
                           post_accuracy=post, energy_j=energy,
                           meta=dict(partial.meta) if partial else {})
    if handle.validator is not None:
        handle.validator.observe_outcome(partial, outcome, at=give_up)
        handle.validator.check_now()
    return outcome


def run_workload(config: SimulationConfig,
                 protocol_factory: ProtocolFactory,
                 k: int,
                 duration: float = 40.0,
                 query_timeout: float = 10.0,
                 workload: "QueryWorkload | None" = None) -> RunMetrics:
    """One full simulation run (paper §5.1 style).

    Queries are issued from the sink following ``workload`` (default: the
    paper's exponential-interval uniform-point workload); queries may
    overlap in flight.  Energy is the protocol traffic of the whole run
    (beacons excluded, index maintenance included).
    """
    protocol = protocol_factory(config)
    handle = build_simulation(config, protocol)
    handle.warm_up()
    sim, network = handle.sim, handle.network

    if workload is None:
        workload = UniformWorkload(
            mean_interval=config.query_interval_mean,
            margin_fraction=config.query_margin_fraction)
    events = workload.generate(config.field, start=sim.now,
                               duration=duration,
                               rng=sim.rng.stream("workload"))

    pending: Dict[int, KNNQuery] = {}
    finished: Dict[int, QueryResult] = {}
    end = sim.now + duration

    ids = per_run_allocator(sim)

    def _make_issue(point: Vec2):
        def _issue() -> None:
            query = KNNQuery(query_id=ids.allocate(),
                             sink_id=handle.sink.id, point=point, k=k,
                             issued_at=sim.now,
                             assurance_gain=config.assurance_gain)
            pending[query.query_id] = query

            def _on_complete(result: QueryResult) -> None:
                finished[query.query_id] = result

            handle.protocol.issue(handle.sink, query, _on_complete)
        return _issue

    for at, point in events:
        sim.schedule_at(at, _make_issue(point))

    energy_before = network.ledger.snapshot()
    sim.run(until=end + query_timeout)
    energy = network.ledger.since(energy_before)

    stop = getattr(protocol, "stop", None)
    if callable(stop):
        stop()

    outcomes: List[QueryOutcome] = []
    for query_id, query in pending.items():
        result = finished.get(query_id)
        if result is not None:
            outcome = QueryOutcome(
                query_id=query_id, k=k, completed=True,
                latency=result.latency,
                pre_accuracy=pre_accuracy(network, result),
                post_accuracy=post_accuracy(network, result),
                energy_j=energy / max(len(pending), 1),
                meta=dict(result.meta))
            if handle.validator is not None:
                handle.validator.observe_outcome(result, outcome)
        else:
            partial = handle.protocol.abandon(query_id)
            give_up = min(query.issued_at + query_timeout, sim.now)
            outcome = QueryOutcome(
                query_id=query_id, k=k, completed=False, latency=None,
                pre_accuracy=(pre_accuracy(network, partial)
                              if partial else 0.0),
                post_accuracy=(post_accuracy(network, partial, at=give_up)
                               if partial else 0.0),
                energy_j=energy / max(len(pending), 1),
                meta=dict(partial.meta) if partial else {})
            if handle.validator is not None:
                handle.validator.observe_outcome(partial, outcome,
                                                 at=give_up)
        outcomes.append(outcome)

    if handle.validator is not None:
        handle.validator.finalize()

    metrics = RunMetrics(protocol=handle.protocol.name,
                         outcomes=outcomes, energy_j=energy,
                         duration_s=duration,
                         params={"k": k, "max_speed": config.max_speed,
                                 "seed": config.seed})
    metrics.energy_dispersion = energy_dispersion(
        {nid: acct.total_j
         for nid, acct in network.ledger.accounts().items()})
    if handle.obs is not None:
        metrics.obs = handle.obs.run_summary()
    return metrics


def repeat_workload(config: SimulationConfig,
                    protocol_factory: ProtocolFactory, k: int,
                    repeats: int = 3, duration: float = 40.0,
                    query_timeout: float = 10.0) -> List[RunMetrics]:
    """Average over ``repeats`` runs with derived seeds (paper: 20 runs)."""
    runs = []
    for rep in range(repeats):
        cfg = config.with_(seed=config.seed * 1_000 + rep * 7 + 1)
        runs.append(run_workload(cfg, protocol_factory, k,
                                 duration=duration,
                                 query_timeout=query_timeout))
    return runs
