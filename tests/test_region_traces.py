"""Pinned event-stream digests of the two region queries.

Window and aggregate queries share one itinerary traversal and differ
only in what the token carries; these digests pin every message, size
and timer of both, on a static field, under mobility, and under crashes
plus packet loss.  The last two configurations are there because they
reach the token's failed-hop retry (``_on_fail``) and the result
route's ``_on_drop`` retry for both protocols; seed 11's crash-and-loss
run reaches neither for the window query.

A changed digest means the simulation executed a different event
sequence.  Like the golden fixtures, these change only under a
sanctioned divergence; see the regeneration policy in
``tests/golden/README.md``.
"""

import pytest

from repro.core import (AggregateQueryProtocol, WindowQuery,
                        WindowQueryProtocol)
from repro.experiments import SimulationConfig, build_simulation
from repro.geometry import Rect
from repro.obs.events import TraceLog
from repro.validate.golden import trace_digest

REGION = Rect(40, 40, 85, 85)

STATIC = dict(seed=11, max_speed=0.0)
MOBILE = dict(seed=11, max_speed=10.0)
FAULTY = dict(seed=11, max_speed=10.0, crash_rate=0.05,
              packet_loss_rate=0.1)
# The window query's result route retries on seed 3, the aggregate's on
# seed 1; both reach _on_fail on both seeds.
RETRY_1 = dict(seed=1, max_speed=10.0, crash_rate=0.1, packet_loss_rate=0.2)
RETRY_3 = dict(seed=3, max_speed=10.0, crash_rate=0.2, packet_loss_rate=0.2)

#: (protocol, config) -> (trace digest, trace entries, ledger.total_j())
PINNED = [
    (WindowQueryProtocol, STATIC,
     "5caf1e6d18466779c6de60a60baac7e83b8566080d8347a75af37a32ba586140",
     448, 0.03530559999999998),
    (WindowQueryProtocol, MOBILE,
     "c0b0b65c82f2e03b97c6bda1f71863c09dd4d65437c9df5b3bd60604e6d911a7",
     563, 0.05534336),
    (WindowQueryProtocol, FAULTY,
     "d30f38c9dddd4a0536402ec74906e5e739e0b1719004317f7a449cec7fe0b65a",
     504, 0.0509328),
    (WindowQueryProtocol, RETRY_1,
     "ee718fc082ff496cc44b3e540df972bfe17858a8b55e5fd8cafc9ffec41d917e",
     497, 0.07175583999999993),
    (WindowQueryProtocol, RETRY_3,
     "e9ba71536786ac4e0ec4a71a6e5c9a3b19aeae6480d03df5824a6115391544a3",
     704, 0.22297407999999994),
    (AggregateQueryProtocol, STATIC,
     "e47896ed477912828bcd547615b58937f5838b5953bfb36097ebaeb0635f9142",
     448, 0.028073599999999983),
    (AggregateQueryProtocol, MOBILE,
     "365c0125c232dee94f2cbe79eaf82ba0b5546411af896906e902730986cfaf08",
     593, 0.048177120000000004),
    (AggregateQueryProtocol, FAULTY,
     "2fb070ef985b0a8aba077cc8754a1761d35b9de5cd4a3233ac46b06c94dbd06c",
     530, 0.044714399999999994),
    (AggregateQueryProtocol, RETRY_1,
     "e195076c16424424aa577f1803979dcbd013c430956b615ca772c79bc4e47627",
     976, 0.14540703999999996),
    (AggregateQueryProtocol, RETRY_3,
     "0ec2d9d6f011f1274202bf199273d1f4ef0f7ae0f178a3d36b982732267e55fd",
     305, 0.03796128000000002),
]


def _case_id(case):
    protocol, config = case[0], case[1]
    knobs = "-".join(f"{k}={v}" for k, v in config.items())
    return f"{protocol.name}-{knobs}"


@pytest.mark.parametrize("protocol,config,digest,entries,total_j", PINNED,
                         ids=[_case_id(case) for case in PINNED])
def test_region_trace_is_pinned(protocol, config, digest, entries,
                                total_j):
    proto = protocol()
    handle = build_simulation(SimulationConfig(**config), proto)
    trace = TraceLog(handle.network)
    handle.warm_up()
    query = WindowQuery(query_id=1, sink_id=handle.sink.id, window=REGION,
                        issued_at=handle.sim.now)
    proto.issue(handle.sink, query, lambda _result: None)
    handle.sim.run(until=handle.sim.now + 40.0)
    assert (trace_digest(trace.entries), len(trace.entries)) == (digest,
                                                                 entries)
    assert handle.network.ledger.total_j() == total_j
