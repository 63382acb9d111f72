"""Edge-case tests of DIKNN's message handlers.

Protocols must shrug off the weird-but-possible: late replies after a
window closed, tokens for abandoned queries, duplicate deliveries, probes
for unknown queries, stale rendezvous gossip.
"""

import pytest

from repro.core import (DIKNNConfig, DIKNNProtocol, KNNQuery, TokenState,
                        per_run_allocator)
from repro.geometry import Vec2
from repro.net.messages import Message
from repro.routing import GpsrRouter

from tests.conftest import build_static_network


def install(net, config=None):
    proto = DIKNNProtocol(config)
    proto.install(net, GpsrRouter(net))
    return proto


def make_token(net, query_id=None, sector=0, k=10):
    return TokenState(
        query_id=(query_id if query_id is not None
                  else per_run_allocator(net.sim).allocate()),
        sink_id=0, sink_pos=net.nodes[0].position(),
        point=Vec2(60, 60), k=k, assurance_gain=0.1, sectors_total=8,
        sector=sector, width=17.32, spacing=16.0, inverted=False,
        radius_history=[25.0], started_at=net.sim.now)


class TestHandlerRobustness:
    def test_data_reply_after_session_closed_is_ignored(self):
        sim, net = build_static_network(seed=3)
        proto = install(net)
        node = net.nodes[0]
        # No session exists for this (query, sector): must not raise.
        proto._on_data(node, Message(
            kind="diknn.data", src=1, dst=0, size_bytes=10,
            payload={"query_id": 99999, "sector": 2,
                     "candidate": (1, 0.0, 0.0, 0.0, 0.0, 0.0),
                     "stats": {}}))

    def test_probe_for_unknown_query_handled(self):
        sim, net = build_static_network(seed=3)
        proto = install(net)
        node = net.nodes[5]
        pos = net.nodes[7].position()
        proto._on_probe(node, Message(
            kind="diknn.probe", src=7, dst=-1, size_bytes=24,
            payload={"query_id": 123456, "sector": 0, "qnode": 7,
                     "qnode_pos": (pos.x, pos.y), "point": (60.0, 60.0),
                     "radius": 30.0, "ref_angle": 0.0, "expected": 3,
                     "m": 0.018, "scheme": "hybrid", "precedence": [],
                     "prev_pos": None}))
        sim.run(until=sim.now + 1)  # the reply goes nowhere; no crash

    def test_result_for_abandoned_query_is_dropped(self):
        sim, net = build_static_network(seed=3)
        proto = install(net)
        query = KNNQuery(query_id=per_run_allocator(sim).allocate(), sink_id=0,
                         point=Vec2(60, 60), k=10, issued_at=sim.now)
        proto.issue(net.nodes[0], query, lambda r: pytest.fail("late"))
        proto.abandon(query.query_id)
        sim.run(until=sim.now + 15)  # sector results arrive, are ignored

    def test_duplicate_token_does_not_double_count_self(self):
        sim, net = build_static_network(seed=3)
        proto = install(net)
        node = net.nodes[10]
        token = make_token(net)
        payload = {"token": token.to_payload(),
                   "prev_pos": None}
        proto._on_token(node, Message(kind="diknn.token", src=1,
                                      dst=node.id, size_bytes=50,
                                      payload=dict(payload)))
        session1 = proto._sessions[(token.query_id, token.sector)]
        explored_1 = session1.token.explored
        # Same node gets a (duplicate) token for the same query: its own
        # response must not be added twice.
        proto._on_token(node, Message(kind="diknn.token", src=1,
                                      dst=node.id, size_bytes=50,
                                      payload=dict(payload)))
        session2 = proto._sessions[(token.query_id, token.sector)]
        assert session2.token.explored <= explored_1

    def test_rendezvous_gossip_for_foreign_query_cached(self):
        sim, net = build_static_network(seed=3)
        proto = install(net)
        node = net.nodes[4]
        proto._on_rendezvous(node, Message(
            kind="diknn.rdv", src=9, dst=-1, size_bytes=16,
            payload={"query_id": 777, "stats": {1: (5, 20.0)}}))
        assert 777 in proto._rdv_cache[node.id]
        assert proto._rdv_cache[node.id][777][1].explored == 5

    def test_dead_qnode_session_does_not_advance(self):
        sim, net = build_static_network(seed=3)
        proto = install(net)
        node = net.nodes[10]
        token = make_token(net)
        proto._on_token(node, Message(
            kind="diknn.token", src=1, dst=node.id, size_bytes=50,
            payload={"token": token.to_payload(), "prev_pos": None}))
        node.alive = False
        sim.run(until=sim.now + 2)  # the deadline fires into a dead node
        # Session cleaned up, no result bundle originated from the dead
        # node (its id never appears as a sender afterwards).
        assert (token.query_id, token.sector) not in proto._sessions


class TestConfigValidation:
    def test_invalid_sectors(self):
        with pytest.raises(ValueError):
            DIKNNConfig(sectors=0)

    def test_invalid_time_unit(self):
        with pytest.raises(ValueError):
            DIKNNConfig(time_unit_s=0.0)

    def test_invalid_scheme_rejected_at_plan_time(self):
        sim, net = build_static_network(seed=3)
        proto = install(net, DIKNNConfig(collection_scheme="hybrid"))
        # The CollectionPlan validates; a bogus scheme via config would
        # raise when the first plan is made.
        from repro.core import CollectionPlan
        with pytest.raises(ValueError):
            CollectionPlan(0.0, 1, scheme="psycho")
