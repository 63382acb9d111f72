"""End-to-end tests of the baseline protocols: KPT, Peer-tree, flooding."""

import pytest

from repro.baselines import (FloodingProtocol, KPTConfig, KPTProtocol,
                             PeerTreeConfig, PeerTreeProtocol)
from repro.core import KNNQuery, per_run_allocator
from repro.geometry import Rect, Vec2
from repro.metrics import pre_accuracy
from repro.routing import GpsrRouter
from repro.sim import ConfigurationError

from tests.conftest import FIELD, build_mobile_network, build_static_network


def run_one(sim, proto, sink, point, k, timeout=15.0):
    query = KNNQuery(query_id=per_run_allocator(sim).allocate(),
                     sink_id=sink.id,
                     point=point, k=k, issued_at=sim.now)
    results = []
    proto.issue(sink, query, results.append)
    sim.run(until=sim.now + timeout)
    return results[0] if results else None


def install(net, proto):
    router = GpsrRouter(net)
    proto.install(net, router)
    proto.setup()
    return proto


class TestKPT:
    def test_exact_on_static_field(self):
        sim, net = build_static_network(seed=3)
        proto = install(net, KPTProtocol())
        result = run_one(sim, proto, net.nodes[0], Vec2(70, 70), k=20)
        assert result is not None
        assert pre_accuracy(net, result) >= 0.85
        assert result.meta["radius"] > 0

    def test_completes_under_mobility(self):
        sim, net, sink = build_mobile_network(seed=4)
        proto = install(net, KPTProtocol())
        result = run_one(sim, proto, sink, Vec2(60, 60), k=30)
        assert result is not None
        assert pre_accuracy(net, result) >= 0.5

    def test_accuracy_degrades_with_large_k(self):
        """Fig 8(d): KPT's fixed boundary misses neighbors at large k."""
        sim, net = build_static_network(seed=5)
        proto = install(net, KPTProtocol())
        small = run_one(sim, proto, net.nodes[0], Vec2(60, 60), k=20)
        large = run_one(sim, proto, net.nodes[0], Vec2(60, 60), k=100,
                        timeout=25.0)
        assert small is not None and large is not None
        assert pre_accuracy(net, large) <= pre_accuracy(net, small) + 0.05

    def test_orphan_recovery_preserves_some_data(self):
        sim, net, sink = build_mobile_network(seed=9, max_speed=20.0)
        proto = install(net, KPTProtocol())
        result = run_one(sim, proto, sink, Vec2(55, 60), k=30)
        assert result is not None
        assert len(result.candidates) >= 10


class TestPeerTree:
    def test_setup_pins_stationary_heads(self):
        sim, net, sink = build_mobile_network(seed=4, warm=False)
        proto = PeerTreeProtocol(FIELD)
        router = GpsrRouter(net)
        proto.install(net, router)
        net.warm_up()
        proto.setup()
        assert len(proto.heads) == 25
        assert len(set(proto.heads)) == 25
        for cell_idx, head_id in enumerate(proto.heads):
            head = net.nodes[head_id]
            assert head.mobility.max_speed == 0.0  # pinned
            assert proto.cells[cell_idx].contains(head.position()) or \
                head.position().distance_to(
                    proto.cells[cell_idx].center()) < 40.0
        proto.stop()

    def test_double_setup_rejected(self):
        sim, net = build_static_network(seed=3, warm=False)
        proto = PeerTreeProtocol(FIELD)
        proto.install(net, GpsrRouter(net))
        net.warm_up()
        proto.setup()
        with pytest.raises(ConfigurationError):
            proto.setup()
        proto.stop()

    def test_cell_of_grid_mapping(self):
        sim, net = build_static_network(seed=3, warm=False)
        proto = PeerTreeProtocol(Rect.from_size(100, 100),
                                 PeerTreeConfig(grid_rows=5, grid_cols=5))
        proto.install(net, GpsrRouter(net))
        assert proto.cell_of(Vec2(1, 1)) == 0
        assert proto.cell_of(Vec2(99, 1)) == 4
        assert proto.cell_of(Vec2(1, 99)) == 20
        assert proto.cell_of(Vec2(99, 99)) == 24
        assert proto.cell_of(Vec2(50, 50)) == 12

    def test_query_on_static_field(self):
        sim, net = build_static_network(seed=3)
        proto = install(net, PeerTreeProtocol(FIELD))
        sim.run(until=sim.now + 5)  # let notifications populate tables
        result = run_one(sim, proto, net.nodes[0], Vec2(70, 70), k=20)
        proto.stop()
        assert result is not None
        assert pre_accuracy(net, result) >= 0.7

    def test_maintenance_generates_traffic(self):
        sim, net = build_static_network(seed=3)
        proto = install(net, PeerTreeProtocol(FIELD))
        before = net.ledger.total_j()
        sim.run(until=sim.now + 6)
        proto.stop()
        assert net.ledger.total_j() > before

    def test_member_tables_populated(self):
        sim, net = build_static_network(seed=3)
        proto = install(net, PeerTreeProtocol(FIELD))
        sim.run(until=sim.now + 6)
        proto.stop()
        total_members = sum(len(t) for t in proto._members.values())
        assert total_members > 100

    def test_accuracy_collapses_under_high_mobility(self):
        accs = {}
        for speed in (5.0, 30.0):
            sim, net, sink = build_mobile_network(seed=6, max_speed=speed)
            proto = install(net, PeerTreeProtocol(FIELD))
            sim.run(until=sim.now + 6)
            vals = []
            for i in range(3):
                r = run_one(sim, proto, sink, Vec2(45 + 10 * i, 60), k=30)
                vals.append(pre_accuracy(net, r) if r else 0.0)
            proto.stop()
            accs[speed] = sum(vals) / len(vals)
        assert accs[30.0] < accs[5.0]


class TestFlooding:
    def test_finds_neighbors_on_static_field(self):
        sim, net = build_static_network(seed=3)
        proto = FloodingProtocol()
        proto.install(net, GpsrRouter(net))
        proto.setup()
        result = run_one(sim, proto, net.nodes[0], Vec2(70, 70), k=15)
        assert result is not None
        assert pre_accuracy(net, result) >= 0.7

    def test_costs_more_than_diknn(self):
        """The paper's motivation for itineraries (§3.3): per-node reply
        routing burns far more energy."""
        from repro.core import DIKNNProtocol
        energies = {}
        for name, proto in (("flood", FloodingProtocol()),
                            ("diknn", DIKNNProtocol())):
            sim, net = build_static_network(seed=7)
            proto.install(net, GpsrRouter(net))
            proto.setup()
            before = net.ledger.snapshot()
            run_one(sim, proto, net.nodes[0], Vec2(60, 60), k=30)
            energies[name] = net.ledger.since(before)
        assert energies["flood"] > energies["diknn"]
