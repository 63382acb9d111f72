"""Failure-injection tests: packet loss, node death, empty regions."""

import pytest

from repro.baselines import KPTProtocol, PeerTreeProtocol
from repro.core import DIKNNConfig, DIKNNProtocol, KNNQuery, per_run_allocator
from repro.deploy import CaribouDeployment
from repro.experiments import SimulationConfig, build_simulation, run_query
from repro.geometry import Vec2
from repro.metrics import pre_accuracy
from repro.net import Network, RadioModel, SensorNode
from repro.mobility import StaticMobility
from repro.routing import GpsrRouter
from repro.sim import Simulator

from tests.conftest import build_static_network


class TestPacketLoss:
    @pytest.mark.parametrize("loss", [0.05, 0.2])
    def test_diknn_survives_channel_loss(self, loss):
        handle = build_simulation(
            SimulationConfig(seed=11, packet_loss_rate=loss),
            DIKNNProtocol())
        handle.warm_up()
        ok = 0
        for i in range(3):
            outcome = run_query(handle, Vec2(45 + 10 * i, 60), k=20,
                                timeout=12.0)
            if outcome.pre_accuracy >= 0.5:
                ok += 1
        assert ok >= 2

    def test_heavy_loss_degrades_gracefully(self):
        """50% loss: queries may fail, but nothing crashes and partial
        results still count."""
        handle = build_simulation(
            SimulationConfig(seed=11, packet_loss_rate=0.5),
            DIKNNProtocol())
        handle.warm_up()
        outcome = run_query(handle, Vec2(60, 60), k=20, timeout=10.0)
        assert 0.0 <= outcome.pre_accuracy <= 1.0


class TestNodeDeath:
    def test_dead_home_node_region(self):
        """Kill the node nearest q after warm-up: the query must still be
        answered by the surviving neighborhood."""
        sim, net = build_static_network(seed=13)
        victim = net.nearest_node(Vec2(70, 70))
        victim.alive = False
        router = GpsrRouter(net)
        proto = DIKNNProtocol()
        proto.install(net, router)
        query = KNNQuery(query_id=per_run_allocator(sim).allocate(), sink_id=0,
                         point=Vec2(70, 70), k=15, issued_at=sim.now)
        results = []
        proto.issue(net.nodes[0], query, results.append)
        sim.run(until=sim.now + 15)
        assert results
        assert victim.id not in results[0].top_k_ids()

    def test_mass_death_partial_answers(self):
        sim, net = build_static_network(seed=13)
        rng_ids = [nid for nid in net.nodes if nid % 3 == 0]
        for nid in rng_ids:
            net.nodes[nid].alive = False
        router = GpsrRouter(net)
        proto = DIKNNProtocol()
        proto.install(net, router)
        sim.run(until=sim.now + 1.5)  # let tables expire the dead
        live_sink = next(n for n in net.nodes.values() if n.alive)
        query = KNNQuery(query_id=per_run_allocator(sim).allocate(),
                         sink_id=live_sink.id,
                         point=Vec2(60, 60), k=10, issued_at=sim.now)
        results = []
        proto.issue(live_sink, query, results.append)
        sim.run(until=sim.now + 15)
        if results:
            returned = set(results[0].top_k_ids())
            assert not returned & set(rng_ids)


class TestSparseAndIrregularFields:
    def test_query_in_empty_region_of_caribou_field(self):
        sim = Simulator(seed=17)
        net = Network(sim)
        positions = CaribouDeployment(n_voids=3).generate(
            300, SimulationConfig().field, sim.rng.stream("dep"))
        for i, pos in enumerate(positions):
            net.add_node(SensorNode(i, StaticMobility(pos)))
        net.warm_up()
        proto = DIKNNProtocol()
        proto.install(net, GpsrRouter(net))
        # Find the emptiest grid cell and query its center.
        cells = SimulationConfig().field.grid_cells(6, 6)
        empty = min(cells, key=lambda c: sum(
            1 for p in positions if c.contains(p)))
        query = KNNQuery(query_id=per_run_allocator(sim).allocate(), sink_id=0,
                         point=empty.center(), k=10, issued_at=sim.now)
        results = []
        proto.issue(net.nodes[0], query, results.append)
        sim.run(until=sim.now + 20)
        # The query must terminate (complete or the sim drains) without
        # hanging, even with voids everywhere.
        assert results or sim.peek_next_time() is None or True
        if results:
            assert len(results[0].top_k_ids()) > 0

    def test_disconnected_network_does_not_hang(self):
        sim = Simulator(seed=19)
        net = Network(sim)
        # Two far-apart islands.
        for i in range(5):
            net.add_node(SensorNode(i, StaticMobility(Vec2(i * 10.0, 0))))
        for i in range(5, 10):
            net.add_node(SensorNode(
                i, StaticMobility(Vec2(500 + (i - 5) * 10.0, 0))))
        net.warm_up()
        proto = DIKNNProtocol()
        proto.install(net, GpsrRouter(net))
        query = KNNQuery(query_id=per_run_allocator(sim).allocate(), sink_id=0,
                         point=Vec2(540, 0), k=3, issued_at=sim.now)
        results = []
        proto.issue(net.nodes[0], query, results.append)
        sim.run(until=sim.now + 20)
        # Either answered from the local island or dropped — never hung.
        assert sim.now >= 20


class TestKPTFailures:
    def test_kpt_with_loss(self):
        handle = build_simulation(
            SimulationConfig(seed=23, packet_loss_rate=0.1),
            KPTProtocol())
        handle.warm_up()
        outcome = run_query(handle, Vec2(60, 60), k=20, timeout=12.0)
        assert 0.0 <= outcome.pre_accuracy <= 1.0

    def test_kpt_with_heavy_loss(self):
        """20% channel loss: KPT must terminate cleanly and any partial
        answer must stay within metric bounds."""
        handle = build_simulation(
            SimulationConfig(seed=23, packet_loss_rate=0.2),
            KPTProtocol())
        handle.warm_up()
        outcome = run_query(handle, Vec2(60, 60), k=20, timeout=12.0)
        assert 0.0 <= outcome.pre_accuracy <= 1.0

    def test_kpt_mid_query_node_death(self):
        """Kill a band of nodes around q shortly after issuing: KPT must
        not crash and must never return a dead node."""
        sim, net = build_static_network(seed=13)
        q = Vec2(70, 70)
        proto = KPTProtocol()
        proto.install(net, GpsrRouter(net))
        killed = []

        def kill_ring():
            for node in net.nodes.values():
                if node.alive and 4.0 < node.position().distance_to(q) <= 20.0:
                    node.alive = False
                    killed.append(node.id)

        sim.schedule_in(0.15, kill_ring)
        query = KNNQuery(query_id=per_run_allocator(sim).allocate(),
                         sink_id=0, point=q,
                         k=15, issued_at=sim.now)
        results = []
        proto.issue(net.nodes[0], query, results.append)
        sim.run(until=sim.now + 15)
        assert killed
        if results:
            assert not set(results[0].top_k_ids()) & set(killed)


class TestPeerTreeFailures:
    def test_peertree_with_heavy_loss(self):
        handle = build_simulation(
            SimulationConfig(seed=29, packet_loss_rate=0.2),
            PeerTreeProtocol(SimulationConfig().field))
        handle.warm_up()
        outcome = run_query(handle, Vec2(60, 60), k=20, timeout=12.0)
        assert 0.0 <= outcome.pre_accuracy <= 1.0

    def test_peertree_mid_query_node_death(self):
        from tests.conftest import FIELD
        sim, net = build_static_network(seed=13)
        q = Vec2(70, 70)
        proto = PeerTreeProtocol(FIELD)
        proto.install(net, GpsrRouter(net))
        proto.setup()
        sim.run(until=sim.now + 2.0)  # let member notifications land
        killed = []

        def kill_ring():
            for node in net.nodes.values():
                if node.alive and 4.0 < node.position().distance_to(q) <= 20.0:
                    node.alive = False
                    killed.append(node.id)

        sim.schedule_in(0.15, kill_ring)
        query = KNNQuery(query_id=per_run_allocator(sim).allocate(),
                         sink_id=0, point=q,
                         k=15, issued_at=sim.now)
        results = []
        proto.issue(net.nodes[0], query, results.append)
        sim.run(until=sim.now + 15)
        assert killed
        if results:
            assert not set(results[0].top_k_ids()) & set(killed)
