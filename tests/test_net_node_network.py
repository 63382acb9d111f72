"""Tests for SensorNode, beacons, neighbor tables, and Network plumbing."""

import pytest

from repro.geometry import Rect, Vec2
from repro.mobility import RandomWaypointMobility, StaticMobility
from repro.net import Message, Network, SensorNode
from repro.sim import ConfigurationError, Simulator

from tests.beacon_reference import ReferenceBeacons
from tests.conftest import build_mobile_network, build_static_network


class TestNodeBasics:
    def test_position_requires_network_or_time(self):
        node = SensorNode(1, StaticMobility(Vec2(3, 4)))
        assert node.position(0.0) == Vec2(3, 4)
        with pytest.raises(RuntimeError):
            node.position()

    def test_handler_dispatch(self):
        sim, net = build_static_network(n=5, warm=False)
        node = net.nodes[0]
        got = []
        node.on("ping", lambda n, m: got.append(m.payload["x"]))
        node.handle(Message(kind="ping", src=1, dst=0, size_bytes=4,
                            payload={"x": 7}))
        node.handle(Message(kind="other", src=1, dst=0, size_bytes=4))
        assert got == [7]

    def test_dead_node_ignores_messages(self):
        sim, net = build_static_network(n=5, warm=False)
        node = net.nodes[0]
        node.on("ping", lambda n, m: pytest.fail("dead node spoke"))
        node.alive = False
        node.handle(Message(kind="ping", src=1, dst=0, size_bytes=4))


class TestNetworkPopulation:
    def test_duplicate_id_rejected(self):
        sim = Simulator()
        net = Network(sim)
        net.add_node(SensorNode(1, StaticMobility(Vec2(0, 0))))
        with pytest.raises(ConfigurationError):
            net.add_node(SensorNode(1, StaticMobility(Vec2(1, 1))))

    def test_len_and_lookup(self):
        sim, net = build_static_network(n=7, warm=False)
        assert len(net) == 7
        assert net.node(3).id == 3

    @pytest.mark.parametrize("kernel", [
        "batched",
        # The per-event reference model stands in for the removed
        # legacy beacon path.
        pytest.param("reference", id="legacy"),
    ])
    def test_rejected_add_changes_nothing(self, kernel):
        """Once beacons run, ids must arrive in ascending order; a
        rejected add leaves the network exactly as it was, whichever
        kernel beacons."""
        sim = Simulator(seed=1)
        net = Network(sim)
        for i in range(0, 20, 2):
            net.add_node(SensorNode(i, StaticMobility(Vec2(5.0 * i, 0.0))))
        if kernel == "reference":
            ReferenceBeacons(net).start_beacons()
            sim.run(until=sim.now + 2.0 * net.beacon_interval)
        else:
            net.warm_up()
        far = Vec2(0.0, 0.0)
        before = net.in_range_of(far, radius=1000.0)
        late = SensorNode(7, StaticMobility(Vec2(35.0, 1.0)))
        with pytest.raises(ValueError):
            net.add_node(late)
        assert len(net) == 10 and 7 not in net.nodes
        assert late.network is None
        assert net.in_range_of(far, radius=1000.0) == before
        net.add_node(SensorNode(20, StaticMobility(Vec2(100.0, 0.0))))
        assert [nid for nid, _ in net.in_range_of(far, radius=1000.0)] \
            == list(range(0, 22, 2))


class TestPositionsAndRange:
    def test_in_range_of_uses_radio_range(self):
        sim = Simulator()
        net = Network(sim)
        net.add_node(SensorNode(1, StaticMobility(Vec2(0, 0))))
        net.add_node(SensorNode(2, StaticMobility(Vec2(15, 0))))
        net.add_node(SensorNode(3, StaticMobility(Vec2(50, 0))))
        ids = {nid for nid, _p in net.in_range_of(Vec2(0, 0))}
        assert ids == {1, 2}

    def test_nearest_node(self):
        sim, net = build_static_network(n=50, warm=False)
        target = Vec2(60, 60)
        nearest = net.nearest_node(target)
        best = min(net.nodes.values(),
                   key=lambda n: n.position(0.0).distance_to(target))
        assert nearest.id == best.id

    def test_true_positions_ground_truth(self):
        sim, net = build_static_network(n=10, warm=False)
        positions = net.true_positions()
        assert len(positions) == 10
        for nid, pos in positions.items():
            assert pos == net.nodes[nid].position(0.0)


class TestBeaconsAndNeighborTables:
    def test_warm_up_fills_neighbor_tables(self):
        sim, net = build_static_network(n=200)
        degrees = [len(n.neighbors()) for n in net.nodes.values()]
        # Paper setting: node degree ~20 at 115x115 with r=20.
        assert sum(degrees) / len(degrees) > 10

    def test_neighbor_entries_match_truth_for_static(self):
        sim, net = build_static_network(n=100)
        node = net.nodes[0]
        for entry in node.neighbors():
            true_pos = net.nodes[entry.node_id].position()
            assert entry.position.distance_to(true_pos) < 1e-6
            assert entry.position.distance_to(node.position()) <= \
                net.radio.range_m + 1e-6

    def test_stale_entries_pruned(self):
        sim, net = build_static_network(n=30)
        node = net.nodes[0]
        assert node.neighbors()
        net.stop_beacons()
        sim.run(until=sim.now + 10 * net.neighbor_timeout)
        assert node.neighbors() == []

    def test_read_prunes_the_store(self):
        """``neighbors()`` drops the stale cells it skips from the store:
        the pruned node's table empties, an unread one keeps its stale
        entries until the sweep."""
        sim, net = build_static_network(n=30)
        reader, idle = [n for n in net.nodes.values() if n.neighbor_table][:2]
        assert reader.neighbors()
        net.stop_beacons()
        sim.run(until=sim.now + 10 * net.neighbor_timeout)
        assert reader.neighbors() == []
        assert reader.neighbor_table == {}
        stale = len(idle.neighbor_table)
        assert stale
        assert idle.evict_stale_neighbors(sim.now,
                                          net.neighbor_timeout) == stale
        assert idle.neighbor_table == {}

    def test_double_start_rejected(self):
        sim, net = build_static_network(n=5)
        with pytest.raises(ConfigurationError):
            net.start_beacons()

    def test_dead_reckoning_tracks_moving_neighbor(self):
        field = Rect.from_size(100, 100)
        sim = Simulator(seed=4)
        net = Network(sim)
        net.add_node(SensorNode(0, StaticMobility(Vec2(50, 50))))
        mover = SensorNode(1, RandomWaypointMobility(
            Vec2(52, 50), field, sim.rng.stream("m"), max_speed=10.0,
            min_speed=9.0))
        net.add_node(mover)
        net.warm_up()
        sim.run(until=sim.now + 0.4)  # mid-beacon-interval
        entries = {e.node_id: e for e in net.nodes[0].neighbors()}
        if 1 in entries:
            predicted = entries[1].position
            true_pos = mover.position()
            raw = entries[1].beacon_position
            # Prediction must beat the raw beaconed position.
            assert predicted.distance_to(true_pos) <= \
                raw.distance_to(true_pos) + 1e-9


    def test_dead_reckoning_matches_scalar_rule(self):
        """``neighbors()`` dead-reckons a whole row at once with exactly
        the arithmetic of ``NeighborEntry.predicted_position``."""
        sim, net, _sink = build_mobile_network(n=60)
        sim.run(until=sim.now + 0.37)  # mid-beacon-interval
        now = sim.now
        checked = 0
        for node in net.nodes.values():
            table = node.neighbor_table
            for entry in node.neighbors():
                raw = table[entry.node_id]
                assert entry.position == raw.predicted_position(now)
                assert entry.beacon_position == raw.beacon_position
                checked += 1
        assert checked > 100


class TestMessaging:
    def test_broadcast_and_unicast(self):
        sim = Simulator()
        net = Network(sim)
        for i, x in enumerate((0.0, 10.0, 18.0, 90.0)):
            net.add_node(SensorNode(i, StaticMobility(Vec2(x, 0))))
        net.warm_up()
        got = []
        net.register_handler("app", lambda n, m: got.append(n.id))
        net.nodes[0].broadcast("app", {}, 10)
        sim.run(until=sim.now + 1)
        assert sorted(got) == [1, 2]  # node 3 out of range
        got.clear()
        net.nodes[0].send(1, "app", {}, 10)
        sim.run(until=sim.now + 1)
        assert got == [1]

    def test_trace_hooks_see_send_and_deliver(self):
        sim, net = build_static_network(n=150)
        events = []
        sim.probe.subscribe("trace",
                            lambda ev, m, nid: events.append((ev, nid)))
        net.register_handler("app", lambda n, m: None)
        net.nodes[0].broadcast("app", {}, 10)
        sim.run(until=sim.now + 1)
        assert ("send", 0) in events
        assert any(ev == "deliver" for ev, _nid in events)

    def test_beacon_energy_separate_from_protocol_energy(self):
        sim, net = build_static_network(n=50)
        assert net.ledger.total_j("beacon_charge") > 0.0
        assert net.ledger.total_j() == 0.0
        net.register_handler("app", lambda n, m: None)
        net.nodes[0].broadcast("app", {}, 10)
        sim.run(until=sim.now + 1)
        assert net.ledger.total_j() > 0.0

    def test_stats_counters(self):
        sim, net = build_static_network(n=30)
        assert net.stats.beacons_sent > 0
        before = net.stats.messages_sent
        net.register_handler("app", lambda n, m: None)
        net.nodes[0].broadcast("app", {}, 10)
        sim.run(until=sim.now + 1)
        assert net.stats.messages_sent == before + 1
        assert net.stats.deliveries > 0
