"""Tests for the battery model and Gauss-Markov mobility."""

import numpy as np
import pytest

from repro.core import DIKNNProtocol, KNNQuery, next_query_id
from repro.geometry import Rect, Vec2
from repro.mobility import GaussMarkovMobility
from repro.net import EnergyLedger, EnergyModel
from repro.net.messages import Message
from repro.routing import GpsrRouter

from tests.conftest import build_static_network

FIELD = Rect.from_size(100.0, 100.0)
FIELD_50 = Rect.from_size(50.0, 50.0)


class TestLedgerBattery:
    def test_depletion_callback_fires_once(self):
        dead = []
        ledger = EnergyLedger(EnergyModel(e_elec_j_per_bit=1e-3))
        ledger.set_battery(1.0, dead.append)
        for _ in range(5):
            ledger.charge_rx(7, 500)  # 0.5 J each
        assert dead == [7]
        assert ledger.is_depleted(7)
        assert not ledger.is_depleted(8)

    def test_remaining(self):
        ledger = EnergyLedger(EnergyModel(e_elec_j_per_bit=1e-3))
        assert ledger.remaining_j(1) == float("inf")
        ledger.set_battery(1.0, lambda nid: None)
        ledger.charge_rx(1, 300)
        assert ledger.remaining_j(1) == pytest.approx(0.7)
        ledger.charge_rx(1, 900)
        assert ledger.remaining_j(1) == 0.0

    def test_invalid_capacity(self):
        ledger = EnergyLedger(EnergyModel())
        with pytest.raises(ValueError):
            ledger.set_battery(0.0, lambda nid: None)


class TestNetworkBatteries:
    def test_nodes_die_when_budget_exhausted(self):
        sim, net = build_static_network(n=100, seed=3)
        # Tiny budget: beacon traffic alone will kill nodes quickly.
        net.enable_batteries(capacity_j=2e-4)
        sim.run(until=sim.now + 20)
        assert net.alive_count() < 100

    def test_protocol_and_beacon_energy_share_one_budget(self):
        sim, net = build_static_network(n=60, seed=3)
        victim = net.nearest_node(Vec2(50, 50))
        net.enable_batteries(capacity_j=1e-3)
        net.ledger.charge_rx(victim.id, 12_000)  # 0.6 mJ of protocol rx
        assert victim.alive
        # Beacon traffic (about 0.12 mJ/s here) spends the rest of the
        # one budget although neither part reaches it alone.
        sim.run(until=sim.now + 5)
        assert not victim.alive
        assert net.ledger.account(victim.id).total_j < 1e-3
        assert net.ledger.account(victim.id, "beacon_charge").total_j < 1e-3

    def test_beacon_drained_nodes_send_nothing_unflushed(self):
        """Beacons are charged when something flushes them, but a node
        whose beacons emptied its battery must not send, whether or not
        anything read the tables in between."""
        sim, net = build_static_network(n=60, seed=3, field=FIELD_50)
        net.enable_batteries(capacity_j=net.ledger.node_total_j(0) + 1e-3)
        sim.run(until=sim.now + 0.9)    # mid-interval: nothing flushed
        before = net.stats.messages_sent
        for node in net.nodes.values():
            net.send(node, Message(kind="x", src=node.id, dst=-1,
                                   size_bytes=20))
        net.flush_beacons()
        assert 0 < net.alive_count() < 60
        assert net.stats.messages_sent - before == net.alive_count()

    def test_queries_keep_working_while_network_thins(self):
        sim, net = build_static_network(seed=5)
        net.enable_batteries(capacity_j=0.02)  # generous but finite
        proto = DIKNNProtocol()
        proto.install(net, GpsrRouter(net))
        results = []
        query = KNNQuery(query_id=next_query_id(), sink_id=0,
                         point=Vec2(60, 60), k=10, issued_at=sim.now)
        proto.issue(net.nodes[0], query, results.append)
        sim.run(until=sim.now + 15)
        assert results  # the budget outlives one query
        assert net.alive_count() <= 200

    def test_dead_nodes_not_in_results(self):
        sim, net = build_static_network(seed=7)
        victim = net.nearest_node(Vec2(60, 60))
        # Burn exactly the victim's battery.
        net.enable_batteries(capacity_j=1e-9)
        net.ledger.charge_rx(victim.id, 1)
        assert not victim.alive
        proto = DIKNNProtocol()
        proto.install(net, GpsrRouter(net))
        results = []
        query = KNNQuery(query_id=next_query_id(), sink_id=0,
                         point=Vec2(60, 60), k=10, issued_at=sim.now + 2)
        sim.run(until=sim.now + 2)  # let tables forget the victim
        proto.issue(net.nodes[0], query, results.append)
        sim.run(until=sim.now + 15)
        if results:
            assert victim.id not in results[0].top_k_ids()


def make_gm(seed=1, mean_speed=8.0, **kwargs):
    rng = np.random.default_rng(seed)
    return GaussMarkovMobility(Vec2(50, 50), FIELD, rng,
                               mean_speed=mean_speed, **kwargs)


class TestGaussMarkov:
    def test_stays_in_field(self):
        m = make_gm(seed=2)
        for t in np.linspace(0, 200, 400):
            assert FIELD.contains(m.position_at(float(t)))

    def test_speed_capped(self):
        m = make_gm(seed=3, mean_speed=5.0)
        for t in np.linspace(0, 100, 200):
            assert m.speed_at(float(t)) <= m.max_speed + 1e-9

    def test_continuity(self):
        m = make_gm(seed=4)
        dt = 0.02
        prev = m.position_at(0.0)
        for i in range(1, 1000):
            cur = m.position_at(i * dt)
            assert prev.distance_to(cur) <= m.max_speed * dt + 1e-9
            prev = cur

    def test_high_alpha_smoother_than_low_alpha(self):
        """Velocity autocorrelation grows with alpha."""

        def heading_change(m, samples=200):
            total = 0.0
            prev = m.velocity_at(0.5)
            for i in range(1, samples):
                cur = m.velocity_at(0.5 + i * 1.0)
                if prev.norm() > 0 and cur.norm() > 0:
                    dot = max(-1.0, min(1.0, prev.dot(cur)
                                        / (prev.norm() * cur.norm())))
                    import math
                    total += abs(math.acos(dot))
                prev = cur
            return total

        smooth = heading_change(make_gm(seed=5, alpha=0.98))
        jerky = heading_change(make_gm(seed=5, alpha=0.05))
        assert smooth < jerky

    def test_repeatable(self):
        a = make_gm(seed=6)
        b = make_gm(seed=6)
        for t in (1.0, 10.0, 55.5):
            assert a.position_at(t) == b.position_at(t)

    def test_mean_speed_respected(self):
        m = make_gm(seed=7, mean_speed=6.0, alpha=0.9)
        speeds = [m.speed_at(float(t)) for t in np.linspace(5, 300, 300)]
        assert 2.0 < sum(speeds) / len(speeds) < 12.0

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            GaussMarkovMobility(Vec2(-1, 0), FIELD, rng, mean_speed=1.0)
        with pytest.raises(ValueError):
            GaussMarkovMobility(Vec2(1, 1), FIELD, rng, mean_speed=1.0,
                                alpha=1.0)
        with pytest.raises(ValueError):
            GaussMarkovMobility(Vec2(1, 1), FIELD, rng, mean_speed=-1.0)
        with pytest.raises(ValueError):
            GaussMarkovMobility(Vec2(1, 1), FIELD, rng, mean_speed=1.0,
                                step_s=0.0)

    def test_zero_mean_speed(self):
        m = make_gm(seed=8, mean_speed=0.0)
        # Pure noise around zero: stays near the start for a while.
        assert m.position_at(5.0).distance_to(Vec2(50, 50)) < 30.0

    def test_works_as_network_mobility(self):
        from repro.net import Network, SensorNode
        from repro.sim import Simulator
        sim = Simulator(seed=9)
        net = Network(sim)
        for i in range(60):
            rng = sim.rng.stream(f"gm{i}")
            start = Vec2(float(rng.uniform(0, 100)),
                         float(rng.uniform(0, 100)))
            net.add_node(SensorNode(i, GaussMarkovMobility(
                start, FIELD, rng, mean_speed=8.0)))
        net.warm_up()
        degrees = [len(n.neighbors()) for n in net.nodes.values()]
        assert sum(degrees) > 0


class TestShadowing:
    def test_link_range_deterministic_and_symmetric(self):
        from repro.net import Network, RadioModel, SensorNode
        from repro.mobility import StaticMobility
        from repro.sim import Simulator
        sim = Simulator(seed=4)
        net = Network(sim, radio=RadioModel(shadowing_sigma=0.2))
        for i in range(5):
            net.add_node(SensorNode(i, StaticMobility(Vec2(i * 5.0, 0))))
        r_ab = net.link_range(1, 2)
        assert net.link_range(1, 2) == r_ab          # cached
        assert net.link_range(2, 1) == r_ab          # symmetric
        assert net.link_range(1, 3) != r_ab or True  # usually differs

    def test_zero_sigma_is_unit_disc(self):
        from repro.net import Network, RadioModel
        from repro.sim import Simulator
        net = Network(Simulator(seed=4), radio=RadioModel())
        assert net.link_range(1, 2) == net.radio.range_m
        assert net.radio.max_range_m == net.radio.range_m

    def test_shadowing_changes_connectivity(self):
        from tests.conftest import build_static_network
        from repro.net import RadioModel
        plain_sim, plain = build_static_network(seed=3)
        shadow_sim, shadow = build_static_network(
            seed=3, radio=RadioModel(shadowing_sigma=0.3))
        plain_deg = {n.id: len(n.neighbors())
                     for n in plain.nodes.values()}
        shadow_deg = {n.id: len(n.neighbors())
                      for n in shadow.nodes.values()}
        assert plain_deg != shadow_deg

    def test_sigma_validation(self):
        from repro.net import RadioModel
        with pytest.raises(ValueError):
            RadioModel(shadowing_sigma=-0.1)

    def test_seed_changes_link_factors(self):
        from repro.net import Network, RadioModel
        from repro.sim import Simulator
        a = Network(Simulator(seed=1), radio=RadioModel(shadowing_sigma=0.3))
        b = Network(Simulator(seed=2), radio=RadioModel(shadowing_sigma=0.3))
        ranges_a = [a.link_range(i, i + 1) for i in range(20)]
        ranges_b = [b.link_range(i, i + 1) for i in range(20)]
        assert ranges_a != ranges_b
