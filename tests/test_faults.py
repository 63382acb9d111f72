"""The chaos fault-injection subsystem and DIKNN's self-healing."""

import numpy as np
import pytest

from repro.core import DIKNNConfig, DIKNNProtocol, KNNQuery, per_run_allocator
from repro.core.diknn import sector_of
from repro.experiments import (SimulationConfig, build_simulation,
                               resilience_sweep, run_query)
from repro.faults import (FaultInjector, FaultPlan, NodeCrash,
                          poisson_crashes)
from repro.geometry import Vec2
from repro.metrics import pre_accuracy
from repro.mobility import StaticMobility
from repro.net import Network, SensorNode
from repro.routing import GpsrRouter
from repro.sim import ConfigurationError, Simulator

from tests.conftest import build_static_network


class TestFaultPlan:
    def test_fluent_builders(self):
        plan = (FaultPlan()
                .crash(3, at=1.0, downtime_s=2.0)
                .blackout((50, 50), radius=20.0, at=2.0, duration_s=1.0)
                .degrade_links(at=0.5, duration_s=1.0, extra_loss=0.3)
                .suppress_beacons(at=0.0, duration_s=4.0, node_ids=[1, 2]))
        assert len(plan) == 4

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NodeCrash(at=-1.0, node_id=0)
        with pytest.raises(ConfigurationError):
            FaultPlan().degrade_links(at=0.0, duration_s=1.0,
                                      extra_loss=1.5)
        with pytest.raises(ConfigurationError):
            FaultPlan().blackout((0, 0), radius=-1.0, at=0.0,
                                 duration_s=1.0)

    def test_poisson_crashes_replayable(self):
        plans = [poisson_crashes(np.random.default_rng(42),
                                 range(50), rate=0.01, start=1.0,
                                 duration=100.0, downtime_s=5.0)
                 for _ in range(2)]
        assert plans[0] == plans[1]
        assert all(1.0 <= c.at < 101.0 for c in plans[0])

    def test_poisson_permanent_crashes_once_per_node(self):
        crashes = poisson_crashes(np.random.default_rng(1), range(30),
                                  rate=0.05, start=0.0, duration=200.0,
                                  downtime_s=None)
        ids = [c.node_id for c in crashes]
        assert len(ids) == len(set(ids))


class TestInjector:
    def _tiny_net(self, seed=5, n=20, spacing=10.0):
        sim = Simulator(seed=seed)
        net = Network(sim)
        for i in range(n):
            net.add_node(SensorNode(
                i, StaticMobility(Vec2((i % 5) * spacing,
                                       (i // 5) * spacing))))
        return sim, net

    def test_crash_and_recovery(self):
        sim, net = self._tiny_net()
        net.warm_up()
        plan = FaultPlan().crash(3, at=sim.now + 0.1, downtime_s=1.0)
        inj = FaultInjector(sim, net, plan).install()
        sim.run(until=sim.now + 0.5)
        assert not net.nodes[3].alive
        sim.run(until=sim.now + 1.0)
        assert net.nodes[3].alive
        # The reboot wiped volatile state; beacons refill it afterwards.
        assert inj.stats.crashes == 1 and inj.stats.recoveries == 1

    def test_recovery_clears_neighbor_table(self):
        sim, net = self._tiny_net()
        net.warm_up()
        assert net.nodes[3].neighbor_table
        inj = FaultInjector(sim, net,
                            FaultPlan().crash(3, at=sim.now,
                                              downtime_s=0.05)).install()
        # Run just past the recovery, before any new beacon lands.
        sim.run(until=sim.now + 0.051, max_events=10_000)
        node = net.nodes[3]
        assert node.alive
        assert inj.stats.recoveries == 1

    def test_regional_blackout_kills_disc_then_restores(self):
        sim, net = self._tiny_net()
        net.warm_up()
        center, radius = Vec2(0, 0), 12.0
        expect_dead = {n.id for n in net.nodes.values()
                       if n.position().distance_to(center) <= radius}
        assert len(expect_dead) > 1
        inj = FaultInjector(sim, net, FaultPlan().blackout(
            (center.x, center.y), radius, at=sim.now + 0.1,
            duration_s=1.0)).install()
        sim.run(until=sim.now + 0.5)
        assert {n.id for n in net.nodes.values()
                if not n.alive} == expect_dead
        sim.run(until=sim.now + 1.0)
        assert net.alive_count() == len(net)
        assert inj.stats.blackout_kills == len(expect_dead)

    def test_link_degradation_window(self):
        sim, net = self._tiny_net()
        inj = FaultInjector(sim, net, FaultPlan().degrade_links(
            at=1.0, duration_s=2.0, extra_loss=0.75)).install()
        assert inj.extra_loss_at(sim.now) == 0.0
        sim.run(until=2.0)
        assert inj.extra_loss_at(sim.now) == pytest.approx(0.75)
        assert net.mac.loss_rate() == pytest.approx(0.75)
        sim.run(until=4.0)
        assert inj.extra_loss_at(sim.now) == 0.0
        assert net.mac.loss_rate() == 0.0

    def test_overlapping_degradations_compose(self):
        sim, net = self._tiny_net()
        plan = (FaultPlan()
                .degrade_links(at=0.0, duration_s=5.0, extra_loss=0.5)
                .degrade_links(at=0.0, duration_s=5.0, extra_loss=0.5))
        inj = FaultInjector(sim, net, plan).install()
        sim.run(until=1.0)
        assert inj.extra_loss_at(sim.now) == pytest.approx(0.75)

    def test_total_degradation_blocks_all_traffic(self):
        sim, net = self._tiny_net()
        net.warm_up()
        FaultInjector(sim, net, FaultPlan().degrade_links(
            at=sim.now, duration_s=10.0, extra_loss=1.0)).install()
        heard = []
        net.nodes[6].on("ping", lambda n, m: heard.append(m))
        net.nodes[5].broadcast("ping", {}, size_bytes=8)
        sim.run(until=sim.now + 1.0)
        assert not heard

    def test_beacon_suppression_rots_tables(self):
        sim, net = self._tiny_net()
        net.warm_up()
        assert net.nodes[6].neighbors()
        FaultInjector(sim, net, FaultPlan().suppress_beacons(
            at=sim.now, duration_s=3.0)).install()
        before = net.stats.beacons_sent
        sim.run(until=sim.now + 2.0)
        assert net.stats.beacons_sent == before
        # Tables aged past the neighbor timeout with no refresh.
        assert not net.nodes[6].neighbors()
        sim.run(until=sim.now + 2.0)
        assert net.stats.beacons_sent > before  # window over
        assert net.nodes[6].neighbors()

    def test_neighbor_sweep_evicts_dead_entries(self):
        sim, net = self._tiny_net()
        net.warm_up()
        net.start_neighbor_sweep()
        FaultInjector(sim, net,
                      FaultPlan().crash(3, at=sim.now)).install()
        sim.run(until=sim.now + 3 * net.neighbor_timeout)
        assert net.neighbor_evictions > 0
        # The dead node left every live table without neighbors() being
        # called on them.
        assert all(3 not in n.neighbor_table
                   for n in net.nodes.values() if n.alive)


class TestDIKNNSelfHealing:
    def test_sector_chain_killed_mid_traversal(self):
        """Acceptance: one full sector's Q-node chain dies mid-traversal;
        the sink watchdog re-dispatches and the query still answers with
        >= 0.5 pre-accuracy."""
        sim, net = build_static_network(seed=13)
        q = Vec2(70, 70)
        proto = DIKNNProtocol()
        proto.install(net, GpsrRouter(net))
        net.start_neighbor_sweep()

        def kill_sector_two():
            for node in net.nodes.values():
                pos = node.position()
                if node.alive and sector_of(pos, q, 8) == 2 \
                        and 4.0 < pos.distance_to(q) <= 40.0:
                    node.alive = False

        sim.schedule_in(0.15, kill_sector_two)
        query = KNNQuery(query_id=per_run_allocator(sim).allocate(),
                         sink_id=0, point=q,
                         k=20, issued_at=sim.now)
        results = []
        proto.issue(net.nodes[0], query, results.append)
        sim.run(until=sim.now + 20)
        assert results, "watchdog failed to close the dead sector"
        assert proto.redispatches > 0
        assert pre_accuracy(net, results[0]) >= 0.5

    def test_without_watchdog_same_scenario_stalls(self):
        """Control: the same sector kill without the watchdog leaves the
        query incomplete — proving the re-dispatch is what heals it."""
        sim, net = build_static_network(seed=13)
        q = Vec2(70, 70)
        proto = DIKNNProtocol(DIKNNConfig(sector_watchdog_s=None))
        proto.install(net, GpsrRouter(net))

        def kill_sector_two():
            for node in net.nodes.values():
                pos = node.position()
                if node.alive and sector_of(pos, q, 8) == 2 \
                        and 4.0 < pos.distance_to(q) <= 40.0:
                    node.alive = False

        sim.schedule_in(0.15, kill_sector_two)
        query = KNNQuery(query_id=per_run_allocator(sim).allocate(),
                         sink_id=0, point=q,
                         k=20, issued_at=sim.now)
        results = []
        proto.issue(net.nodes[0], query, results.append)
        sim.run(until=sim.now + 20)
        assert not results

    def test_blackout_with_recovery_end_to_end(self):
        """A blackout over part of the field mid-run: queries keep being
        answered once the region recovers."""
        handle = build_simulation(
            SimulationConfig(seed=9, max_speed=0.0,
                             blackout=(2.0, 80.0, 80.0, 25.0, 2.0)),
            DIKNNProtocol())
        handle.warm_up()
        handle.sim.run(until=6.0)  # blackout has come and gone
        assert handle.network.alive_count() == len(handle.network)
        outcome = run_query(handle, Vec2(80, 80), k=15, timeout=12.0)
        assert outcome.pre_accuracy >= 0.5

    def test_duplicate_bundle_suppression(self):
        """A replayed sector bundle must not double-count sectors or
        meta counters."""
        sim, net = build_static_network(seed=3)
        proto = DIKNNProtocol()
        proto.install(net, GpsrRouter(net))
        query = KNNQuery(query_id=per_run_allocator(sim).allocate(), sink_id=0,
                         point=Vec2(60, 60), k=10, issued_at=sim.now)
        results = []
        proto.issue(net.nodes[0], query, results.append)
        # Steal the first bundle delivery and replay it.
        bundles = []
        original = proto._on_result

        def tap(node, inner):
            bundles.append((node, dict(inner)))
            original(node, inner)

        proto.router.on_deliver(proto.KIND_RESULT, tap)
        while not bundles and sim.step():
            pass
        assert bundles
        node, inner = bundles[0]
        result = proto._result_of(query.query_id)
        reported = result.sectors_reported
        explored = result.meta["explored"]
        original(node, dict(inner))  # replay the same bundle
        assert result.sectors_reported == reported
        assert result.meta["explored"] == explored


class TestResilienceSweep:
    def test_sweep_runs_diknn_and_baseline(self):
        cfg = SimulationConfig(seed=2, n_nodes=60,
                               field_size=(70.0, 70.0), max_speed=4.0)
        result = resilience_sweep(
            base=cfg, crash_rates=(0.0, 0.02), k=5,
            factories={"diknn": lambda c: DIKNNProtocol()},
            repeats=1, duration=8.0)
        points = result.series["diknn"]
        assert [p.x for p in points] == [0.0, 0.02]
        assert all(0.0 <= p.pre_accuracy <= 1.0 for p in points)
        assert result.x_name == "crash_rate"
        # The table renders without error.
        assert "crash_rate" in result.table("pre_accuracy")


class TestBatchedBeaconFaultInterplay:
    """Fault events interleaved with the batched beacon epoch must leave
    the same neighbor tables / energy / counters as the per-event
    reference model."""

    def _build(self, kernel, seed=9, n=30):
        from tests.test_beacon_equivalence import build_network
        return build_network(kernel, seed, n_nodes=n, mobile=True)

    def _state(self, net):
        from tests.test_beacon_equivalence import beacon_state
        return beacon_state(net)

    def _assert_equal(self, runner):
        from tests.test_beacon_equivalence import assert_states_equal
        reference, batched = runner("reference"), runner("batched")
        for i, (r, b) in enumerate(zip(reference, batched)):
            assert_states_equal(r, b, context=f"checkpoint {i}")

    def test_mute_unmute_mid_epoch(self):
        """Beacon suppression windows that start and end inside an epoch
        suppress exactly the fires the reference model skips."""
        def run(kernel):
            sim, net, driver = self._build(kernel)
            plan = (FaultPlan()
                    .suppress_beacons(at=0.73, duration_s=0.9,
                                      node_ids=[2, 5, 11])
                    .suppress_beacons(at=2.18, duration_s=0.4))
            driver.start_beacons()
            FaultInjector(sim, net, plan).install()
            out = []
            for t in (0.5, 1.0, 1.5, 2.5, 3.5):
                sim.run(until=t)
                out.append(self._state(net))
            return out

        self._assert_equal(run)

    def test_crash_between_fire_and_delivery(self):
        """A receiver killed after a beacon's fire but before its
        delivery is charged rx energy (fire time) yet never updates its
        table (delivery-time liveness) — in both kernels."""
        # Peek the batched engine's schedule for a fire to straddle.
        sim, net, _ = self._build("batched")
        net.start_beacons()
        sim.run(until=1.0)
        engine = net._beacon_engine
        import numpy as np
        t_fire = float(np.min(engine.next_fire))
        delay = engine.delay
        kill_at = t_fire + delay / 2.0
        victim = int(engine.ids[int(np.argmin(engine.next_fire))])

        def run(kernel):
            sim, net, driver = self._build(kernel)
            plan = FaultPlan().crash(victim, at=kill_at, downtime_s=1.0)
            driver.start_beacons()
            FaultInjector(sim, net, plan).install()
            out = []
            for t in (1.0, t_fire + delay * 2, 2.5, 4.0):
                sim.run(until=t)
                out.append(self._state(net))
            return out

        self._assert_equal(run)

    def test_regional_blackout_overlapping_epoch(self):
        """A blackout disc killing nodes mid-epoch (with recovery) leaves
        identical tables: dead nodes neither beacon nor hear, recovered
        nodes restart from empty tables."""
        def run(kernel):
            sim, net, driver = self._build(kernel, seed=4, n=40)
            plan = FaultPlan().blackout((35.0, 35.0), radius=25.0,
                                        at=1.13, duration_s=1.0)
            driver.start_beacons()
            driver.start_neighbor_sweep()
            FaultInjector(sim, net, plan).install()
            out = []
            for t in (1.0, 1.5, 2.0, 3.0, 4.5):
                sim.run(until=t)
                out.append(self._state(net))
            return out

        self._assert_equal(run)

    def test_link_degradation_mid_epoch(self):
        """Time-windowed extra loss is evaluated at each fire's logical
        time (``loss_overlay_at``), not the flush time."""
        self._assert_equal(self._run_link_degradation)

    def test_link_degradation_mid_epoch_sparse(self, monkeypatch):
        """The same on the sparse store: the draws follow (fire,
        receiver) order, not the store-key order of its records."""
        import repro.net.beacons as beacons
        monkeypatch.setattr(beacons, "_DENSE_MAX", 0)
        self._assert_equal(self._run_link_degradation)

    def _run_link_degradation(self, kernel):
        sim, net, driver = self._build(kernel, seed=6)
        plan = FaultPlan().degrade_links(at=0.87, duration_s=0.31,
                                         extra_loss=0.6)
        driver.start_beacons()
        FaultInjector(sim, net, plan).install()
        out = []
        for t in (0.5, 1.0, 1.5, 3.0):
            sim.run(until=t)
            out.append(self._state(net))
        return out
