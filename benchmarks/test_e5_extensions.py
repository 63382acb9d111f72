"""E15+ — extension benchmarks beyond the paper's figures.

* E15: data-collection scheme ablation (paper footnote 1).
* E16: itinerary window queries (the [31] substrate) — recall and cost.
* E17: DIKNN under Gauss-Markov mobility (model robustness).
* E18: network lifetime under batteries (which protocol drains nodes).
"""

import pytest

from repro.core import (DIKNNConfig, DIKNNProtocol, WindowQuery,
                        WindowQueryProtocol, window_recall)
from repro.baselines import PeerTreeProtocol
from repro.deploy import UniformDeployment
from repro.experiments import SimulationConfig, build_simulation, run_query
from repro.geometry import Rect, Vec2
from repro.mobility import GaussMarkovMobility
from repro.net import Network, SensorNode
from repro.routing import GpsrRouter
from repro.sim import Simulator


def test_e15_collection_scheme_ablation(benchmark):
    """Footnote 1: the hybrid scheme beats its two components."""
    stats = {}
    for scheme in ("contention", "token_ring", "hybrid"):
        lats, accs, energies = [], [], []
        for seed in (3, 5):
            handle = build_simulation(
                SimulationConfig(seed=seed, max_speed=10.0),
                DIKNNProtocol(DIKNNConfig(collection_scheme=scheme)))
            handle.warm_up()
            outcome = run_query(handle, Vec2(60, 60), k=40, timeout=20.0)
            if outcome.latency is not None:
                lats.append(outcome.latency)
            accs.append(outcome.pre_accuracy)
            energies.append(outcome.energy_j)
        stats[scheme] = (sum(lats) / max(len(lats), 1),
                         sum(accs) / len(accs),
                         sum(energies) / len(energies))
    print("\nE15: collection schemes (k=40, 10 m/s)")
    print(f"{'scheme':>11} {'latency':>8} {'accuracy':>9} {'energy':>8}")
    for scheme, (lat, acc, en) in stats.items():
        print(f"{scheme:>11} {lat:>8.2f} {acc:>9.2f} {en * 1e3:>7.1f}m")
    # Hybrid: no slower than contention, no less accurate than token ring.
    assert stats["hybrid"][0] <= stats["contention"][0] * 1.15
    assert stats["hybrid"][1] >= stats["token_ring"][1] - 0.1
    assert stats["hybrid"][1] >= 0.75
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_e16_window_query_recall(benchmark):
    """Window queries over the same substrate: near-perfect recall on a
    static field, graceful degradation under mobility."""
    recalls = {}
    for speed in (0.0, 10.0):
        proto = WindowQueryProtocol()
        handle = build_simulation(
            SimulationConfig(seed=3, max_speed=speed), proto)
        handle.warm_up()
        window = Rect(40, 40, 80, 80)
        query = WindowQuery.make(handle.sim, handle.sink.id, window)
        results = []
        proto.issue(handle.sink, query, results.append)
        handle.sim.run(until=handle.sim.now + 30.0)
        recalls[speed] = (window_recall(handle.network, results[0])
                          if results else 0.0)
    print(f"\nE16: window recall static={recalls[0.0]:.2f} "
          f"mobile(10m/s)={recalls[10.0]:.2f}")
    assert recalls[0.0] >= 0.9
    assert recalls[10.0] >= 0.45
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_e17_gauss_markov_robustness(benchmark):
    """DIKNN is mobility-model agnostic: accuracy under Gauss-Markov
    stays comparable to random waypoint at similar mean speeds."""
    field = Rect.from_size(115.0, 115.0)
    sim = Simulator(seed=11)
    net = Network(sim)
    dep = UniformDeployment().generate(200, field, sim.rng.stream("d"))
    from repro.mobility import StaticMobility
    for i, pos in enumerate(dep):
        net.add_node(SensorNode(i, GaussMarkovMobility(
            pos, field, sim.rng.stream(f"gm{i}"), mean_speed=7.0)))
    sink = SensorNode(200, StaticMobility(Vec2(8, 8)))
    net.add_node(sink)
    net.warm_up()
    proto = DIKNNProtocol()
    proto.install(net, GpsrRouter(net))
    from repro.core import KNNQuery, per_run_allocator
    from repro.metrics import pre_accuracy
    accs = []
    for i in range(3):
        results = []
        query = KNNQuery(query_id=per_run_allocator(sim).allocate(),
                         sink_id=sink.id,
                         point=Vec2(45 + 12 * i, 60), k=30,
                         issued_at=sim.now)
        proto.issue(sink, query, results.append)
        sim.run(until=sim.now + 12)
        accs.append(pre_accuracy(net, results[0]) if results else 0.0)
    mean_acc = sum(accs) / len(accs)
    print(f"\nE17: DIKNN accuracy under Gauss-Markov (7 m/s): "
          f"{mean_acc:.2f}")
    assert mean_acc >= 0.6
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_e18_network_lifetime(benchmark):
    """Batteries: Peer-tree's maintenance drains the network faster than
    DIKNN's infrastructure-free operation."""
    deaths = {}
    for name, factory in (("diknn", lambda cfg: DIKNNProtocol()),
                          ("peertree",
                           lambda cfg: PeerTreeProtocol(cfg.field))):
        cfg = SimulationConfig(seed=13, max_speed=10.0)
        proto = factory(cfg)
        handle = build_simulation(cfg, proto)
        handle.warm_up()
        handle.network.enable_batteries(capacity_j=0.012)
        # Same query workload for both.
        for i in range(4):
            run_query(handle, Vec2(40 + 10 * i, 60), k=30, timeout=8.0)
        handle.sim.run(until=handle.sim.now + 25)
        stop = getattr(proto, "stop", None)
        if callable(stop):
            stop()
        deaths[name] = 201 - handle.network.alive_count()
    print(f"\nE18: nodes dead after identical workload (12 mJ budget): "
          f"diknn={deaths['diknn']} peertree={deaths['peertree']}")
    assert deaths["peertree"] >= deaths["diknn"]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_e19_aggregate_vs_enumerate(benchmark):
    """In-network aggregation: same region, same itinerary machinery,
    a fraction of the traffic."""
    from repro.core import (AggregateQuery, AggregateQueryProtocol,
                            WindowQuery, WindowQueryProtocol,
                            true_aggregate)

    region = Rect(40.0, 40.0, 85.0, 85.0)

    def run(protocol_cls, make_query):
        proto = protocol_cls()
        handle = build_simulation(
            SimulationConfig(seed=11, max_speed=0.0), proto)
        handle.warm_up()
        before = handle.network.ledger.snapshot()
        query = make_query(handle)
        results = []
        proto.issue(handle.sink, query, results.append)
        handle.sim.run(until=handle.sim.now + 40.0)
        return (handle, results[0] if results else None,
                handle.network.ledger.since(before))

    _h, window_result, window_energy = run(
        WindowQueryProtocol,
        lambda h: WindowQuery.make(h.sim, h.sink.id, region))
    handle, agg_result, agg_energy = run(
        AggregateQueryProtocol,
        lambda h: AggregateQuery.make(h.sim, h.sink.id, region))
    assert window_result is not None and agg_result is not None
    truth = true_aggregate(handle.network, region)
    print(f"\nE19: aggregate count {agg_result.state.count} "
          f"(truth {truth.count}); energy {agg_energy * 1e3:.1f} mJ vs "
          f"enumerate {window_energy * 1e3:.1f} mJ "
          f"({window_energy / agg_energy:.1f}x)")
    assert agg_result.state.count >= truth.count * 0.85
    assert agg_energy < window_energy  # the aggregation saving
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_e20_shadowing_robustness(benchmark):
    """DIKNN keeps answering under irregular (log-normal shadowed)
    radio connectivity — the paper's [8] realism concern."""
    accs = []
    for seed in (3, 7):
        handle = build_simulation(
            SimulationConfig(seed=seed, shadowing_sigma=0.25),
            DIKNNProtocol())
        handle.warm_up()
        outcome = run_query(handle, Vec2(60, 60), k=30, timeout=15.0)
        accs.append(outcome.pre_accuracy)
    mean_acc = sum(accs) / len(accs)
    print(f"\nE20: DIKNN accuracy with sigma=0.25 shadowing: "
          f"{mean_acc:.2f}")
    assert mean_acc >= 0.6
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
