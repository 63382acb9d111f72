"""Substrate performance microbenchmarks (real timing, pytest-benchmark).

These measure the simulator itself, not the paper's metrics: event
throughput, spatial queries, planarization, itinerary construction and
KNNB — the pieces every simulated second is built from.  Useful for
catching performance regressions in the substrate.

Every benchmark carries a stable ``bench_id`` in ``extra_info`` so the
macro-benchmark harness can ingest pytest-benchmark output into the same
``BENCH_*.json`` artifact the suite runner emits::

    pytest benchmarks/test_perf_kernel.py --benchmark-json=micro.json
    python -m repro bench run --suite small --microbench micro.json

Renaming a test must not change its ``bench_id`` — the id is the join
key ``repro bench compare`` tracks across runs.
"""

import numpy as np

from repro.core import build_itineraries, full_coverage_width, knnb_radius
from repro.core.knnb import InfoList
from repro.deploy import UniformDeployment
from repro.geometry import Rect, SpatialGrid, Vec2, planarize
from repro.sim import Simulator

FIELD = Rect.from_size(115.0, 115.0)


def test_perf_event_throughput(benchmark):
    """Schedule and drain 20k events."""
    benchmark.extra_info["bench_id"] = "kernel.event_throughput"

    def run():
        sim = Simulator()
        counter = [0]
        for i in range(20_000):
            sim.schedule_at(float(i) * 1e-3,
                            lambda: counter.__setitem__(0, counter[0] + 1))
        sim.run()
        return counter[0]

    assert benchmark(run) == 20_000


def test_perf_spatial_grid_queries(benchmark):
    """1k range queries over a 200-point grid."""
    benchmark.extra_info["bench_id"] = "geometry.spatial_grid_queries"
    rng = np.random.default_rng(3)
    points = UniformDeployment().generate(200, FIELD, rng)
    grid = SpatialGrid(20.0)
    grid.bulk_load(list(enumerate(points)))
    centers = UniformDeployment().generate(1000, FIELD, rng)

    def run():
        total = 0
        for c in centers:
            total += sum(1 for _ in grid.within(c, 20.0))
        return total

    assert benchmark(run) > 0


def test_perf_planarization(benchmark):
    """Gabriel-planarize a 200-node unit-disk graph."""
    benchmark.extra_info["bench_id"] = "geometry.planarization"
    rng = np.random.default_rng(5)
    positions = dict(enumerate(
        UniformDeployment().generate(200, FIELD, rng)))

    def run():
        return planarize(positions, radius=20.0)

    adjacency = benchmark(run)
    assert len(adjacency) == 200


def test_perf_itinerary_construction(benchmark):
    """Build all 8 sub-itineraries for a large boundary."""
    benchmark.extra_info["bench_id"] = "core.itinerary_construction"
    w = full_coverage_width(20.0)

    def run():
        return build_itineraries(Vec2(60, 60), 55.0, 8, w, spacing=16.0)

    its = benchmark(run)
    assert len(its) == 8


def test_perf_knnb(benchmark):
    """Algorithm 1 over a 30-hop information list."""
    benchmark.extra_info["bench_id"] = "core.knnb_radius"
    info = InfoList()
    for i in range(30):
        info.append(Vec2(400.0 - i * 13.0, 50.0), 4)

    def run():
        return knnb_radius(info, Vec2(400.0, 50.0), 20.0, 40)

    assert benchmark(run) > 0


def _warm_beacon_network():
    from repro.mobility import RandomWaypointMobility
    from repro.net import Network, SensorNode

    sim = Simulator(seed=9)
    net = Network(sim)
    rng = np.random.default_rng(9)
    for i, pos in enumerate(UniformDeployment().generate(200, FIELD, rng)):
        net.add_node(SensorNode(i, RandomWaypointMobility(
            pos, FIELD, sim.rng.stream(f"m{i}"), max_speed=10.0)))
    net.warm_up()
    return sim, net


def test_perf_batched_beacon_epoch(benchmark):
    """One beacon interval of a warm 200-node network on the batched
    kernel: a single epoch flush replaces 200 per-node fire events."""
    benchmark.extra_info["bench_id"] = "net.batched_beacon_epoch"
    sim, net = _warm_beacon_network()

    def run():
        sim.run(until=sim.now + net.beacon_interval)
        return sim.events_executed

    assert benchmark(run) > 0


def test_perf_vectorized_oracle(benchmark):
    """Exact-KNN ground truth over 200 nodes via the mobility bank."""
    benchmark.extra_info["bench_id"] = "metrics.oracle_true_knn"
    from repro.metrics import true_knn

    sim, net = _warm_beacon_network()
    centers = UniformDeployment().generate(
        64, FIELD, np.random.default_rng(11))

    def run():
        total = 0
        for c in centers:
            total += len(true_knn(net, c, 20))
        return total

    assert benchmark(run) == 64 * 20


def test_perf_full_simulated_second(benchmark):
    """One simulated second of a warm 200-node beaconing network."""
    benchmark.extra_info["bench_id"] = "net.full_simulated_second"
    from repro.mobility import RandomWaypointMobility
    from repro.net import Network, SensorNode

    def build():
        sim = Simulator(seed=9)
        net = Network(sim)
        rng = np.random.default_rng(9)
        for i, pos in enumerate(
                UniformDeployment().generate(200, FIELD, rng)):
            net.add_node(SensorNode(i, RandomWaypointMobility(
                pos, FIELD, sim.rng.stream(f"m{i}"), max_speed=10.0)))
        net.warm_up()
        return sim

    sim = build()

    def run():
        sim.run(until=sim.now + 1.0)
        return sim.events_executed

    assert benchmark(run) > 0
