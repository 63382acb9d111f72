#!/usr/bin/env python
"""Regional queries: enumerate vs aggregate over the same itinerary.

Runs a window query (report every node in the region) and an aggregate
query (COUNT/AVG/MIN/MAX of readings) over the same rectangle, and
compares their answers, their traffic, and their energy — the in-network
aggregation argument in two commands.

Run:  python examples/regional_aggregates.py
"""

from repro.core import (AggregateQuery, AggregateQueryProtocol, WindowQuery,
                        WindowQueryProtocol, true_aggregate, window_recall)
from repro.experiments import SimulationConfig, build_simulation
from repro.geometry import Rect

REGION = Rect(40.0, 40.0, 85.0, 85.0)


def run(protocol_cls, query_factory):
    proto = protocol_cls()
    handle = build_simulation(SimulationConfig(seed=11, max_speed=0.0),
                              proto)
    handle.warm_up()
    energy_before = handle.network.ledger.snapshot()
    query = query_factory(handle)
    results = []
    proto.issue(handle.sink, query, results.append)
    handle.sim.run(until=handle.sim.now + 40.0)
    energy = handle.network.ledger.since(energy_before)
    return handle, (results[0] if results else None), energy


def main() -> None:
    handle, window_result, window_energy = run(
        WindowQueryProtocol,
        lambda h: WindowQuery.make(h.sim, h.sink.id, REGION))
    print("window query  (enumerate every node):")
    if window_result is not None:
        print(f"  reported {len(window_result.node_ids())} nodes, "
              f"recall {window_recall(handle.network, window_result):.2f}, "
              f"latency {window_result.latency:.2f} s, "
              f"energy {window_energy * 1e3:.1f} mJ")

    handle, agg_result, agg_energy = run(
        AggregateQueryProtocol,
        lambda h: AggregateQuery.make(h.sim, h.sink.id, REGION))
    print("aggregate query (constant-size token):")
    if agg_result is not None:
        truth = true_aggregate(handle.network, REGION)
        state = agg_result.state
        print(f"  count {state.count} (truth {truth.count}), "
              f"mean {state.mean:.1f} (truth {truth.mean:.1f}), "
              f"min {state.minimum:.1f}, max {state.maximum:.1f}")
        print(f"  latency {agg_result.latency:.2f} s, "
              f"energy {agg_energy * 1e3:.1f} mJ")

    if window_result is not None and agg_result is not None:
        print(f"\nsame region, same itinerary — the aggregate moved "
              f"{window_energy / agg_energy:.1f}x less energy than "
              f"enumerating.")


if __name__ == "__main__":
    main()
