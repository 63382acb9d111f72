"""A run must not depend on what else ran earlier in the same process.

Every id a run hands out (query ids, route ids) comes from a counter
owned by that run's simulator or router, so the same run repeated in
one process, in either order with other runs, gives the same query ids,
the same outcomes and the same event stream.
"""

from repro.core import DIKNNProtocol, WindowQuery, WindowQueryProtocol
from repro.experiments import SimulationConfig, build_simulation, run_workload
from repro.geometry import Rect
from repro.obs.events import TraceLog
from repro.validate.golden import trace_digest


def _window_run():
    proto = WindowQueryProtocol()
    handle = build_simulation(SimulationConfig(seed=11, max_speed=0.0),
                              proto)
    trace = TraceLog(handle.network)
    handle.warm_up()
    query = WindowQuery.make(handle.sim, handle.sink.id,
                             Rect(40, 40, 85, 85))
    results = []
    proto.issue(handle.sink, query, results.append)
    handle.sim.run(until=handle.sim.now + 40.0)
    return (query.query_id, [r.node_ids() for r in results],
            trace_digest(trace.entries))


class _TracedDIKNN(DIKNNProtocol):
    """DIKNN that starts a trace log on the network it is installed on."""

    def install(self, network, router) -> None:
        self.trace = TraceLog(network)
        super().install(network, router)


def _knn_run():
    protocols = []

    def factory(_config):
        protocols.append(_TracedDIKNN())
        return protocols[-1]

    metrics = run_workload(SimulationConfig(seed=5), factory, k=10,
                           duration=8.0, query_timeout=5.0)
    outcomes = [(o.query_id, o.completed, o.latency, o.pre_accuracy,
                 o.post_accuracy, o.energy_j) for o in metrics.outcomes]
    return outcomes, trace_digest(protocols[0].trace.entries)


def test_runs_do_not_depend_on_process_history():
    window, knn = _window_run(), _knn_run()
    assert window[0] == 1
    assert [o[0] for o in knn[0]] == list(range(1, len(knn[0]) + 1))
    knn_again = _knn_run()
    window_again = _window_run()
    assert window_again == window
    assert knn_again == knn
