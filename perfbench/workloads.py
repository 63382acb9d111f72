"""The benchmark's workloads: seeded inputs for each part of a run.

A run is split into parts. Each part is one simulation with its own seeds,
derived from the run seed, and runs in its own fresh interpreter (see
``child.py``). The simulated metrics pool the queries of all parts, so a
run holds enough queries for steady figures while each interpreter stays
short.

Only generated inputs reach the program: a ``SimulationConfig`` and a list
of queries (due time, point, k). ``child.py`` hands them over through the
public calls ``build_simulation``, ``SimulationHandle.warm_up`` (which
runs ``Network.warm_up``), ``DIKNNProtocol.issue`` and ``.abandon``, and
``QueryService.submit``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

#: simulated seconds after its due time at which an open-loop query that
#: has not completed is abandoned and scored on its partial answer
QUERY_TIMEOUT_S = 10.0

#: the seed a later change confirms its claim on; never used for tuning
HELD_OUT_SEED = 20261017

#: the ``--seconds`` at which a run has ``Workload.parts`` parts
REFERENCE_SECONDS = 50


@dataclass(frozen=True)
class Query:
    """One generated query: due time (simulated seconds after the
    measured phase starts; unused in a closed loop), point and k."""

    due: float
    x: float
    y: float
    k: int


@dataclass
class Inputs:
    """Everything one part hands to the program."""

    config: object                   # repro SimulationConfig
    queries: List[Query]
    #: length of the open-loop arrival window in simulated seconds
    window_s: float = 0.0
    #: attach the sampled telemetry tier at 1-in-N (0: no telemetry)
    sample_every_n: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    #: "open": queries issued to DIKNN at their due times; "service": one
    #: client in a closed loop over a QueryService
    mode: str
    #: builds a part's inputs from (simulator seed, generator seed)
    make: Callable[[int, int], Inputs]
    #: parts of a run at ``--seconds 50`` (``REFERENCE_SECONDS``); a run
    #: of ``--seconds S`` has ``max(3, round(parts * S / 50))`` parts
    parts: int
    #: set-ups timed per part of an untraced run (``child.run_part``)
    setups: int


def part_seeds(seed: int, part: int, workload: str) -> Tuple[int, int]:
    """(simulator seed, input-generator seed) of one part of a run."""
    tag = sum(ord(c) * 31 ** i for i, c in enumerate(workload)) % 2**31
    state = np.random.SeedSequence([tag, seed, part]).generate_state(2)
    return int(state[0]), int(state[1])


def _arrivals(rng: np.random.Generator, n: int,
              mean_interval: float) -> Tuple[List[float], float]:
    """Poisson arrival times conditioned on their count: ``n`` sorted
    uniform times over a window of ``n * mean_interval`` seconds. The
    gaps are exponential as in the paper, while count and window are
    fixed, so throughput figures do not drift with the draw."""
    window = n * mean_interval
    times = np.sort(rng.uniform(0.0, window, size=n))
    return [float(t) for t in times], window


def _uniform_points(rng: np.random.Generator, n: int, side: float,
                    margin: float) -> List[Tuple[float, float]]:
    """``n`` uniform points inside the field, inset by ``margin`` (a
    share of the side) as the paper's workload does, stratified: each
    falls in its own cell of a grid over the inset square, so a part's
    queries cover the field evenly and do not bunch by chance."""
    lo, width = margin * side, (1.0 - 2.0 * margin) * side
    cells = math.ceil(math.sqrt(n))
    picks = rng.choice(cells * cells, size=n, replace=False)
    offsets = rng.uniform(0.0, 1.0, size=(n, 2))
    size = width / cells
    return [(float(lo + (c % cells + ox) * size),
             float(lo + (c // cells + oy) * size))
            for c, (ox, oy) in zip(picks.tolist(), offsets.tolist())]


CHURN_QUERIES_PER_PART = 40
CHURN_INTERVAL_S = 2.0

#: per-node Poisson crash rate (1/s) and downtime (s) of the churn field
CHURN_CRASH_RATE = 0.05
CHURN_DOWNTIME_S = 5.0

#: the churn field's regional blackout: radius (m) and duration (s); it
#: is centred on the field halfway through the arrival window
BLACKOUT_RADIUS_M = 25.0
BLACKOUT_S = 15.0


def _churn(seed: int, gen_seed: int) -> Inputs:
    """The paper's 5.1 field under churn: 200 uniform nodes on 115 x 115
    m, random waypoint at up to 10 m/s. Every node but the sink crashes
    at Poisson times and recovers 5 s later, and one regional blackout
    takes out the middle of the field for a while. The sink sends k = 20
    queries at exponential gaps toward uniform points. The fault plan
    draws from the simulator seed (the program's own "faults" stream)."""
    from repro import SimulationConfig
    rng = np.random.default_rng(gen_seed)
    n = CHURN_QUERIES_PER_PART
    times, window = _arrivals(rng, n, CHURN_INTERVAL_S)
    points = _uniform_points(rng, n, 115.0, 0.15)
    warmup = SimulationConfig.warmup_s
    config = SimulationConfig(
        seed=seed, max_speed=10.0, crash_rate=CHURN_CRASH_RATE,
        node_downtime_s=CHURN_DOWNTIME_S,
        blackout=(warmup + window / 2.0, 57.5, 57.5, BLACKOUT_RADIUS_M,
                  BLACKOUT_S),
        fault_horizon_s=window + QUERY_TIMEOUT_S + 1.0)
    return Inputs(config, [Query(t, x, y, 20)
                           for t, (x, y) in zip(times, points)], window)


FIELD_NODES = 10_000
FIELD_QUERIES_PER_PART = 8


def _field_10k(seed: int, gen_seed: int) -> Inputs:
    """10,000 nodes at the paper's density on a jittered grid; one client
    submits k = 20 queries through the service, with the 1-in-10 sampled
    telemetry tier attached."""
    from repro import SimulationConfig
    rng = np.random.default_rng(gen_seed)
    side = round(115.0 * math.sqrt(FIELD_NODES / 200.0), 1)
    # The sink sits near the corner (5%, 5%); every query targets a point
    # a quarter of the side away from it, at a seeded bearing, so route
    # length, and with it latency, does not swing with the draw.
    sink = 0.05 * side
    radius = 0.25 * side
    bearings = rng.uniform(math.radians(15), math.radians(75),
                           size=FIELD_QUERIES_PER_PART)
    queries = [Query(0.0, sink + radius * math.cos(b),
                     sink + radius * math.sin(b), 20) for b in bearings]
    config = SimulationConfig(n_nodes=FIELD_NODES, field_size=(side, side),
                              deployment="jittered-grid", seed=seed,
                              max_speed=10.0)
    return Inputs(config, queries, sample_every_n=10)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("churn", "open", _churn, parts=7, setups=3),
        Workload("field-10k", "service", _field_10k, parts=3, setups=1),
    )
}


def inputs_for(workload: str, seed: int, part: int) -> Inputs:
    """The generated inputs of one part of one run."""
    sim_seed, gen_seed = part_seeds(seed, part, workload)
    return WORKLOADS[workload].make(sim_seed, gen_seed)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]
