"""The macro-benchmark runner: execute a suite, emit a ``BENCH_*.json``.

Per scenario the runner does ``repeats`` *timed* passes (build → warm-up
→ one pinned query over the full timeout window, the golden-trace
discipline) with a :class:`~repro.obs.KernelProfiler` installed — the
profiler reads only the wall clock, so the run stays bit-identical —
and then one extra *memory* pass under ``tracemalloc``.  Memory is kept
out of the timed passes deliberately: tracing allocations inflates wall
time ~3x, and mixing the two would poison every wall-time comparison.

Comparisons downstream use ``min(wall_s)`` (the least-noise estimator,
pytest-benchmark's convention) and ``events_executed`` (bit-stable for a
fixed scenario, so a change there is a behavior change, not noise).
"""

from __future__ import annotations

import json
import platform
import re
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .scenarios import BenchScenario, suite
from .schema import ARTIFACT_FORMAT, ARTIFACT_KIND, validate_artifact

#: hotspot rows kept per scenario in the artifact
HOTSPOT_TOP = 15

_ARTIFACT_RE = re.compile(r"^BENCH_(\d{4,})\.json$")


@dataclass
class ScenarioResult:
    """Everything one benchmarked scenario produced."""

    scenario: BenchScenario
    wall_s: List[float]
    phases_s: Dict[str, float]
    events_executed: int
    completed: bool
    hotspots: List[dict]
    metrics: Dict[str, dict]
    peak_mem_kib: Optional[float] = None
    validate: Optional[Dict[str, int]] = None
    #: per-node energy-balance digest (metrics.energy_dispersion)
    energy: Optional[Dict[str, object]] = None

    @property
    def wall_min_s(self) -> float:
        return min(self.wall_s)

    @property
    def events_per_sec(self) -> float:
        run_wall = self.phases_s["warmup"] + self.phases_s["query"]
        return self.events_executed / run_wall if run_wall > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "title": self.scenario.title,
            "spec": self.scenario.describe(),
            "config": self.scenario.to_dict(),
            "repeats": len(self.wall_s),
            "wall_s": self.wall_s,
            "wall_min_s": self.wall_min_s,
            "wall_mean_s": sum(self.wall_s) / len(self.wall_s),
            "phases_s": self.phases_s,
            "events_executed": self.events_executed,
            "events_per_sec": self.events_per_sec,
            "peak_mem_kib": self.peak_mem_kib,
            "completed": self.completed,
            "hotspots": self.hotspots,
            "metrics": self.metrics,
            "validate": self.validate,
            "energy": self.energy,
        }


@dataclass
class _Pass:
    """One executed pass of a scenario."""

    wall_s: float
    phases_s: Dict[str, float]
    events_executed: int
    completed: bool
    hotspots: List[dict] = field(default_factory=list)
    metrics: Dict[str, dict] = field(default_factory=dict)
    validate: Optional[Dict[str, int]] = None
    peak_mem_kib: Optional[float] = None
    energy: Optional[Dict[str, object]] = None


def _run_pass(scn: BenchScenario, trace_memory: bool = False) -> _Pass:
    """Execute one full scenario pass and collect its numbers."""
    # Heavy imports stay local so `repro.bench` imports fast (CLI help).
    from ..core import DIKNNProtocol
    from ..core.query import KNNQuery
    from ..experiments.config import SimulationConfig, build_simulation
    from ..geometry import Vec2
    from ..obs import KernelProfiler, Telemetry

    if trace_memory:
        tracemalloc.start()
    try:
        t0 = time.perf_counter()
        config = SimulationConfig(
            n_nodes=scn.n_nodes, field_size=scn.field_size,
            deployment=scn.deployment,
            max_speed=scn.max_speed, seed=scn.seed,
            crash_rate=scn.crash_rate,
            node_downtime_s=scn.node_downtime_s,
            blackout=scn.blackout)
        handle = build_simulation(config, DIKNNProtocol())
        telemetry = None
        profiler = None
        harness = None
        if scn.obs and handle.obs is None:
            # obs_sample > 0 selects the scale-aware tier: tail sampler
            # on, raw trace + kernel profiler off (their cost is what
            # the sampled tier exists to avoid).
            sampled = scn.obs_sample > 0
            telemetry = Telemetry(trace_events=not sampled,
                                  profile_kernel=not sampled,
                                  sample_every_n=scn.obs_sample)
            telemetry.attach_handle(handle)
            profiler = telemetry.profiler
        elif handle.obs is not None:      # process-wide --obs already on
            telemetry = handle.obs
            profiler = telemetry.profiler
        else:
            profiler = KernelProfiler().install(handle.sim)
        if scn.validate and handle.validator is None:
            from ..validate.harness import ValidationHarness
            harness = ValidationHarness()
            harness.attach_handle(handle)
        elif handle.validator is not None:
            harness = handle.validator
        t1 = time.perf_counter()
        handle.warm_up()
        t2 = time.perf_counter()
        service = None
        if scn.mode == "service":
            from ..service import run_service_soak
            report, service = run_service_soak(
                config, k=scn.k, rate_qps=scn.rate_qps,
                duration=scn.soak_duration, handle=handle)
            scenario_ok = report.all_accounted
        else:
            query = KNNQuery(query_id=1, sink_id=handle.sink.id,
                             point=Vec2(*scn.point), k=scn.k,
                             issued_at=handle.sim.now)
            done: List[object] = []
            handle.protocol.issue(handle.sink, query, done.append)
            handle.sim.run(until=handle.sim.now + scn.timeout)
            stop = getattr(handle.protocol, "stop", None)
            if callable(stop):
                stop()
            if not done:
                handle.protocol.abandon(query.query_id)
            scenario_ok = bool(done)
        # The beacon kernel credits its collapsed events when it
        # flushes; flush so the count covers the last partial interval.
        handle.network.flush_beacons()
        t3 = time.perf_counter()
        peak_kib = None
        if trace_memory:
            peak_kib = tracemalloc.get_traced_memory()[1] / 1024.0
        result = _Pass(
            wall_s=t3 - t0,
            phases_s={"build": t1 - t0, "warmup": t2 - t1,
                      "query": t3 - t2},
            events_executed=handle.sim.events_executed,
            completed=scenario_ok,
            peak_mem_kib=peak_kib)
        from ..metrics.outcome import energy_dispersion
        result.energy = energy_dispersion(
            {nid: acct.total_j
             for nid, acct in handle.network.ledger.accounts().items()})
        if harness is not None:
            harness.finalize()
            result.validate = {"checkpoints": harness.checkpoints_run,
                               "outcomes": harness.outcomes_checked}
            harness.detach()
        if telemetry is not None:
            telemetry.finalize()
            result.metrics = telemetry.metrics.to_dict()
        if service is not None:
            result.metrics.update(service.metrics.to_dict())
        if profiler is not None:
            result.hotspots = [
                {"handler": label, "calls": calls, "total_s": total_s,
                 "mean_us": mean_us, "share": share}
                for label, calls, total_s, mean_us, share
                in profiler.to_rows(HOTSPOT_TOP)]
        if telemetry is not None and telemetry.attached \
                and telemetry is not handle.obs:
            telemetry.detach()
        return result
    finally:
        if trace_memory:
            tracemalloc.stop()


def run_scenario(scn: BenchScenario, memory: bool = True,
                 repeats: Optional[int] = None) -> ScenarioResult:
    """Benchmark one scenario: timed repeats plus an optional memory
    pass.  The hotspot table, metrics and validator counters come from
    the best (fastest) timed pass."""
    n = repeats if repeats is not None else scn.repeats
    if n < 1:
        raise ValueError("repeats must be >= 1")
    passes = [_run_pass(scn) for _ in range(n)]
    events = {p.events_executed for p in passes}
    if len(events) > 1:  # pragma: no cover - determinism violation
        raise RuntimeError(
            f"scenario {scn.name!r} is not deterministic across repeats: "
            f"events_executed {sorted(events)}")
    best = min(passes, key=lambda p: p.wall_s)
    peak = None
    if memory:
        peak = _run_pass(scn, trace_memory=True).peak_mem_kib
    return ScenarioResult(
        scenario=scn, wall_s=[p.wall_s for p in passes],
        phases_s=best.phases_s, events_executed=best.events_executed,
        completed=best.completed, hotspots=best.hotspots,
        metrics=best.metrics, peak_mem_kib=peak, validate=best.validate,
        energy=best.energy)


def environment() -> Dict[str, object]:
    import numpy
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "argv": list(sys.argv),
    }


def run_suite(name: str = "small", memory: bool = True,
              repeats: Optional[int] = None,
              progress=None) -> Dict[str, object]:
    """Run every scenario of a suite; returns the artifact document."""
    scenarios: Dict[str, dict] = {}
    for scn in suite(name):
        if progress is not None:
            progress(scn)
        scenarios[scn.name] = run_scenario(
            scn, memory=memory, repeats=repeats).to_dict()
    artifact = {
        "format": ARTIFACT_FORMAT,
        "kind": ARTIFACT_KIND,
        "suite": name,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                     time.gmtime()),
        "env": environment(),
        "scenarios": scenarios,
        "microbench": {},
    }
    problems = validate_artifact(artifact)
    if problems:  # pragma: no cover - runner/schema drift guard
        raise RuntimeError("runner produced a schema-invalid artifact: "
                           + "; ".join(problems))
    return artifact


# ---------------------------------------------------------------------------
# pytest-benchmark ingestion (the microbench satellite)
# ---------------------------------------------------------------------------

def ingest_pytest_benchmark(path) -> Dict[str, dict]:
    """Read a ``pytest --benchmark-json`` file into the artifact's
    ``microbench`` shape, keyed by each benchmark's stable ``bench_id``
    (from ``extra_info``; falls back to the test name)."""
    data = json.loads(Path(path).read_text())
    out: Dict[str, dict] = {}
    for bench in data.get("benchmarks", []):
        bench_id = (bench.get("extra_info") or {}).get("bench_id") \
            or bench.get("name", "?")
        stats = bench.get("stats") or {}
        out[bench_id] = {
            "name": bench.get("name", bench_id),
            "min_s": float(stats.get("min", 0.0)),
            "mean_s": float(stats.get("mean", 0.0)),
            "stddev_s": float(stats.get("stddev", 0.0)),
            "rounds": int(stats.get("rounds", 0)),
        }
    return out


# ---------------------------------------------------------------------------
# artifact files
# ---------------------------------------------------------------------------

def artifact_paths(directory) -> List[Path]:
    """Existing ``BENCH_*.json`` files in ``directory``, oldest number
    first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = [(int(m.group(1)), p) for p in directory.iterdir()
             if (m := _ARTIFACT_RE.match(p.name))]
    return [p for _, p in sorted(found)]


def next_artifact_path(directory) -> Path:
    """The next free ``BENCH_<n>.json`` path in ``directory``."""
    directory = Path(directory)
    taken = [int(_ARTIFACT_RE.match(p.name).group(1))
             for p in artifact_paths(directory)]
    return directory / f"BENCH_{(max(taken) + 1 if taken else 1):04d}.json"


def write_artifact(artifact: dict, directory=None,
                   path=None) -> Path:
    """Write an artifact to ``path`` (or the next numbered slot in
    ``directory``); returns the written path."""
    if path is None:
        if directory is None:
            raise ValueError("need a directory or an explicit path")
        path = next_artifact_path(directory)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(artifact, indent=2, sort_keys=False)
                    + "\n")
    return path


def load_artifact(path) -> dict:
    """Read and schema-check an artifact; raises ValueError on problems."""
    data = json.loads(Path(path).read_text())
    problems = validate_artifact(data)
    if problems:
        raise ValueError(f"{path} is not a valid BENCH artifact: "
                         + "; ".join(problems))
    return data
