"""repro.obs — opt-in telemetry for simulation runs.

Layers, bottom-up:

* :mod:`.events` — the raw network event stream (``TraceLog``), the
  ground truth the golden-trace digests fingerprint;
* :mod:`.metrics` — named counters/gauges/streaming histograms;
* :mod:`.spans` — the hierarchical query-lifecycle span tree over
  simulated time;
* :mod:`.profiler` — wall-clock accounting per kernel event-handler type;
* :mod:`.sampling` — tail-based per-query sampling (keep failures at
  full fidelity, 1-in-N of the successes);
* :mod:`.flight` — the always-on flight-recorder ring, dumped to a
  post-mortem bundle on trigger;
* :mod:`.slo` — declarative latency/availability objectives with
  burn-rate alerting over rolling sim-time windows;
* :mod:`.postmortem` — causal root-cause attribution over the recorded
  artifacts (the ``repro explain`` engine);
* :mod:`.telemetry` — the hub subscribing all of the above to a run's
  probe (:mod:`repro.sim.probe`);
* :mod:`.exporters` — JSONL / CSV / Chrome-trace (Perfetto) output.

Everything is strictly observational: attaching telemetry never changes
simulation results (enforced by the obs determinism test suite).
"""

from .events import (TraceEntry, TraceLog, entry_from_wire,  # noqa: F401
                     entry_to_wire, open_text)
from .exporters import (chrome_trace_events,  # noqa: F401
                        export_chrome_trace, export_jsonl,
                        export_metrics_csv, validate_chrome_trace)
from .flight import (FlightRecorder, active_recorders,  # noqa: F401
                     notify_violation, reset_recorders)
from .metrics import (Counter, Gauge, Histogram,  # noqa: F401
                      MetricsRegistry, merge_registries)
from .postmortem import (ALL_CAUSES, Attribution,  # noqa: F401
                         Evidence, PostMortem, aggregate,
                         replay_seed_query, write_report)
from .profiler import HandlerStats, KernelProfiler  # noqa: F401
from .sampling import (SAMPLING_STREAM, SamplingPolicy,  # noqa: F401
                       TailSampler)
from .slo import SloBoard, SloMonitor, SloSpec  # noqa: F401
from .spans import Instant, Span, SpanTracker  # noqa: F401
from .telemetry import (Telemetry, active_telemetry,  # noqa: F401
                        enable_observability, maybe_attach_obs,
                        observability_enabled, reset_observability)

__all__ = [
    "TraceEntry", "TraceLog", "entry_from_wire", "entry_to_wire",
    "open_text",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "merge_registries",
    "Instant", "Span", "SpanTracker",
    "HandlerStats", "KernelProfiler",
    "SAMPLING_STREAM", "SamplingPolicy", "TailSampler",
    "FlightRecorder", "active_recorders", "notify_violation",
    "reset_recorders",
    "ALL_CAUSES", "Attribution", "Evidence", "PostMortem",
    "aggregate", "replay_seed_query", "write_report",
    "SloBoard", "SloMonitor", "SloSpec",
    "Telemetry", "active_telemetry", "enable_observability",
    "maybe_attach_obs", "observability_enabled", "reset_observability",
    "chrome_trace_events", "export_chrome_trace", "export_jsonl",
    "export_metrics_csv", "validate_chrome_trace",
]
