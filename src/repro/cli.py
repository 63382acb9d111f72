"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``defaults``  — print the paper's §5.1 parameter table.
* ``query``     — run one DIKNN query and print its metrics.
* ``fig8``      — regenerate the Figure 8 series (scalability in k).
* ``fig9``      — regenerate the Figure 9 series (mobility impact).
* ``viz``       — render a DIKNN traversal over a chosen deployment as SVG.
* ``window``    — run one itinerary window query.
* ``golden``    — verify or regenerate the golden-trace fixtures.
* ``trace``     — capture an instrumented scenario as a Chrome trace
  (load the JSON in ui.perfetto.dev), plus optional JSONL/CSV exports.
* ``stats``     — run an instrumented scenario and print the metrics
  summary and sim-kernel hotspot report.
* ``explain``   — post-mortem root-cause attribution (``repro.obs.
  postmortem``): classify why queries degraded (ANCHOR_DISPLACED,
  SECTOR_LOST_TO_CRASH, DEADLINE_QUEUE_WAIT, ...) from a live scenario,
  a seed replay, a dumped flight bundle, or a service soak.
* ``service``   — run a concurrent serving soak (``repro.service``):
  Poisson query arrivals against one long-lived network with deadlines,
  bounded retries, admission control and per-region circuit breakers;
  prints the outcome taxonomy, latency percentiles and goodput.
* ``bench``     — the perf trajectory: ``bench run`` executes a pinned
  macro-benchmark suite and emits a schema-versioned ``BENCH_*.json``;
  ``bench compare`` diffs two artifacts with noise tolerances (nonzero
  exit on regression); ``bench hotspots`` merges kernel hotspots across
  the suite (optionally as a flamegraph-compatible collapsed-stack
  file); ``bench validate`` schema-checks an artifact.

Most run commands accept ``--validate``, which attaches the runtime
invariant checkers (``repro.validate``) to every simulation they build
and prints a check summary on success, and ``--obs``, which attaches
the telemetry subsystem (``repro.obs``) and prints a metrics summary.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core import (DIKNNConfig, DIKNNProtocol, WindowQuery,
                   WindowQueryProtocol, nodes_in_window, window_recall)
from .experiments import (RESILIENCE_CRASH_RATES, Scenario,
                          SimulationConfig, TraversalRecorder,
                          build_simulation, default_protocol_factories,
                          defaults_table, fig8_sweep, fig9_sweep,
                          figure_report, generate_report,
                          paper_default_scenario, render_svg,
                          resilience_sweep, run_query, save_svg)
from .geometry import Rect, Vec2


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--nodes", type=int, default=200)
    parser.add_argument("--speed", type=float, default=10.0,
                        help="max node speed (m/s)")
    parser.add_argument("--deployment", default="uniform",
                        choices=("uniform", "clustered", "caribou", "grid",
                                 "jittered-grid", "halton"))
    parser.add_argument("--crash-rate", type=float, default=0.0,
                        help="per-node crash events per second "
                             "(Poisson fault injection)")
    parser.add_argument("--node-recovery", type=float, default=5.0,
                        help="seconds a crashed node stays down "
                             "(0 = permanent death)")
    parser.add_argument("--blackout", type=float, nargs=5, default=None,
                        metavar=("AT", "CX", "CY", "RADIUS", "DURATION"),
                        help="regional blackout: kill every node within "
                             "RADIUS of (CX, CY) at time AT for DURATION s")
    _add_validate(parser)


def _add_validate(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--validate", action="store_true",
                        help="attach runtime invariant checkers to every "
                             "simulation (fails fast on violations)")
    parser.add_argument("--obs", action="store_true",
                        help="attach the telemetry subsystem (spans, "
                             "metrics, kernel profiler) to every "
                             "simulation and print a summary")
    parser.add_argument("--obs-sample", type=int, default=0, metavar="N",
                        help="scale-aware telemetry tier (implies --obs): "
                             "tail-sample spans, keeping failures at full "
                             "fidelity plus 1-in-N of complete queries")


def _config(args) -> SimulationConfig:
    downtime = getattr(args, "node_recovery", 5.0)
    return SimulationConfig(seed=args.seed, n_nodes=args.nodes,
                            max_speed=args.speed,
                            deployment=args.deployment,
                            crash_rate=getattr(args, "crash_rate", 0.0),
                            node_downtime_s=(downtime if downtime > 0
                                             else None),
                            blackout=getattr(args, "blackout", None))


def cmd_defaults(_args) -> int:
    print(defaults_table())
    return 0


def cmd_query(args) -> int:
    handle = build_simulation(
        _config(args),
        DIKNNProtocol(DIKNNConfig(sectors=args.sectors,
                                  collection_scheme=args.scheme)))
    handle.warm_up()
    point = Vec2(args.x, args.y)
    outcome = run_query(handle, point, k=args.k, timeout=args.timeout)
    print(f"completed:     {outcome.completed}")
    if outcome.latency is not None:
        print(f"latency:       {outcome.latency:.3f} s")
    print(f"energy:        {outcome.energy_j * 1e3:.2f} mJ")
    print(f"pre-accuracy:  {outcome.pre_accuracy:.2f}")
    print(f"post-accuracy: {outcome.post_accuracy:.2f}")
    for key in ("initial_radius", "radius", "explored", "voids",
                "qnode_hops"):
        if key in outcome.meta:
            print(f"{key + ':':<15}{outcome.meta[key]:.1f}")
    return 0 if outcome.completed else 1


def _sweep_args(args):
    factories = default_protocol_factories(
        include_flooding=args.flooding)
    if args.only:
        factories = {name: f for name, f in factories.items()
                     if name in args.only}
    return factories


def cmd_fig8(args) -> int:
    result = fig8_sweep(base=_config(args),
                        k_values=tuple(args.k),
                        factories=_sweep_args(args),
                        repeats=args.repeats, duration=args.duration)
    print(figure_report(result, "Figure 8"))
    return 0


def cmd_fig9(args) -> int:
    result = fig9_sweep(base=_config(args),
                        speeds=tuple(args.speeds), k=args.k,
                        factories=_sweep_args(args),
                        repeats=args.repeats, duration=args.duration)
    print(figure_report(result, "Figure 9"))
    return 0


def cmd_faults(args) -> int:
    factories = default_protocol_factories()
    if args.only:
        factories = {name: f for name, f in factories.items()
                     if name in args.only}
    result = resilience_sweep(
        base=SimulationConfig(seed=args.seed, n_nodes=args.nodes,
                              max_speed=args.speed,
                              deployment=args.deployment),
        crash_rates=tuple(args.rates), k=args.k,
        downtime_s=(args.node_recovery if args.node_recovery > 0
                    else None),
        factories=factories, repeats=args.repeats,
        duration=args.duration)
    print(figure_report(result, "Resilience"))
    return 0


def cmd_viz(args) -> int:
    handle = build_simulation(_config(args), DIKNNProtocol())
    handle.warm_up()
    recorder = TraversalRecorder(handle.network)
    outcome = run_query(handle, Vec2(args.x, args.y), k=args.k,
                        timeout=args.timeout)
    svg = render_svg(handle.network, handle.config.field, recorder.trace,
                     title=f"DIKNN k={args.k} ({args.deployment})")
    save_svg(args.out, svg)
    print(f"query accuracy {outcome.pre_accuracy:.2f}, "
          f"{recorder.trace.hop_count()} itinerary hops")
    print(f"wrote {args.out}")
    return 0


def cmd_window(args) -> int:
    proto = WindowQueryProtocol()
    handle = build_simulation(_config(args), proto)
    handle.warm_up()
    window = Rect(args.x, args.y, args.x + args.w, args.y + args.h)
    query = WindowQuery.make(handle.sim, handle.sink.id, window)
    results = []
    proto.issue(handle.sink, query, results.append)
    handle.sim.run(until=handle.sim.now + args.timeout)
    if not results:
        print("window query did not complete")
        return 1
    result = results[0]
    truth = nodes_in_window(handle.network, window,
                            t=result.query.issued_at)
    print(f"latency: {result.latency:.3f} s")
    print(f"reported {len(result.node_ids())} nodes "
          f"(truth at issue time: {len(truth)})")
    print(f"recall:  {window_recall(handle.network, result):.2f}")
    return 0


def cmd_report(args) -> int:
    text = generate_report(base=SimulationConfig(seed=args.seed),
                           repeats=args.repeats, duration=args.duration,
                           k_values=tuple(args.k),
                           speeds=tuple(args.speeds),
                           chart_dir=args.charts)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def cmd_run_scenario(args) -> int:
    if args.file:
        scenario = Scenario.load(args.file)
    else:
        scenario = paper_default_scenario(protocol=args.protocol,
                                          k=args.k, seed=args.seed)
    if args.save:
        scenario.save(args.save)
        print(f"wrote {args.save}")
        return 0
    metrics = scenario.run()
    print(f"scenario:        {scenario.name}")
    print(f"queries issued:  {metrics.queries_issued}")
    print(f"completion rate: {metrics.completion_rate:.0%}")
    print(f"mean latency:    {metrics.mean_latency:.3f} s")
    print(f"pre-accuracy:    {metrics.mean_pre_accuracy:.2f}")
    print(f"post-accuracy:   {metrics.mean_post_accuracy:.2f}")
    print(f"energy:          {metrics.energy_j:.3f} J")
    return 0


def cmd_service(args) -> int:
    from .service import ServiceConfig, run_service_soak

    service_config = ServiceConfig(
        deadline_s=args.deadline,
        attempt_timeout_s=args.attempt_timeout,
        max_retries=args.retries,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        breaker_grid=args.breaker_grid,
        breaker_cooldown_s=args.breaker_cooldown,
        slo_latency_threshold_s=args.slo_latency,
        slo_availability_target=args.slo_availability,
        slo_window_s=args.slo_window,
        slo_burn_alert=args.slo_burn_alert)
    report, service = run_service_soak(
        _config(args), k=args.k, rate_qps=args.rate,
        duration=args.duration, service_config=service_config,
        flight_dir=args.flight_dir)
    if service.handle.validator is not None:
        service.handle.validator.finalize()
    print(report.table())
    print()
    print(service.slo.table())
    for alert in report.slo_alerts or []:
        tag = "resolved" if alert.get("resolved") else "ALERT"
        print(f"  [{tag}] t={alert['time']:.1f}s "
              f"{alert['slo']}: burn {alert['burn']}x")
    if service.flight is not None and service.flight.dumps_written:
        for path in service.flight.dumps_written:
            print(f"[flight] wrote {path}")
    return 0 if report.all_accounted else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DIKNN (ICDE 2007) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("defaults", help="print the paper's parameter table") \
       .set_defaults(func=cmd_defaults)

    q = sub.add_parser("query", help="run one DIKNN query")
    _add_common(q)
    q.add_argument("-k", type=int, default=20)
    q.add_argument("--x", type=float, default=60.0)
    q.add_argument("--y", type=float, default=60.0)
    q.add_argument("--sectors", type=int, default=8)
    q.add_argument("--scheme", default="hybrid",
                   choices=("hybrid", "contention", "token_ring"))
    q.add_argument("--timeout", type=float, default=20.0)
    q.set_defaults(func=cmd_query)

    f8 = sub.add_parser("fig8", help="regenerate Figure 8 (k sweep)")
    _add_common(f8)
    f8.add_argument("--k", type=int, nargs="+",
                    default=[20, 40, 60, 80, 100])
    f8.add_argument("--repeats", type=int, default=2)
    f8.add_argument("--duration", type=float, default=30.0)
    f8.add_argument("--flooding", action="store_true")
    f8.add_argument("--only", nargs="+", default=None,
                    help="restrict to these protocols")
    f8.set_defaults(func=cmd_fig8)

    f9 = sub.add_parser("fig9", help="regenerate Figure 9 (speed sweep)")
    _add_common(f9)
    f9.add_argument("--speeds", type=float, nargs="+",
                    default=[5, 10, 15, 20, 25, 30])
    f9.add_argument("-k", type=int, default=40)
    f9.add_argument("--repeats", type=int, default=2)
    f9.add_argument("--duration", type=float, default=30.0)
    f9.add_argument("--flooding", action="store_true")
    f9.add_argument("--only", nargs="+", default=None)
    f9.set_defaults(func=cmd_fig9)

    fl = sub.add_parser("faults",
                        help="resilience sweep: accuracy/latency/energy "
                             "vs. injected crash rate")
    _add_common(fl)
    fl.add_argument("--rates", type=float, nargs="+",
                    default=list(RESILIENCE_CRASH_RATES),
                    help="per-node crash rates (events/s) to sweep")
    fl.add_argument("-k", type=int, default=20)
    fl.add_argument("--repeats", type=int, default=2)
    fl.add_argument("--duration", type=float, default=20.0)
    fl.add_argument("--only", nargs="+", default=None,
                    help="restrict to these protocols")
    fl.set_defaults(func=cmd_faults)

    v = sub.add_parser("viz", help="render a traversal as SVG")
    _add_common(v)
    v.add_argument("-k", type=int, default=40)
    v.add_argument("--x", type=float, default=60.0)
    v.add_argument("--y", type=float, default=60.0)
    v.add_argument("--timeout", type=float, default=20.0)
    v.add_argument("--out", default="diknn_traversal.svg")
    v.set_defaults(func=cmd_viz)

    w = sub.add_parser("window", help="run one itinerary window query")
    _add_common(w)
    w.add_argument("--x", type=float, default=40.0)
    w.add_argument("--y", type=float, default=40.0)
    w.add_argument("--w", type=float, default=40.0)
    w.add_argument("--h", type=float, default=40.0)
    w.add_argument("--timeout", type=float, default=25.0)
    w.set_defaults(func=cmd_window)

    r = sub.add_parser("report",
                       help="run both figure sweeps and emit a markdown "
                            "reproduction report")
    r.add_argument("--seed", type=int, default=1)
    r.add_argument("--repeats", type=int, default=2)
    r.add_argument("--duration", type=float, default=30.0)
    r.add_argument("--k", type=int, nargs="+",
                   default=[20, 40, 60, 80, 100])
    r.add_argument("--speeds", type=float, nargs="+",
                   default=[5, 10, 15, 20, 25, 30])
    r.add_argument("--out", default=None)
    r.add_argument("--charts", default=None,
                   help="directory for SVG figure charts")
    r.set_defaults(func=cmd_report)

    rs = sub.add_parser("run-scenario",
                        help="run (or emit) a pinned scenario file")
    rs.add_argument("--file", default=None,
                    help="scenario JSON to run (default: paper setup)")
    rs.add_argument("--protocol", default="diknn",
                    choices=("diknn", "kpt", "peertree", "flooding"))
    rs.add_argument("-k", type=int, default=40)
    rs.add_argument("--seed", type=int, default=1)
    rs.add_argument("--save", default=None,
                    help="write the scenario JSON instead of running it")
    _add_validate(rs)
    rs.set_defaults(func=cmd_run_scenario)

    g = sub.add_parser("golden",
                       help="verify or regenerate the golden-trace "
                            "regression fixtures")
    mode = g.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", default=True,
                      help="re-run the scenario matrix and compare "
                           "digests against the fixtures (default)")
    mode.add_argument("--regen", action="store_true",
                      help="rewrite the fixtures from current behavior")
    g.add_argument("--fixtures", default=None,
                   help="fixture file (default: tests/golden/traces.json)")
    g.add_argument("--only", nargs="+", default=None,
                   help="restrict to these scenario names")
    g.set_defaults(func=cmd_golden)

    t = sub.add_parser("trace",
                       help="capture an instrumented scenario as a "
                            "Perfetto-loadable Chrome trace")
    t.add_argument("scenario", nargs="?", default="static-diknn",
                   help="golden scenario name (default: static-diknn)")
    t.add_argument("--out", default="trace.json",
                   help="Chrome trace output path")
    t.add_argument("--jsonl", default=None,
                   help="also export the raw event stream as JSON lines")
    t.add_argument("--csv", default=None,
                   help="also export the metrics registry as CSV")
    t.add_argument("--tree", action="store_true",
                   help="print the query's span tree")
    t.add_argument("--check", default=None, metavar="FILE",
                   help="validate an existing Chrome trace file instead "
                        "of capturing")
    t.set_defaults(func=cmd_trace)

    st = sub.add_parser("stats",
                        help="run an instrumented scenario and print the "
                             "metrics summary + kernel hotspots")
    st.add_argument("scenario", nargs="?", default="static-diknn",
                    help="golden scenario name (default: static-diknn)")
    st.add_argument("--top", type=int, default=10,
                    help="kernel hotspot rows to show")
    st.add_argument("--from-jsonl", default=None, metavar="FILE",
                    help="summarize a previously exported raw event "
                         "stream (.jsonl or .jsonl.gz) instead of "
                         "running a scenario")
    st.set_defaults(func=cmd_stats)

    ob = sub.add_parser("obs",
                        help="flight-recorder tools: dump a post-mortem "
                             "bundle or summarize an existing one")
    obsub = ob.add_subparsers(dest="obs_command", required=True)
    od = obsub.add_parser("dump",
                          help="run a scenario with the flight recorder "
                               "installed and dump its ring (manual "
                               "trigger)")
    od.add_argument("scenario", nargs="?", default="static-diknn",
                    help="golden scenario name (default: static-diknn)")
    od.add_argument("--out", default="flight.jsonl",
                    help="bundle path (.gz compresses transparently)")
    od.add_argument("--sample", type=int, default=0, metavar="N",
                    help="also run the tail sampler at 1-in-N")
    od.set_defaults(func=cmd_obs_dump)
    osh = obsub.add_parser("show",
                           help="summarize a flight-recorder bundle")
    osh.add_argument("bundle", help="bundle file (.jsonl or .jsonl.gz)")
    osh.set_defaults(func=cmd_obs_show)

    exp = sub.add_parser(
        "explain",
        help="post-mortem root-cause attribution: why did a query "
             "degrade? (anchor displacement, perimeter dead ends, "
             "crashed sectors, queue wait, breakers, ...)")
    exp.add_argument("query_id", nargs="?", type=int, default=None,
                     help="restrict to one query / served id")
    exp.add_argument("--scenario", default="static-diknn",
                     help="golden scenario to run and attribute "
                          "(default: static-diknn)")
    exp.add_argument("--bundle", default=None, metavar="PATH",
                     help="attribute a dumped flight bundle "
                          "(.jsonl or .jsonl.gz) instead of running")
    exp.add_argument("--replay", default=None, type=int, metavar="SEED",
                     help="replay one static-field protocol query "
                          "(property-test RNG discipline) and "
                          "attribute it; e.g. --replay 9999 -k 1 "
                          "--x 20 --y 52 reproduces ROADMAP item 4")
    exp.add_argument("--soak", action="store_true",
                     help="run a service soak under telemetry and "
                          "attribute every served query")
    exp.add_argument("--worst", type=int, default=0, metavar="N",
                     help="print the N most severe attributions "
                          "(default: flagged ones only)")
    exp.add_argument("--json", default=None, metavar="PATH",
                     help="also write a machine-readable JSONL report "
                          "(.gz compresses transparently)")
    exp.add_argument("-k", type=int, default=5)
    exp.add_argument("--x", type=float, default=60.0)
    exp.add_argument("--y", type=float, default=60.0)
    exp.add_argument("--nodes", type=int, default=120,
                     help="replay/soak field size (default: 120)")
    exp.add_argument("--seed", type=int, default=7,
                     help="soak seed (replay uses --replay SEED)")
    exp.add_argument("--speed", type=float, default=10.0)
    exp.add_argument("--deployment", default="uniform",
                     choices=("uniform", "clustered", "caribou", "grid",
                              "jittered-grid", "halton"))
    exp.add_argument("--rate", type=float, default=5.0,
                     help="soak arrival rate (queries/s)")
    exp.add_argument("--duration", type=float, default=40.0,
                     help="soak duration (simulated s)")
    exp.add_argument("--timeout", type=float, default=15.0,
                     help="replay run budget (simulated s)")
    exp.set_defaults(func=cmd_explain)

    sv = sub.add_parser("service",
                        help="concurrent serving soak: Poisson arrivals "
                             "with deadlines, retries, admission control "
                             "and circuit breakers")
    _add_common(sv)
    sv.add_argument("-k", type=int, default=5)
    sv.add_argument("--rate", type=float, default=5.0,
                    help="mean Poisson arrival rate (queries/s)")
    sv.add_argument("--duration", type=float, default=60.0,
                    help="simulated seconds of arrivals")
    sv.add_argument("--deadline", type=float, default=10.0,
                    help="end-to-end per-query deadline (s)")
    sv.add_argument("--attempt-timeout", type=float, default=4.0,
                    help="per-attempt budget before abort+retry (s)")
    sv.add_argument("--retries", type=int, default=2,
                    help="retry budget after the first attempt")
    sv.add_argument("--max-inflight", type=int, default=4,
                    help="admission: concurrent query budget")
    sv.add_argument("--max-queue", type=int, default=32,
                    help="admission: wait-queue bound (overflow is shed)")
    sv.add_argument("--breaker-grid", type=int, default=3,
                    help="circuit-breaker regions per field axis")
    sv.add_argument("--breaker-cooldown", type=float, default=8.0,
                    help="seconds an open breaker waits before probing")
    sv.add_argument("--slo-latency", type=float, default=5.0,
                    help="latency SLO: useful answers under this many "
                         "seconds (p-target from the service config)")
    sv.add_argument("--slo-availability", type=float, default=0.95,
                    help="availability SLO target (useful fraction)")
    sv.add_argument("--slo-window", type=float, default=30.0,
                    help="rolling SLO window (simulated seconds)")
    sv.add_argument("--slo-burn-alert", type=float, default=2.0,
                    help="burn rate at which an SLO alert fires")
    sv.add_argument("--flight-dir", default=None, metavar="DIR",
                    help="install a flight recorder; post-mortem bundles "
                         "land here on breaker-open/unaccounted triggers")
    sv.set_defaults(func=cmd_service)

    b = sub.add_parser("bench",
                       help="macro-benchmark suite + cross-run "
                            "regression analytics (BENCH_*.json)")
    bsub = b.add_subparsers(dest="bench_command", required=True)

    br = bsub.add_parser("run", help="run a suite, emit BENCH_<n>.json")
    br.add_argument("--suite", default="small",
                    help="suite name: smoke, small, scale or full "
                         "(default: small)")
    br.add_argument("--out-dir", default="bench_results",
                    help="directory for numbered artifacts "
                         "(default: bench_results)")
    br.add_argument("--out", default=None,
                    help="explicit artifact path (overrides --out-dir "
                         "numbering)")
    br.add_argument("--repeats", type=int, default=None,
                    help="override every scenario's timed repeat count")
    br.add_argument("--no-memory", action="store_true",
                    help="skip the tracemalloc peak-memory pass")
    br.add_argument("--microbench", default=None, metavar="FILE",
                    help="pytest-benchmark JSON to ingest into the "
                         "artifact's microbench section")
    br.set_defaults(func=cmd_bench_run)

    bc = bsub.add_parser("compare",
                         help="diff two artifacts; nonzero exit on "
                              "regression")
    bc.add_argument("old", help="baseline BENCH_*.json")
    bc.add_argument("new", help="candidate BENCH_*.json")
    bc.add_argument("--tolerance", type=float, default=None,
                    help="relative wall-time/throughput tolerance "
                         "(default: 0.25)")
    bc.add_argument("--mem-tolerance", type=float, default=None,
                    help="relative peak-memory tolerance (default: 0.5)")
    bc.add_argument("--events-floor", action="append", default=[],
                    metavar="SCENARIO=EV_PER_SEC",
                    help="absolute events/sec floor for a scenario "
                         "(repeatable); below the floor is a hard "
                         "regression regardless of the baseline")
    bc.set_defaults(func=cmd_bench_compare)

    bh = bsub.add_parser("hotspots",
                         help="merged kernel hotspots across a suite "
                              "artifact")
    bh.add_argument("artifact", help="BENCH_*.json to aggregate")
    bh.add_argument("--top", type=int, default=15,
                    help="rows in the merged table")
    bh.add_argument("--collapsed", default=None, metavar="FILE",
                    help="also write flamegraph-compatible "
                         "collapsed stacks")
    bh.set_defaults(func=cmd_bench_hotspots)

    bv = bsub.add_parser("validate",
                         help="schema-check a BENCH_*.json artifact")
    bv.add_argument("artifact", help="artifact file to validate")
    bv.set_defaults(func=cmd_bench_validate)

    bl = bsub.add_parser("list", help="list suites and their scenarios")
    bl.set_defaults(func=cmd_bench_list)

    return parser


def cmd_bench_run(args) -> int:
    from .bench import (ingest_pytest_benchmark, run_suite,
                        validate_artifact, write_artifact)

    def progress(scn):
        print(f"[bench] {scn.name}: {scn.title}", flush=True)

    try:
        artifact = run_suite(args.suite, memory=not args.no_memory,
                             repeats=args.repeats, progress=progress)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    if args.microbench:
        try:
            artifact["microbench"] = ingest_pytest_benchmark(
                args.microbench)
        except (OSError, ValueError) as exc:
            print(f"error: cannot ingest {args.microbench}: {exc}")
            return 2
        problems = validate_artifact(artifact)
        if problems:
            print("\n".join(f"INVALID {p}" for p in problems))
            return 2
    path = write_artifact(artifact, directory=args.out_dir,
                          path=args.out)
    for name, scn in artifact["scenarios"].items():
        mem = (f"{scn['peak_mem_kib']:8.0f} KiB"
               if scn["peak_mem_kib"] is not None else "     (n/a)")
        print(f"  {name:<16} {scn['wall_min_s']:7.3f} s  "
              f"{scn['events_per_sec']:>9.0f} ev/s  {mem}  "
              f"{'ok' if scn['completed'] else 'INCOMPLETE'}")
    if artifact["microbench"]:
        print(f"  + {len(artifact['microbench'])} microbenchmarks "
              "ingested")
    print(f"wrote {path} ({len(artifact['scenarios'])} scenarios, "
          f"suite {args.suite!r})")
    return 0


def cmd_bench_compare(args) -> int:
    from .bench import (MEM_TOLERANCE, WALL_TOLERANCE, compare_artifacts,
                        load_artifact)

    floors = {}
    for spec in args.events_floor:
        name, sep, value = spec.partition("=")
        try:
            if not sep or not name:
                raise ValueError
            floors[name] = float(value)
        except ValueError:
            print(f"error: --events-floor expects SCENARIO=EV_PER_SEC, "
                  f"got {spec!r}")
            return 2
    try:
        old = load_artifact(args.old)
        new = load_artifact(args.new)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    comparison = compare_artifacts(
        old, new,
        tolerance=(args.tolerance if args.tolerance is not None
                   else WALL_TOLERANCE),
        mem_tolerance=(args.mem_tolerance if args.mem_tolerance
                       is not None else MEM_TOLERANCE),
        events_floor=floors or None)
    print(comparison.table())
    return comparison.exit_code


def cmd_bench_hotspots(args) -> int:
    from .bench import collapsed_stacks, hotspot_table, load_artifact

    try:
        artifact = load_artifact(args.artifact)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    print(hotspot_table(artifact, top=args.top))
    if args.collapsed:
        lines = collapsed_stacks(artifact)
        with open(args.collapsed, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + ("\n" if lines else ""))
        print(f"wrote {args.collapsed} ({len(lines)} collapsed stacks "
              "— feed to flamegraph.pl or speedscope)")
    return 0


def cmd_bench_validate(args) -> int:
    import json as _json

    from .bench import validate_artifact

    try:
        with open(args.artifact, "r", encoding="utf-8") as handle:
            data = _json.load(handle)
    except OSError as exc:
        print(f"error: cannot read {args.artifact}: {exc}")
        return 2
    except _json.JSONDecodeError as exc:
        print(f"error: {args.artifact} is not valid JSON: {exc}")
        return 2
    problems = validate_artifact(data)
    if problems:
        for problem in problems:
            print(f"INVALID {problem}")
        return 1
    print(f"{args.artifact}: schema-valid BENCH artifact "
          f"({len(data['scenarios'])} scenarios, "
          f"{len(data.get('microbench') or {})} microbenchmarks)")
    return 0


def cmd_bench_list(args) -> int:
    from .bench import SUITES

    for name in sorted(SUITES):
        print(f"{name}:")
        for scn in SUITES[name]:
            print(f"  {scn.name:<16} {scn.title} [{scn.describe()}]")
    return 0


def cmd_golden(args) -> int:
    from .validate import golden

    if args.regen:
        path = golden.write_fixtures(path=args.fixtures, only=args.only)
        print(f"wrote {path}")
        return 0
    problems = golden.verify_fixtures(path=args.fixtures, only=args.only)
    names = (args.only if args.only
             else [spec.name for spec in golden.GOLDEN_SPECS])
    if problems:
        for problem in problems:
            print(f"MISMATCH {problem}")
        print(f"{len(problems)}/{len(names)} golden traces diverged "
              "(regenerate deliberately with `golden --regen` if the "
              "behavior change is intended)")
        return 1
    print(f"{len(names)} golden traces verified")
    return 0


def cmd_trace(args) -> int:
    import json

    from .obs import open_text, validate_chrome_trace

    if args.check:
        try:
            with open_text(args.check, "r") as handle:
                data = json.load(handle)
        except OSError as exc:
            print(f"error: cannot read {args.check}: {exc}")
            return 2
        except json.JSONDecodeError as exc:
            print(f"error: {args.check} is not valid JSON: {exc}")
            return 2
        problems = validate_chrome_trace(data)
        if problems:
            for problem in problems:
                print(f"INVALID {problem}")
            return 1
        events = (data["traceEvents"] if isinstance(data, dict) else data)
        print(f"{args.check}: {len(events)} well-formed trace events")
        return 0

    from .obs import export_chrome_trace, export_jsonl, export_metrics_csv
    from .obs.capture import capture_scenario

    try:
        result = capture_scenario(args.scenario)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    n_events = export_chrome_trace(result.telemetry, args.out)
    print(f"{result.name}: {result.spec}")
    print(f"wrote {args.out} ({n_events} trace events, "
          f"{len(result.spans.spans)} spans) — load in ui.perfetto.dev")
    if args.jsonl:
        n = export_jsonl(result.telemetry, args.jsonl)
        print(f"wrote {args.jsonl} ({n} raw events)")
    if args.csv:
        n = export_metrics_csv(result.telemetry, args.csv)
        print(f"wrote {args.csv} ({n} metric series)")
    if args.tree:
        print("\n".join(result.spans.tree_lines(query_id=1)))
    return 0 if result.completed else 1


def cmd_stats(args) -> int:
    from .obs.capture import capture_scenario

    if args.from_jsonl:
        from .obs import TraceLog

        try:
            entries = TraceLog.read_jsonl(args.from_jsonl)
        except OSError as exc:
            print(f"error: cannot read {args.from_jsonl}: {exc}")
            return 2
        counts: dict = {}
        by_query: dict = {}
        for entry in entries:
            if entry.event == "send":
                counts[entry.kind] = counts.get(entry.kind, 0) + 1
            if entry.query_id is not None:
                by_query.setdefault(entry.query_id, 0)
                by_query[entry.query_id] += 1
        span = (entries[-1].time - entries[0].time) if entries else 0.0
        print(f"{args.from_jsonl}: {len(entries)} events over "
              f"{span:.3f} simulated seconds, "
              f"{len(by_query)} queries")
        for kind in sorted(counts):
            print(f"  {kind:<24} {counts[kind]:>8} sends")
        return 0

    try:
        result = capture_scenario(args.scenario)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    print(f"{result.name}: {result.spec}")
    print(result.telemetry.report(top=args.top))
    return 0 if result.completed else 1


#: everything that can go wrong reading a .jsonl[.gz] bundle back:
#: missing/unreadable file (OSError, incl. gzip.BadGzipFile), a
#: truncated gzip stream (EOFError), binary garbage (UnicodeDecodeError)
#: and corrupt JSON lines (json.JSONDecodeError, a ValueError).
_BUNDLE_ERRORS = (OSError, EOFError, UnicodeDecodeError, ValueError)


def cmd_obs_dump(args) -> int:
    from .obs.capture import capture_scenario
    from .obs.flight import TRIGGER_MANUAL

    try:
        result = capture_scenario(args.scenario,
                                  sample_every_n=args.sample,
                                  flight=True)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    recorder = result.flight
    recorder.trigger(TRIGGER_MANUAL,
                     at=result.telemetry.spans.spans[-1].start
                     if result.telemetry.spans.spans else 0.0,
                     scenario=result.name)
    try:
        path = recorder.dump(args.out, spans=result.telemetry.spans,
                             extra={"scenario": result.name,
                                    "digest": result.digest})
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    print(f"{result.name}: {result.spec}")
    print(f"wrote {path} ({recorder.recorded} events recorded, "
          f"{recorder.dropped} overwritten, ring of "
          f"{recorder.capacity})")
    return 0


def cmd_obs_show(args) -> int:
    from .obs import FlightRecorder

    try:
        bundle = FlightRecorder.read_bundle(args.bundle)
    except _BUNDLE_ERRORS as exc:
        print(f"error: cannot read {args.bundle}: {exc}",
              file=sys.stderr)
        return 2
    if not bundle:
        print(f"error: {args.bundle} is empty (no bundle records)",
              file=sys.stderr)
        return 1
    header = (bundle.get("header") or [{}])[0]
    print(f"{args.bundle}: ring capacity "
          f"{header.get('capacity', '?')}, "
          f"{header.get('recorded', '?')} recorded, "
          f"{header.get('dropped', '?')} overwritten")
    for trig in bundle.get("trigger", []):
        detail = {k: v for k, v in trig.items()
                  if k not in ("record", "reason", "time")}
        print(f"  trigger {trig.get('reason')} at "
              f"t={trig.get('time', 0.0):.3f}s {detail}")
    counts: dict = {}
    for rec in bundle.get("event", []):
        counts[rec.get("category", "?")] = \
            counts.get(rec.get("category", "?"), 0) + 1
    for category in sorted(counts):
        print(f"  ring[{category}]: {counts[category]} events")
    spans = bundle.get("span", [])
    trees = {rec.get("tree") for rec in spans if rec.get("tree")}
    print(f"  spans: {len(spans)}"
          + (f" (promoted trees: {', '.join(sorted(trees))})"
             if trees else ""))
    return 0


def _print_attributions(attributions, worst: int,
                        show_aggregate: bool) -> None:
    from .obs.postmortem import aggregate

    if show_aggregate:
        agg = aggregate(attributions)
        print(f"{agg['total']} queries attributed, "
              f"{agg['flagged']} flagged")
        for row in agg["top_causes"]:
            print(f"  {row['cause']:<22} {row['count']}")
        if agg["top_causes"]:
            print()
    ranked = sorted(attributions, key=lambda a: a.severity,
                    reverse=True)
    shown = ranked[:worst] if worst > 0 else \
        [a for a in ranked if a.flagged] or ranked[:1]
    for att in shown:
        print(att.summary())


def cmd_explain(args) -> int:
    """Root-cause attribution: live scenario, replay, bundle or soak."""
    from .obs.postmortem import PostMortem, write_report

    attributions = []
    if args.bundle is not None:
        try:
            engine = PostMortem.from_bundle(args.bundle)
        except _BUNDLE_ERRORS as exc:
            print(f"error: cannot read {args.bundle}: {exc}",
                  file=sys.stderr)
            return 2
        if not engine.spans and not engine.instants:
            print(f"error: {args.bundle} holds no spans/instants to "
                  "attribute (dump with spans, or use --obs runs)",
                  file=sys.stderr)
            return 1
        attributions = engine.explain_all()
    elif args.replay is not None:
        from .obs.postmortem import replay_seed_query

        attribution, result, _net = replay_seed_query(
            args.replay, args.k, args.x, args.y, n=args.nodes,
            duration_s=args.timeout)
        ids = result.top_k_ids() if result is not None else []
        print(f"replay seed={args.replay} k={args.k} "
              f"q=({args.x:g}, {args.y:g}): returned {ids}")
        attributions = [attribution]
    elif args.soak:
        from .obs import enable_observability, reset_observability
        from .service import ServiceConfig, run_service_soak

        enable_observability(True)
        try:
            report, service = run_service_soak(
                _config(args), k=args.k, rate_qps=args.rate,
                duration=args.duration,
                service_config=ServiceConfig())
            engine = PostMortem.from_telemetry(service.handle.obs)
            attributions = engine.explain_all()
            print(report.table())
            print()
        finally:
            reset_observability()
    else:
        from .obs.capture import capture_scenario

        try:
            result = capture_scenario(args.scenario, flight=True)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        engine = PostMortem.from_telemetry(result.telemetry)
        attributions = engine.explain_all()

    if args.query_id is not None:
        attributions = [a for a in attributions
                        if a.query_id == args.query_id
                        or a.service_id == args.query_id]
        if not attributions:
            print(f"error: query {args.query_id} not found in the "
                  "recorded artifacts", file=sys.stderr)
            return 1

    _print_attributions(attributions, args.worst,
                        show_aggregate=len(attributions) > 1)
    if args.json is not None:
        path = write_report(attributions, args.json)
        print(f"wrote {path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "validate", False):
        from .validate import enable_validation
        enable_validation(True)
    sample = getattr(args, "obs_sample", 0)
    if getattr(args, "obs", False) or sample > 0:
        from .obs import enable_observability
        enable_observability(True, sample_every_n=sample)
        args.obs = True
    status = args.func(args)
    if getattr(args, "validate", False):
        from .validate import validation_summary
        summary = validation_summary()
        checks = sum(count for name, count in summary.items()
                     if name not in ("checkpoints", "outcomes"))
        print(f"[validate] {checks} invariant checks passed "
              f"({summary.get('checkpoints', 0)} checkpoints, "
              f"{summary.get('outcomes', 0)} outcomes cross-checked)")
    if getattr(args, "obs", False):
        from .obs import active_telemetry, merge_registries
        telemetries = active_telemetry()
        for telemetry in telemetries:
            telemetry.finalize()
        merged = merge_registries(t.metrics for t in telemetries)
        spans = sum(len(t.spans.spans) for t in telemetries)
        print(f"[obs] {len(telemetries)} runs instrumented: "
              f"{spans} spans, {len(merged)} metric series")
        for telemetry in telemetries:
            if telemetry.sampler is not None:
                s = telemetry.sampler.summary()
                print(f"[obs] tail sampling 1-in-"
                      f"{s['sample_every_n']}: {s['promoted']} promoted, "
                      f"{s['discarded']} discarded, {s['flagged']} "
                      f"flagged, {s['evicted']} evicted")
        print(merged.summary_table())
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
