"""The repository benchmark: DIKNN workloads measured end to end.

    python3 perfbench/run.py --workload churn --seed 1 \
        --seconds 50 --trace 0

Run it from the root of a checkout; it imports ``repro`` from ``src/``.
Each run splits its workload into parts and runs every part in a fresh
interpreter (``child.py``), one after the other. ``--seconds`` scales how
many parts a run has (``Workload.parts`` at 50 s: 7 ``churn`` parts,
about 75 s of measured host time on a 2-vCPU x86 box, and 3
``field-10k`` parts, about 35 s), so the inputs depend only on the
workload, ``--seed`` and ``--seconds``, never on how fast the machine
is.

``--trace 0`` prints the end-to-end metrics: host times and peak memory
of the parts, and the simulated latency, accuracy, energy and throughput
of all their queries pooled. ``--trace 1`` runs part 0 six times,
untraced and traced in turn, with every layer boundary wrapped in the
traced runs (``tracing.py``), checks that all six behaved identically,
and prints the per-layer metrics of the last traced run.

Every answer is checked (``child.py``); a wrong or unaccounted answer, a
crashed part or a traced run that differs from its untraced twin makes
the run fail: ``"correct": false`` and exit code 1. A run that nears its
time limit starts no more parts; it reports the parts it finished, with
``wall_s`` scaled up to the planned number of parts, so a slow program
shows as a slow run, not as a wrong one. The last line of standard
output is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import (QUERY_TIMEOUT_S, REFERENCE_SECONDS,  # noqa: E402
                       WORKLOADS, percentile)

#: a run must end within this many seconds, whatever --seconds says
RUN_LIMIT_S = 170.0

#: a part is started only if this many times the longest part so far
#: still fits before the run limit
PART_MARGIN = 1.5

#: untraced/traced pairs of part 0 in a traced run
TRACE_PAIRS = 3

#: a run has at least this many parts, so set-up time is a median
MIN_PARTS = 3

#: latency given to a query that got no answer: beyond every answered
#: latency, which the give-up timeout and the service deadline cap at
#: 10 s
UNANSWERED_LATENCY_S = 2.0 * QUERY_TIMEOUT_S

END_TO_END = (
    ("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"),
    ("sim_latency_p50_s", "s"), ("sim_latency_p90_s", "s"),
    ("post_accuracy", "fraction"), ("energy_per_query_mj", "mJ"),
    ("complete_share", "fraction"), ("goodput_qps", "1/s"),
)

#: per-layer counts: metric name -> (source, key) in the traced record
LAYER_COUNTS = {
    "sim.events": ("counts", "sim.events_measured"),
    "beacons.node_table_syncs":
        ("calls", "BatchedBeaconEngine.sync_node_table"),
    "beacons.evictions": ("counts", "beacons.evictions"),
    "mac.frames_sent": ("counts", "mac.frames_sent"),
    "mac.frames_delivered": ("counts", "mac.frames_delivered"),
    "mac.lost_collision": ("counts", "mac.frames_lost_collision"),
    "mac.unicast_retries": ("counts", "mac.unicast_retries"),
    "mac.unicast_failures": ("counts", "mac.unicast_failures"),
    "network.messages_sent": ("counts", "network.messages_sent"),
    "network.deliveries": ("counts", "network.deliveries"),
    "energy.charges": ("calls", "EnergyLedger.charge_*"),
    "gpsr.routes": ("calls", "GpsrRouter.send"),
    "gpsr.deliveries": ("counts", "gpsr.deliveries"),
    "gpsr.drops": ("counts", "gpsr.drops"),
    "diknn.qnode_hops": ("counts", "diknn.qnode_hops"),
    "diknn.voids": ("counts", "diknn.voids"),
    "diknn.requeries": ("counts", "diknn.requeries"),
    "service.shed": ("counts", "service.shed"),
    "service.retries": ("counts", "service.retries"),
    "service.breaker_opens": ("counts", "service.breaker_opens"),
    "faults.crashes": ("counts", "faults.crashes"),
    "faults.recoveries": ("counts", "faults.recoveries"),
    "faults.blackout_kills": ("counts", "faults.blackout_kills"),
    "obs.promoted": ("counts", "obs.promoted"),
    "metrics.oracle_calls": ("calls", "true_knn"),
}


class PartFailed(RuntimeError):
    """A part's interpreter crashed, timed out or printed no record."""


def run_part(workload: str, seed: int, part: int, deadline: float,
             trace: bool = False, setups: int = 1) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--part", str(part), "--setups", str(setups)]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise PartFailed(f"{workload} part {part}: no time left")
    t0 = time.monotonic()
    try:
        # run() kills the child on timeout and waits for it to end
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise PartFailed(f"{workload} part {part}: timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise PartFailed(f"{workload} part {part}: exit "
                         f"{proc.returncode}: {' | '.join(tail)}")
    record = json.loads(lines[-1])
    record["process_s"] = time.monotonic() - t0
    return record


def parts_for(workload: str, seconds: int) -> int:
    spec = WORKLOADS[workload]
    return max(MIN_PARTS, round(spec.parts * seconds / REFERENCE_SECONDS))


def end_to_end(records: List[dict],
               planned: int) -> Dict[str, Tuple[float, str]]:
    """Pool the parts' queries into the end-to-end metrics; ``wall_s``
    is scaled to ``planned`` parts if fewer ran."""
    latency = [UNANSWERED_LATENCY_S if v is None else v
               for r in records for v in r["latency"]]
    n = len(latency)
    useful = sum(sum(r["useful"]) for r in records)
    values = {
        "wall_s": sum(r["wall_s"] for r in records)
                  * planned / len(records),
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"]
                                          for r in records),
        "sim_latency_p50_s": percentile(latency, 0.50),
        "sim_latency_p90_s": percentile(latency, 0.90),
        "post_accuracy": sum(sum(r["post"]) for r in records) / n,
        "energy_per_query_mj":
            1000.0 * sum(r["energy_j"] for r in records) / n,
        "complete_share": sum(sum(r["complete"]) for r in records) / n,
        "goodput_qps": useful / sum(r["span_s"] for r in records),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}


Outcome = Tuple[Dict[str, Tuple[float, str]], int, int, List[str]]


def timed_run(workload: str, seed: int, seconds: int,
              deadline: float) -> Outcome:
    """(metrics, attempted, failed, problems) of an untraced run."""
    planned = parts_for(workload, seconds)
    records: List[dict] = []
    for part in range(planned):
        longest = max((r["process_s"] for r in records), default=0.0)
        if records and time.monotonic() + PART_MARGIN * longest > deadline:
            print(f"# run limit: {len(records)} of {planned} parts ran; "
                  f"wall_s is scaled up to {planned}")
            break
        records.append(run_part(workload, seed, part, deadline,
                                setups=WORKLOADS[workload].setups))
    for r in records:
        print(f"# part {r['part']}: {len(r['latency'])} queries, "
              f"wall {r['wall_s']:.3f} s (raw {r['wall_raw_s']:.3f} s), "
              f"setup {r['setup_s']:.3f} s, digest {r['digest'][:16]}")
    return (end_to_end(records, planned),
            sum(len(r["latency"]) for r in records),
            sum(r["n_errors"] for r in records),
            [e for r in records for e in r["errors"]])


def _mismatches(first: dict, other: dict, label: str) -> List[str]:
    """Differences in behaviour between the first untraced run of a part
    and another run of it, ``label`` (each in its own fresh
    interpreter)."""
    out = []
    if first["digest"] != other["digest"]:
        out.append(f"{label}: digest {other['digest'][:16]}, first "
                   f"untraced run {first['digest'][:16]}")
    for key in sorted(set(first["counts"]) | set(other["counts"])):
        a = first["counts"].get(key)
        b = other["counts"].get(key)
        if a != b:
            out.append(f"{label}: count {key} {b}, first untraced run {a}")
    return out


def per_layer(untraced: List[dict],
              traced: List[dict]) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of the last traced run of a part, with the
    tracing overhead as the median over the untraced/traced pairs. Self
    times and the traced wall are raw host time; the overhead and the
    event rate use times scaled to the reference speed, like
    ``wall_s``."""
    untraced_walls = [r["setup_s"] + r["wall_s"] for r in untraced]
    traced_walls = [r["setup_s"] + r["wall_s"] for r in traced]
    untraced_wall_s = statistics.median(r["wall_s"] for r in untraced)
    last = traced[-1]
    trace = last["trace"]
    calls = dict(trace["calls"])
    calls["EnergyLedger.charge_*"] = sum(
        v for k, v in calls.items() if k.startswith("EnergyLedger.charge"))
    sources = {"counts": last["counts"], "calls": calls}
    traced_wall = last["setup_raw_s"] + last["wall_raw_s"]
    out: Dict[str, Tuple[float, str]] = {}
    for layer, self_s in trace["self_s"].items():
        out[f"{layer}.self_s"] = (self_s, "s")
    for name, (source, key) in LAYER_COUNTS.items():
        out[name] = (float(sources[source].get(key, 0)), "count")
    counts = last["counts"]
    out["sim.events_per_s"] = (counts["sim.events_measured"]
                               / untraced_wall_s, "1/s")
    receptions = (counts["mac.frames_delivered"]
                  + counts["mac.frames_lost_channel"]
                  + counts["mac.frames_lost_collision"])
    out["mac.delivery_ratio"] = (
        counts["mac.frames_delivered"] / receptions if receptions else 0.0,
        "fraction")
    routes = calls.get("GpsrRouter.send", 0)
    out["gpsr.delivery_ratio"] = (
        counts["gpsr.deliveries"] / routes if routes else 0.0, "fraction")
    offsets = trace["home_offsets_m"]
    out["gpsr.home_offset_p90_m"] = (
        percentile(offsets, 0.90) if offsets else 0.0, "m")
    attempts = counts.get("service.attempts", 0)
    out["service.useful_ratio"] = (
        counts.get("service.useful", 0) / attempts if attempts else 0.0,
        "fraction")
    out["service.queue_wait_p90_s"] = (
        counts.get("service.queue_wait_p90_s", 0.0), "s")
    for name in ("setup.build_s", "setup.warmup_s"):
        out[name] = (trace["inclusive"].get(name, 0.0), "s")
    out["bench.traced_wall_s"] = (traced_wall, "s")
    out["bench.unattributed_s"] = (
        traced_wall - sum(trace["self_s"].values()), "s")
    out["bench.trace_overhead_s"] = (statistics.median(
        t - u for u, t in zip(untraced_walls, traced_walls)), "s")
    return out


def traced_run(workload: str, seed: int, deadline: float) -> Outcome:
    """(metrics, attempted, failed, problems) of a traced run: part 0,
    untraced and traced in turn, so a drift in machine speed falls on
    both alike."""
    untraced: List[dict] = []
    traced: List[dict] = []
    for _ in range(TRACE_PAIRS):
        untraced.append(run_part(workload, seed, 0, deadline))
        traced.append(run_part(workload, seed, 0, deadline, trace=True))
    runs = untraced + traced
    labels = ([f"untraced run {i + 1}" for i in range(TRACE_PAIRS)]
              + [f"traced run {i + 1}" for i in range(TRACE_PAIRS)])
    mismatches = [m for r, label in zip(runs[1:], labels[1:])
                  for m in _mismatches(runs[0], r, label)]
    for u, t in zip(untraced, traced):
        print(f"# part 0: untraced {u['setup_s'] + u['wall_s']:.3f} s, "
              f"digest {u['digest'][:16]}; traced "
              f"{t['setup_s'] + t['wall_s']:.3f} s, "
              f"digest {t['digest'][:16]} (scaled)")
    return (per_layer(untraced, traced), len(traced[-1]["latency"]),
            sum(r["n_errors"] for r in runs) + bool(mismatches),
            mismatches + [e for r in runs for e in r["errors"]])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="DIKNN repository benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int,
                        default=REFERENCE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run "
              f"from the root of a repository checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            metrics, attempted, failed, problems = traced_run(
                args.workload, args.seed, deadline)
        else:
            metrics, attempted, failed, problems = timed_run(
                args.workload, args.seed, args.seconds, deadline)
    except PartFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    for problem in problems[:20]:
        print(f"# WRONG: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
