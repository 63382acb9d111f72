"""Differential proof of the batched beacon kernel.

The equivalence argument for ``repro.net.beacons`` is executable: on
randomized deployments (uniform / clustered / caribou, static and
mobile, with muted and dead nodes mixed in), the batched epoch kernel
and the one-event-per-beacon reference model (``tests/beacon_reference``)
must produce *identical* neighbor tables, beacon counts and
beacon-energy ledger totals at every beacon-interval boundary.
"Identical" means bitwise — same heard_at floats, same positions, same
velocities, same per-account tx/rx joules.

Plain seeded numpy sweeps rather than a property-testing framework keep
the suite dependency-light and the failures reproducible by seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.deploy import (CaribouDeployment, ClusteredDeployment,
                          UniformDeployment)
from repro.faults import FaultInjector, FaultPlan, poisson_crashes
from repro.geometry import Rect, Vec2
from repro.mobility import (GaussMarkovMobility, RandomWalkMobility,
                            RandomWaypointMobility, StaticMobility)
from repro.net import Network, RadioModel, SensorNode
import repro.net.beacons as beacons
from repro.net.beacons import BatchedBeaconEngine, MobilityBank
from repro.sim import Simulator

from tests.beacon_reference import ReferenceBeacons

SEEDS = (0, 1, 2)

_DEPLOYMENTS = {
    "uniform": UniformDeployment,
    "clustered": ClusteredDeployment,
    "caribou": CaribouDeployment,
}


def _rng(seed):
    return np.random.default_rng(seed)


def build_network(kernel, seed, n_nodes, deployment="uniform", mobile=True,
                  side=70.0, loss=0.0, sigma=0.0):
    """One network, identical for either kernel, and the object whose
    ``start_beacons``/``stop_beacons``/``start_neighbor_sweep`` drive
    its beacons: the network itself (``"batched"``) or the reference
    model (``"reference"``)."""
    sim = Simulator(seed=seed)
    net = Network(sim, radio=RadioModel(base_loss_rate=loss,
                                        shadowing_sigma=sigma))
    field = Rect.from_size(side, side)
    positions = _DEPLOYMENTS[deployment]().generate(
        n_nodes, field, sim.rng.stream("deploy"))
    for i, pos in enumerate(positions):
        if mobile and i % 2 == 0:
            mob = RandomWaypointMobility(pos, field,
                                         sim.rng.stream(f"mobility.{i}"),
                                         max_speed=10.0)
        else:
            mob = StaticMobility(pos)
        net.add_node(SensorNode(i, mob))
    if kernel == "reference":
        return sim, net, ReferenceBeacons(net)
    assert kernel == "batched", kernel
    return sim, net, net


def beacon_state(net):
    """Everything the equivalence contract covers, exactly."""
    tables = {}
    for nid, node in net.nodes.items():
        tables[nid] = {
            k: (e.heard_at, e.beacon_position.x, e.beacon_position.y,
                e.speed, e.velocity.x, e.velocity.y)
            for k, e in node.neighbor_table.items()}
    ledger = net.ledger
    energy = {nid: (ledger.account(nid, "beacon_charge").tx_j,
                    ledger.account(nid, "beacon_charge").rx_j)
              for nid in net.nodes}
    return {
        "tables": tables,
        "energy": energy,
        "ledger_total": ledger.total_j("beacon_charge"),
        "beacons_sent": net.stats.beacons_sent,
    }


def assert_states_equal(reference, batched, context=""):
    for key in reference:
        assert reference[key] == batched[key], (
            f"{context}: beacon state {key!r} diverged")


def run_boundaries(kernel, boundaries, seed, **kwargs):
    sim, net, driver = build_network(kernel, seed, **kwargs)
    driver.start_beacons()
    out = []
    for t in boundaries:
        sim.run(until=t)
        out.append(beacon_state(net))
    return out


def _compare(boundaries, seed, **kwargs):
    reference = run_boundaries("reference", boundaries, seed, **kwargs)
    batched = run_boundaries("batched", boundaries, seed, **kwargs)
    for t, r, b in zip(boundaries, reference, batched):
        assert_states_equal(r, b, context=f"t={t} seed={seed}")


# -- randomized deployments -------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("deployment", sorted(_DEPLOYMENTS))
def test_equal_at_every_boundary_mobile(seed, deployment):
    n = int(_rng(seed).integers(10, 60))
    _compare([0.5, 1.0, 1.5, 2.0, 3.0], seed, n_nodes=n,
             deployment=deployment, mobile=True)


@pytest.mark.parametrize("seed", SEEDS)
def test_equal_static_dense(seed):
    _compare([0.5, 1.0, 2.5], seed, n_nodes=80, mobile=False, side=50.0)


@pytest.mark.parametrize("seed", SEEDS)
def test_equal_with_channel_loss(seed):
    """Loss draws consume the per-receiver RNG in the same order."""
    _compare([0.5, 1.5, 3.0], seed, n_nodes=40, mobile=True, loss=0.25)


@pytest.mark.parametrize("seed", SEEDS)
def test_equal_with_shadowing(seed):
    _compare([0.5, 1.5, 3.0], seed, n_nodes=40, mobile=True, sigma=0.4)


def test_equal_large_population():
    _compare([0.5, 1.0, 2.0], 1, n_nodes=200, side=115.0, mobile=True)


# -- muted and dead nodes ---------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_equal_with_muted_and_dead_mix(seed):
    """Dead and muted nodes still draw jitter (a skipped fire still
    reschedules), so downstream RNG stays aligned."""
    def run(kernel):
        sim, net, driver = build_network(kernel, seed, n_nodes=40,
                                         mobile=True)
        rng = _rng(seed + 100)
        muted = rng.choice(40, size=6, replace=False).tolist()
        dead = rng.choice(40, size=4, replace=False).tolist()
        net.mute_beacons(int(i) for i in muted)
        for i in dead:
            net.nodes[int(i)].alive = False
        driver.start_beacons()
        out = []
        for t in (0.5, 1.0, 2.0, 3.5):
            sim.run(until=t)
            out.append(beacon_state(net))
        return out

    for r, b in zip(run("reference"), run("batched")):
        assert_states_equal(r, b, context=f"seed={seed}")


@pytest.mark.parametrize("seed", SEEDS)
def test_equal_under_sweep_eviction(seed):
    """Proactive staleness sweeps evict identically in both kernels."""
    def run(kernel):
        sim, net, driver = build_network(kernel, seed, n_nodes=30,
                                         mobile=True)
        driver.start_beacons()
        driver.start_neighbor_sweep()
        sim.run(until=1.0)
        net.mute_beacons(range(0, 30, 3))   # let some tables rot
        sim.run(until=4.0)
        return beacon_state(net), net.neighbor_evictions

    (rs, re), (bs, be) = run("reference"), run("batched")
    assert_states_equal(rs, bs, context=f"seed={seed}")
    assert re == be


def test_stop_beacons_drains_in_flight():
    """Beacons in the air when beaconing stops still get delivered."""
    def run(kernel):
        sim, net, driver = build_network(kernel, 2, n_nodes=30,
                                         mobile=True)
        driver.start_beacons()
        sim.run(until=1.2)
        driver.stop_beacons()
        sim.run(until=2.0)
        return beacon_state(net)

    assert_states_equal(run("reference"), run("batched"))


def test_restart_beacons_reuses_engine():
    """stop_beacons() then start_beacons() resumes the one engine: its
    banked beacon energy, cached jitter draws and neighbor store carry
    over, exactly as restarted per-node tasks resume their streams."""
    engines = []

    def run(kernel):
        sim, net, driver = build_network(kernel, 2, n_nodes=30,
                                         mobile=True)
        driver.start_beacons()
        engines.append(net._beacon_engine)
        sim.run(until=1.2)
        driver.stop_beacons()
        sim.run(until=2.0)
        driver.start_beacons()
        engines.append(net._beacon_engine)
        sim.run(until=3.1)
        return beacon_state(net), sim.events_executed

    (ref_state, ref_events), (state, events) = \
        run("reference"), run("batched")
    assert_states_equal(ref_state, state)
    # Every event the reference runs is credited; the only extra ones
    # are the epochs at 0.5, 1.0, 2.5 and 3.0 s and at most one drain.
    assert ref_events <= events <= ref_events + 5
    assert engines[:2] == [None, None] and engines[2] is engines[3]


@pytest.mark.parametrize("seed", SEEDS)
def test_equal_under_reads_forgets_resets_and_sweeps(seed):
    """Prune-on-read, forgets, table wipes and the whole-store sweep,
    interleaved mid-interval, leave identical tables and eviction
    counts in both kernels."""
    compare_reads_forgets_resets_and_sweeps(seed)


def compare_reads_forgets_resets_and_sweeps(seed):
    """The body of the test above, shared with the sparse store's."""
    n = 30

    def run(kernel):
        sim, net, driver = build_network(kernel, seed, n_nodes=n,
                                         mobile=True)
        driver.start_beacons()
        driver.start_neighbor_sweep()
        rng = _rng(seed + 200)
        out = []
        for step in range(1, 17):
            sim.run(until=0.3 * step)
            # Writes first, while deliveries since the last read are
            # still pending in the batched kernel; a wipe leads every
            # third step.
            if step % 3 == 0:
                net.nodes[int(rng.integers(0, n))].reset_neighbors()
            for hearer in rng.choice(n, size=3, replace=False).tolist():
                node = net.nodes[hearer]
                here = node.position()
                near = [other.id for other in net.nodes.values()
                        if other.id != hearer and other.position()
                        .distance_to(here) <= net.radio.range_m]
                if near:
                    node.forget_neighbor(int(rng.choice(near)))
            if step == 4:
                net.mute_beacons(range(0, n, 4))  # let some tables rot
            if step == 6:
                net.nodes[5].alive = False
            for nid in rng.choice(n, size=8, replace=False).tolist():
                net.nodes[nid].neighbors()
            net.nodes[int(rng.integers(0, n))].neighbors(max_age=0.6)
            out.append((beacon_state(net), net.neighbor_evictions))
        return out

    reference, batched = run("reference"), run("batched")
    for step, ((rs, re), (bs, be)) in enumerate(zip(reference, batched), 1):
        assert_states_equal(rs, bs, context=f"seed={seed} step={step}")
        assert re == be, f"seed={seed} step={step}: evictions diverged"
    assert reference[-1][1] > 0, "the sweep should have evicted something"


@pytest.mark.parametrize("seed", SEEDS)
def test_equal_under_protocol_range_reads(seed):
    """Protocol traffic reads the PHY index between beacons
    (``in_range_of`` on every send); the beacon kernel keeps its own
    position snapshot, so those reads never move a beacon's receivers."""
    n = 30

    def run(kernel):
        sim, net, driver = build_network(kernel, seed, n_nodes=n,
                                         mobile=True)
        driver.start_beacons()
        rng = _rng(seed + 300)
        out = []
        for step in range(1, 41):
            sim.run(until=0.05 * step)
            for nid in rng.choice(n, size=3, replace=False).tolist():
                net.in_range_of(net.nodes[nid].position())
            out.append(beacon_state(net))
        return out

    for step, (r, b) in enumerate(zip(run("reference"), run("batched")), 1):
        assert_states_equal(r, b,
                            context=f"seed={seed} t={0.05 * step:.2f}")


# -- RNG discipline ---------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_vector_draws_match_scalar_draws(seed):
    """The batched loss filter leans on ``Generator.random(n)`` consuming
    the PCG64 stream exactly like n scalar ``random()`` calls."""
    a = np.random.default_rng(seed).random(64)
    gen = np.random.default_rng(seed)
    b = np.array([gen.random() for _ in range(64)])
    assert a.tolist() == b.tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_block_draws_match_scalar_draws(seed):
    """The jitter block cache leans on ``Generator.uniform(lo, hi, n)``
    consuming the PCG64 stream exactly like n scalar ``uniform`` calls,
    including when block and scalar draws are interleaved on one
    stream."""
    jit = 0.025
    a = np.random.default_rng(seed).uniform(-jit, jit, 64)
    gen = np.random.default_rng(seed)
    b = np.array([gen.uniform(-jit, jit) for _ in range(64)])
    assert a.tolist() == b.tolist()

    # Mixed block/scalar consumption stays aligned with all-scalar.
    g1 = np.random.default_rng(seed)
    mixed = list(g1.uniform(-jit, jit, 32))
    mixed.append(g1.uniform(-jit, jit))
    mixed.extend(g1.uniform(-jit, jit, 31))
    g2 = np.random.default_rng(seed)
    scalar = [g2.uniform(-jit, jit) for _ in range(64)]
    assert [float(x) for x in mixed] == scalar


@pytest.mark.parametrize("seed", SEEDS)
def test_mobility_bank_matches_scalar_models(seed):
    """Bank kinematics are bit-identical to position_at/velocity_at."""
    field = Rect.from_size(100.0, 100.0)
    rng = _rng(seed)
    sim = Simulator(seed=seed)
    models = []
    for i in range(12):
        pos = Vec2(float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
        if i % 3 == 0:
            models.append(StaticMobility(pos))
        else:
            models.append(RandomWaypointMobility(
                pos, field, sim.rng.stream(f"mobility.{i}"),
                max_speed=float(rng.uniform(1, 12))))
    bank = MobilityBank(list(models))
    times = np.sort(rng.uniform(0.0, 30.0, size=40))
    for t in times.tolist():
        idx = np.arange(len(models))
        px, py, sp, vx, vy = bank.kinematics_at(
            idx, np.full(len(models), t))
        for i, m in enumerate(models):
            p = m.position_at(t)
            v = m.velocity_at(t)
            assert (px[i], py[i]) == (p.x, p.y), (i, t)
            assert sp[i] == m.speed_at(t)
            assert (vx[i], vy[i]) == (v.x, v.y)


def test_event_accounting_credited():
    """The batched kernel credits the collapsed per-beacon events, so
    events_executed stays comparable with the reference model (the
    epoch events themselves are the only overhead)."""
    def run(kernel):
        sim, net, driver = build_network(kernel, 3, n_nodes=25,
                                         mobile=False)
        driver.start_beacons()
        sim.run(until=4.0)
        return sim.events_executed

    reference, batched = run("reference"), run("batched")
    epochs = 8  # 4.0s / 0.5s interval
    assert reference <= batched <= reference + epochs


def _kernel_own_events(sim):
    """The batched kernel's own kernel events (epochs and the drain
    after a stop), which stand for no per-event-model event."""
    seen = []

    def on_event(_time, callback):
        if getattr(callback, "__qualname__", "").startswith(
                "BatchedBeaconEngine."):
            seen.append(callback)

    sim.probe.subscribe("kernel", on_event)
    return seen


def _reference_in_flight(sim):
    """Reference deliveries scheduled but not yet run: the batched
    kernel credits a frame's delivery event when the frame is sent."""
    return sum(1 for _t, _s, e in sim._queue if not e.cancelled
               and e.callback.__qualname__.endswith(
                   "._fire.<locals>.<lambda>"))


@pytest.mark.parametrize("restart", [False, True])
def test_flushed_event_count_matches_reference(restart):
    """After a flush, ``events_executed`` less the kernel's own epoch and
    drain events equals the per-event model's count (deliveries in the
    air included) at arbitrary stop times — across a stop and restart
    too, where a bare ``sim.run`` read lags."""
    stops = sorted(_rng(11).uniform(0.05, 3.1, size=14).tolist())
    stops.append(3.1)

    def run(kernel):
        sim, net, driver = build_network(kernel, 2, n_nodes=30,
                                         mobile=True)
        own = _kernel_own_events(sim)
        driver.start_beacons()
        phase = 0
        counts = []
        for t in stops:
            if restart and phase == 0 and t >= 1.2:
                sim.run(until=1.2)
                driver.stop_beacons()
                phase = 1
            if restart and phase == 1 and t >= 2.0:
                sim.run(until=2.0)
                driver.start_beacons()
                phase = 2
            sim.run(until=t)
            if kernel == "reference":
                counts.append(sim.events_executed + _reference_in_flight(sim))
            else:
                net.flush_beacons()
                counts.append(sim.events_executed - len(own))
        return counts

    reference, batched = run("reference"), run("batched")
    assert batched == reference, list(zip(stops, reference, batched))


# -- mid-interval observation purity ---------------------------------------

def schedule_protocol_charges(sim, net, seed, n, until):
    """Protocol receptions at random times and nodes, charged straight
    to the ledger: with a battery armed they interleave with the beacon
    fires' charges on one budget."""
    rng = _rng(seed + 700)
    times = np.sort(rng.uniform(0.05, until, size=3 * n)).tolist()
    for t, nid, bits in zip(times, rng.integers(0, n, size=len(times)),
                            rng.integers(500, 4000, size=len(times))):
        sim.schedule_at(t, lambda nid=int(nid), bits=int(bits):
                        net.ledger.charge_rx(nid, bits))


def record_deaths(net):
    """The ids the battery kills, in order, as a list that grows."""
    deaths = []
    kill = net.ledger.on_depleted
    net.ledger.on_depleted = lambda nid: (deaths.append(nid), kill(nid))
    return deaths


def _compare_polled(seed, battery):
    """Boundary states (and battery deaths, in order) of one run left
    alone and one whose tables are read mid-interval, compared."""
    n = 30

    def run(poll):
        sim, net, _ = build_network("batched", seed, n_nodes=n,
                                    mobile=True)
        deaths = []
        if battery:
            net.enable_batteries(6e-4)
            deaths = record_deaths(net)
            schedule_protocol_charges(sim, net, seed, n, until=2.0)
        net.start_beacons()
        out = []
        for t in (0.5, 1.0, 1.5, 2.0):
            if poll:
                for t_read in (t - 0.37, t - 0.2, t - 0.06):
                    sim.run(until=t_read)
                    for node in net.nodes.values():
                        # Observer-triggered flush + materialization.
                        # (Not ``neighbors()``: that evicts stale
                        # entries as a documented side effect, in both
                        # kernels alike.)
                        dict(node.neighbor_table)
                    net.ledger.total_j("beacon_charge")
            sim.run(until=t)
            out.append((beacon_state(net), list(deaths)))
        return out

    clean, polled = run(False), run(True)
    for i, ((cs, cd), (ps, pd)) in enumerate(zip(clean, polled)):
        context = f"seed={seed} boundary={i}"
        assert_states_equal(cs, ps, context=context)
        assert cd == pd, f"{context}: deaths diverged"
    if battery:
        assert 0 < len(clean[-1][1]) < n, "the battery should thin the field"


@pytest.mark.parametrize("seed", SEEDS)
def test_mid_interval_reads_do_not_perturb(seed):
    """flush() is a pure function of (state, time): reading neighbor
    tables mid-interval must not change any boundary state."""
    _compare_polled(seed, battery=False)


@pytest.mark.parametrize("seed", SEEDS)
def test_mid_interval_reads_do_not_perturb_deaths(seed):
    """With a battery armed and protocol charges landing between beacon
    fires, mid-interval reads must not change which nodes die, or in
    which order, either."""
    _compare_polled(seed, battery=True)


# -- the whole-flush path under churn ---------------------------------------

@pytest.fixture
def whole_flushes(monkeypatch):
    """Engine state at the entry of every whole-flush call, as pairs
    (everyone alive, first fire reuses the pre-flush snapshot)."""
    calls = []
    resolve = BatchedBeaconEngine._process_whole_flush

    def spy(engine, tf, tf_list, *args):
        reuse = (engine._snap_full
                 and tf_list[0] - engine.snap_t
                 < engine.net.position_epsilon)
        calls.append((bool(engine.alive_mask.all()), reuse))
        return resolve(engine, tf, tf_list, *args)

    monkeypatch.setattr(BatchedBeaconEngine, "_process_whole_flush", spy)
    return calls


@pytest.mark.parametrize("seed", SEEDS)
def test_equal_under_churn_with_reads_resets_and_sweeps(seed,
                                                        whole_flushes):
    """Poisson crash/recovery plus a blackout keep many nodes down at
    flush start, so every fast dense flush resolves with a partial
    snapshot; mid-interval reads, table wipes and sweeps force flushes
    at arbitrary times.  Tables, energy and evictions match the
    reference at every boundary."""
    reference = run_churn("reference", seed)
    assert not whole_flushes
    batched = run_churn("batched", seed)
    assert_churn_runs_equal(seed, reference, batched)
    with_dead = sum(1 for all_alive, _ in whole_flushes if not all_alive)
    assert with_dead >= 20, "churn should keep nodes down at flush start"


def run_churn(kernel, seed):
    """Boundary states and eviction counts of one churn run with
    mid-interval reads, wipes and sweeps."""
    n = 40
    sim, net, driver = build_network(kernel, seed, n_nodes=n, mobile=True)
    plan = FaultPlan().extend(poisson_crashes(
        _rng(seed + 400), range(n), rate=0.3, start=0.2,
        duration=4.5, downtime_s=0.7))
    plan.blackout((35.0, 35.0), radius=20.0, at=1.7, duration_s=1.2)
    driver.start_beacons()
    driver.start_neighbor_sweep()
    FaultInjector(sim, net, plan).install()
    rng = _rng(seed + 500)
    out = []
    for boundary in np.arange(0.5, 5.01, 0.5).tolist():
        sim.run(until=boundary - 0.31)
        for nid in rng.choice(n, size=6, replace=False).tolist():
            net.nodes[nid].neighbors()
        sim.run(until=boundary - 0.17)
        net.nodes[int(rng.integers(0, n))].reset_neighbors()
        net.nodes[int(rng.integers(0, n))].neighbors(max_age=0.6)
        sim.run(until=boundary)
        out.append((beacon_state(net), net.neighbor_evictions))
    return out


def assert_churn_runs_equal(seed, reference, batched):
    for i, ((rs, re), (bs, be)) in enumerate(zip(reference, batched)):
        assert_states_equal(rs, bs, context=f"seed={seed} boundary={i}")
        assert re == be, f"seed={seed} boundary={i}: evictions diverged"


@pytest.mark.parametrize("seed", SEEDS)
def test_equal_with_full_snapshot_stale_across_death(seed, whole_flushes):
    """A full snapshot keeps serving within epsilon after a node dies:
    the fires it serves must drop the dead receiver through the current
    liveness, exactly as the reference model's alive check does."""
    n = 30

    def run(kernel):
        sim, net, driver = build_network(kernel, seed, n_nodes=n,
                                         mobile=False, side=40.0)
        net.position_epsilon = 0.2     # a wide reuse window
        driver.start_beacons()
        out = []
        for k, t_kill in enumerate((1.013, 1.527, 2.061)):
            sim.run(until=t_kill - 0.004)
            net.nodes[0].neighbors()       # flush: a fresh full snapshot
            sim.run(until=t_kill)
            net.nodes[5 + k].alive = False  # full, now stale
            sim.run(until=t_kill + 0.02)
            net.nodes[1].neighbors()
            sim.run(until=t_kill + 0.3)
            out.append(beacon_state(net))
        return out

    for i, (r, b) in enumerate(zip(run("reference"), run("batched"))):
        assert_states_equal(r, b, context=f"seed={seed} kill={i}")
    assert any(not all_alive and reuse
               for all_alive, reuse in whole_flushes), \
        "no flush reused a full snapshot across a death"


# -- the per-charge battery path --------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("loss", [0.0, 0.1])
def test_equal_with_batteries(seed, loss):
    """An armed battery puts the kernel on its per-charge path, and
    beacon traffic kills nodes in the middle of a flush.  Every third
    node starts with protocol energy already spent, and more protocol
    receptions land between beacon fires, so deaths come from the one
    budget over both ledger parts.  Deaths and their order, tables and
    per-node beacon energy match the reference at every boundary."""
    n = 40

    def run(kernel):
        sim, net, driver = build_network(kernel, seed, n_nodes=n,
                                         mobile=True, loss=loss)
        net.enable_batteries(8e-4)
        for nid in range(0, n, 3):
            net.ledger.charge_rx(nid, 2000 * (nid % 5))
        deaths = record_deaths(net)
        schedule_protocol_charges(sim, net, seed, n, until=4.0)
        driver.start_beacons()
        out = []
        for t in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0):
            sim.run(until=t)
            out.append((beacon_state(net), list(deaths),
                        [node.alive for node in net.nodes.values()]))
        return out

    reference, batched = run("reference"), run("batched")
    for i, ((rs, rd, ra), (bs, bd, ba)) in enumerate(zip(reference,
                                                          batched)):
        context = f"seed={seed} loss={loss} boundary={i}"
        assert_states_equal(rs, bs, context=context)
        assert rd == bd, f"{context}: deaths diverged"
        assert ra == ba, f"{context}: liveness diverged"
    assert 0 < len(reference[3][1]) < n, "the battery should thin the field"


@pytest.mark.parametrize("seed", SEEDS)
def test_positions_many_matches_per_time_calls(seed):
    """One multi-time evaluation is bitwise the per-time evaluations in
    order, and leaves the bank's cached legs the same: legs ending
    inside the window (several per window here), RWP pauses, the
    zero-length leg at t = 0, static and degenerate-static nodes, and
    models with no closed form."""
    field = Rect.from_size(20.0, 20.0)

    def models():
        rng = _rng(seed)
        sim = Simulator(seed=seed)
        out = []
        for i in range(14):
            pos = Vec2(float(rng.uniform(0, 20)), float(rng.uniform(0, 20)))
            stream = sim.rng.stream(f"mobility.{i}")
            kind = i % 7
            if kind == 0:
                out.append(StaticMobility(pos))
            elif kind == 1:
                out.append(RandomWaypointMobility(pos, field, stream,
                                                  max_speed=0.0))
            elif kind == 2:
                out.append(RandomWaypointMobility(pos, field, stream,
                                                  max_speed=30.0,
                                                  pause_time=0.3))
            elif kind == 3:
                out.append(GaussMarkovMobility(pos, field, stream,
                                               mean_speed=5.0, step_s=0.4))
            elif kind == 4:
                out.append(RandomWalkMobility(pos, field, stream, speed=4.0,
                                              mean_epoch=0.5))
            else:
                out.append(RandomWaypointMobility(pos, field, stream,
                                                  max_speed=40.0))
        return out

    many = MobilityBank(models())
    each = MobilityBank(models())
    rng = _rng(seed + 600)
    start = 0.0
    for _ in range(6):
        ts = np.sort(rng.uniform(start, start + 2.0, size=17))
        ts[0] = start
        ts[5] = ts[4]                       # a repeated time
        gx, gy = many.positions_many(ts)
        for g, t in enumerate(ts.tolist()):
            px, py = each.positions_all(t)
            assert gx[g].tolist() == px.tolist(), (g, t)
            assert gy[g].tolist() == py.tolist(), (g, t)
        for name in ("t0", "t1", "ox", "oy", "dx", "dy", "v0", "v1"):
            assert getattr(many, name).tolist() == \
                getattr(each, name).tolist(), name
        start = float(ts[-1])


# -- row-scoped reads --------------------------------------------------------

@pytest.fixture(params=["dense", "sparse"])
def store(request, monkeypatch):
    """Run on either neighbor store (the sparse one forced at small N)."""
    if request.param == "sparse":
        monkeypatch.setattr(beacons, "_DENSE_MAX", 0)
    return request.param


def whole_field(net, batches):
    """What a whole-field observer sees; reading ``events_executed``
    first settles the field up to the latest row read."""
    return {
        "events": net.sim.events_executed,
        "beacons_sent": net.stats.beacons_sent,
        "beacon_batch": sum(batches),
        "evictions": net.neighbor_evictions,
        "accounts": [(nid, a.tx_j, a.rx_j) for nid, a in
                     net.ledger.accounts("beacon_charge").items()],
    }


def _row(node):
    return [(e.node_id, e.heard_at, e.position.x, e.position.y, e.speed,
             e.velocity.x, e.velocity.y) for e in node.neighbors()]


def run_row_reads(seed, flush_first):
    """Reads, wipes, forgets and sweeps under Poisson churn; with
    ``flush_first`` every read or write of a table flushes the whole
    field first (what every read did before reads were row-scoped).
    Returns every read's entries, the whole-field observations between
    reads, the boundary states, and whether any observation found the
    field behind the latest read."""
    n = 40
    sim, net, _ = build_network("batched", seed, n_nodes=n, mobile=True)
    batches = []
    sim.probe.subscribe("beacon_batch", batches.append)
    plan = FaultPlan().extend(poisson_crashes(
        _rng(seed + 800), range(n), rate=0.15, start=0.3, duration=3.5,
        downtime_s=0.6))
    net.start_beacons()
    net.start_neighbor_sweep()
    FaultInjector(sim, net, plan).install()
    rng = _rng(seed + 900)

    def before():
        if flush_first:
            net.flush_beacons()

    reads, seen, states, lagged = [], [], [], []
    for step in range(1, 41):
        sim.run(until=0.1 * step - 0.041)
        for nid in rng.choice(n, size=5, replace=False).tolist():
            before()
            reads.append(_row(net.nodes[nid]))
        sim.run(until=0.1 * step - 0.023)
        node = net.nodes[int(rng.integers(0, n))]
        before()
        if step % 4 == 0:
            node.reset_neighbors()
        else:
            node.forget_neighbor(int(rng.integers(0, n)))
        before()
        reads.append(_row(net.nodes[int(rng.integers(0, n))]))
        if step % 3 == 0:
            lagged.append(net._beacon_engine._read_t is not None)
            seen.append(whole_field(net, batches))
        if step % 5 == 0:
            sim.run(until=0.1 * step)
            before()
            states.append(beacon_state(net))
    return reads, seen, states, any(lagged)


@pytest.mark.parametrize("seed", SEEDS)
def test_row_reads_match_flushed_reads(store, seed):
    """A table read settles its own row only; a run whose every read
    flushes the whole field first must read the same rows, observe the
    same events, beacon counts, delivery-batch totals, evictions and
    bitwise beacon accounts between reads, and hold the same state at
    every boundary, on either store, with nodes crashing and
    recovering."""
    rows, seen, states, lagged = run_row_reads(seed, flush_first=False)
    f_rows, f_seen, f_states, _ = run_row_reads(seed, flush_first=True)
    assert lagged, "no observation found the field behind a row read"
    assert rows == f_rows
    for i, (a, b) in enumerate(zip(seen, f_seen)):
        for key in a:
            assert a[key] == b[key], f"{store} seed={seed} obs {i}: {key}"
    for i, (a, b) in enumerate(zip(states, f_states)):
        assert_states_equal(b, a, context=f"{store} seed={seed} state {i}")


@pytest.mark.parametrize("closer", ["beacon", "beacon_charge", "battery",
                                    "loss", "grow"])
def test_gate_closing_after_row_reads(store, closer):
    """Row reads buffer fires only while the fast gate holds.  When it
    closes before the next flush (a subscriber arrives, a battery is
    armed, the channel turns lossy, a node joins), the buffered reads
    settle first, as the flushes they stand for did: subscribers see
    only what comes after, and tables and energy match a run whose
    reads flushed."""
    def run(flush_first):
        sim, net, _ = build_network("batched", 4, n_nodes=30, mobile=True)
        heard = []
        net.start_beacons()
        sim.run(until=1.13)
        for nid in (3, 8, 21):
            if flush_first:
                net.flush_beacons()
            _row(net.nodes[nid])
        sim.run(until=1.19)
        if closer in ("beacon", "beacon_charge"):
            sim.probe.subscribe(closer, lambda *a: heard.append(a))
        elif closer == "battery":
            net.enable_batteries(1.0)
        elif closer == "loss":
            net.mac.loss_overlay_at = lambda t: 0.2
        else:
            net.add_node(SensorNode(30, StaticMobility(Vec2(35.0, 35.0))))
        sim.run(until=2.0)
        return beacon_state(net), heard, net.sim.events_executed

    assert run(False) == run(True)


def test_row_read_settles_only_its_row(monkeypatch):
    """On the fast path a read generates and buffers the fires due, but
    resolves none of them for the field and writes only the reader's
    row; the other rows catch up when the field settles."""
    sim, net, _ = build_network("batched", 1, n_nodes=30, mobile=True)
    net.start_beacons()
    sim.run(until=1.0)
    engine = net._beacon_engine
    resolved = []
    monkeypatch.setattr(engine, "_resolve_buffer",
                        lambda: resolved.append(1) or 0)
    sim.run(until=1.2)

    def others():
        return [[a.tolist() for a in engine.store.row(i)]
                for i in range(30) if i != 7]

    before, mine = others(), engine.store.row(7)[1].tolist()
    _row(net.nodes[7])
    assert engine._read_t == sim.now and engine._buf_n > 0
    assert not resolved and others() == before
    assert engine.store.row(7)[1].tolist() != mine
    monkeypatch.undo()
    engine.settle()
    assert engine._read_t is None and engine._buf_n == 0
    assert others() != before


# -- delivery order and first charges ----------------------------------------

def run_heard(kernel, seed):
    """Every ``(receiver, sender, t)`` a ``beacon`` subscriber is told,
    in order, over a mobile field with Poisson crashes and recoveries,
    mid-interval reads and a table wipe."""
    n = 40
    sim, net, driver = build_network(kernel, seed, n_nodes=n, mobile=True)
    heard = []
    sim.probe.subscribe("beacon", lambda *pair: heard.append(pair))
    plan = FaultPlan().extend(poisson_crashes(
        _rng(seed + 1000), range(n), rate=0.2, start=0.2, duration=3.0,
        downtime_s=0.5))
    driver.start_beacons()
    FaultInjector(sim, net, plan).install()
    rng = _rng(seed + 1100)
    for step in range(1, 8):
        sim.run(until=0.5 * step - 0.21)
        for nid in rng.choice(n, size=4, replace=False).tolist():
            net.nodes[nid].neighbors()
        net.nodes[int(rng.integers(0, n))].reset_neighbors()
    sim.run(until=4.0)
    return heard


@pytest.mark.parametrize("seed", SEEDS)
def test_beacon_subscribers_hear_fire_by_fire(seed, monkeypatch):
    """A ``beacon`` subscriber is told of deliveries fire by fire,
    receivers ascending, as one event per delivered frame would tell
    it: on the dense store, on the sparse store (whose group records
    are in store-key order) and in the reference model alike."""
    reference = run_heard("reference", seed)
    dense = run_heard("batched", seed)
    monkeypatch.setattr(beacons, "_DENSE_MAX", 0)
    sparse = run_heard("batched", seed)
    assert reference, "nothing was delivered"
    assert dense == reference
    assert sparse == reference


def first_epoch_accounts(seed, sequential):
    """Beacon-part accounts after the first flushes of a field with dead
    and muted nodes: ids in creation order, each account's energy, and
    the part's total.  ``sequential`` forces the sequential loop with a
    ``beacon_charge`` subscriber."""
    n = 40
    sim, net, _ = build_network("batched", seed, n_nodes=n, mobile=True)
    rng = _rng(seed + 1200)
    for nid in rng.choice(n, size=5, replace=False).tolist():
        net.nodes[nid].alive = False
    net.mute_beacons(rng.choice(n, size=4, replace=False).tolist())
    if sequential:
        sim.probe.subscribe("beacon_charge", lambda *charge: None)
    net.start_beacons()
    sim.run(until=0.26)
    net.nodes[int(rng.integers(0, n))].neighbors()
    sim.run(until=1.2)
    ledger = net.ledger
    accounts = ledger.accounts("beacon_charge")
    return ([(nid, a.tx_j, a.rx_j) for nid, a in accounts.items()],
            ledger.total_j("beacon_charge"))


@pytest.mark.parametrize("seed", SEEDS)
def test_first_flush_creates_accounts_in_charge_order(store, seed):
    """Warm-up's first flushes take the fast path and create the
    beacon-part accounts themselves: in the order the sequential loop
    charges them (fire by fire, the sender, then its receivers
    ascending), so the part's account order and its float total are
    bitwise those of a run forced down that loop."""
    fast, total = first_epoch_accounts(seed, sequential=False)
    slow, slow_total = first_epoch_accounts(seed, sequential=True)
    assert [a[0] for a in fast] != sorted(a[0] for a in fast), \
        "creation order should not be id order"
    assert fast == slow
    assert total == slow_total
