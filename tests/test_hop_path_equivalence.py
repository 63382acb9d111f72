"""The hop path's reads against the materializations they replaced.

* ``Network._receivers_for`` filters the PHY index's id/x/y columns with
  one range test and one liveness gather; it must equal the list the
  network built before from ``in_range_of`` — one ``(id, Vec2)`` per
  index entry in range, then the sender and dead nodes dropped, then
  (with shadowing) the per-link reach filter — on churning fields, for
  nodes that died inside the index's epsilon-stale window, with
  shadowing, and on the classic index before beacons start.
* ``SensorNode.neighbors()`` and ``neighbor_table`` build each entry
  with one ``Vec2``; every field must equal the entry built from three,
  and ``predicted_position`` must be bitwise the same.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultPlan, poisson_crashes
from repro.geometry import Rect, Vec2
from repro.mobility import RandomWaypointMobility, StaticMobility
from repro.net import NeighborEntry, Network, RadioModel, SensorNode
from repro.sim import Simulator

SEEDS = [1, 2, 3]
N = 60
SIDE = 90.0


def build(seed, sigma=0.0, churn=True, start=True):
    sim = Simulator(seed=seed)
    net = Network(sim, radio=RadioModel(shadowing_sigma=sigma))
    field = Rect.from_size(SIDE, SIDE)
    rng = np.random.default_rng(seed)
    for i in range(N):
        pos = Vec2(*rng.uniform(0.0, SIDE, size=2).tolist())
        mob = (RandomWaypointMobility(pos, field,
                                      sim.rng.stream(f"mobility.{i}"),
                                      max_speed=10.0)
               if i % 3 else StaticMobility(pos))
        net.add_node(SensorNode(i, mob))
    if churn:
        plan = FaultPlan().extend(poisson_crashes(
            np.random.default_rng(seed + 7), range(N), rate=0.3,
            start=0.3, duration=4.0, downtime_s=0.6))
        plan.blackout((45.0, 45.0), radius=25.0, at=2.0, duration_s=1.0)
        FaultInjector(sim, net, plan).install()
    if start:
        net.start_beacons()
    return sim, net


def old_receivers(net, sender_id, position):
    """The receiver list as the network built it from ``in_range_of``:
    index ids by ``within_ids`` with a ``position_of`` ``Vec2`` each."""
    net._sync_grid()
    grid = net._grid

    def in_range(r):
        return [(nid, grid.position_of(nid))
                for nid in grid.within_ids(position, r)]

    if net.radio.shadowing_sigma == 0.0:
        return [(nid, p) for nid, p in in_range(net.radio.range_m)
                if nid != sender_id and net.nodes[nid].alive]
    out = []
    for nid, p in in_range(net.radio.max_range_m):
        if nid == sender_id or not net.nodes[nid].alive:
            continue
        if p.distance_to(position) <= net.link_range(sender_id, nid):
            out.append((nid, p))
    return out


def as_columns(pairs):
    return ([nid for nid, _ in pairs], [p.x for _, p in pairs],
            [p.y for _, p in pairs])


def assert_receivers_match(net, sender_id):
    position = net.nodes[sender_id].position()
    expect = as_columns(old_receivers(net, sender_id, position))
    got = net._receivers_for(sender_id, position)
    assert tuple(got) == expect
    assert all(type(v) is int for v in got[0])
    assert all(type(v) is float for v in got[1] + got[2])
    return len(got[0])


@pytest.mark.parametrize("sigma", [0.0, 0.3])
@pytest.mark.parametrize("seed", SEEDS)
def test_receivers_match_on_churning_fields(seed, sigma):
    sim, net = build(seed, sigma=sigma)
    rng = np.random.default_rng(seed + 11)
    seen = dead_seen = 0
    for t in np.arange(0.05, 5.0, 0.07).tolist():
        sim.run(until=t)
        for sender in rng.choice(N, size=5, replace=False).tolist():
            seen += assert_receivers_match(net, sender)
        dead_seen += sum(not n.alive for n in net.nodes.values())
    assert seen > 200
    assert dead_seen > 0, "churn should take nodes down"


@pytest.mark.parametrize("sigma", [0.0, 0.3])
@pytest.mark.parametrize("seed", SEEDS)
def test_nodes_dead_inside_the_stale_window_are_not_receivers(seed, sigma):
    """With every node up, a send refreshes the index; a node that dies
    right after stays in it (within epsilon and nothing missing), so
    only the liveness gather keeps it off the air."""
    sim, net = build(seed, sigma=sigma, churn=False)
    sim.run(until=1.3)
    killed = 0
    for sender in range(0, N, 6):
        assert_receivers_match(net, sender)   # refresh: all alive
        grid_time = net._grid_time
        ids, _, _ = net._receivers_for(sender, net.nodes[sender].position())
        victims = ids[:2]
        for victim in victims:
            net.nodes[victim].alive = False
            killed += 1
        assert net._grid_time == grid_time
        assert all(victim in net._grid for victim in victims)
        assert_receivers_match(net, sender)
        assert not set(victims) & set(net._receivers_for(
            sender, net.nodes[sender].position())[0])
        for victim in victims:
            net.nodes[victim].alive = True
    assert killed > 10


@pytest.mark.parametrize("sigma", [0.0, 0.3])
def test_receivers_match_before_beacons_start(sigma):
    """The classic (pre-beacon) index answers as before, including
    nodes that are down."""
    sim, net = build(4, sigma=sigma, churn=False, start=False)
    for nid in range(0, N, 5):
        net.nodes[nid].alive = False
    sim.run(until=0.2)
    assert net._grid.columns() is None
    for sender in range(1, N, 4):
        assert_receivers_match(net, sender)
    assert net._grid.columns() is None


def test_in_range_of_matches_the_index():
    sim, net = build(5)
    sim.run(until=2.2)
    for nid in range(0, N, 7):
        position = net.nodes[nid].position()
        for r in (None, 35.0, 0.0, -1.0):
            radius = net.radio.range_m if r is None else r
            net._sync_grid()
            expect = ([] if radius < 0 else
                      [(i, net._grid.position_of(i))
                       for i in net._grid.within_ids(position, radius)])
            assert net.in_range_of(position, r) == expect


# -- neighbor entries ------------------------------------------------------

def old_entries(net, row, now=None):
    """Entries as materialized with three ``Vec2``s each (the
    ``NeighborEntry`` dataclass fields): ``(node_id, position, speed,
    heard_at, beacon_position, velocity)``."""
    cols, t, bx, by, sp, vx, vy = row
    px, py = bx, by
    if now is not None:
        age = np.maximum(now - t, 0.0)
        px, py = bx + vx * age, by + vy * age
    ids = net._neighbor_table.ids[cols].tolist()
    return [(i, Vec2(x, y), s, h, Vec2(b, c), Vec2(u, w))
            for i, x, y, s, h, b, c, u, w in zip(
                ids, px.tolist(), py.tolist(), sp.tolist(), t.tolist(),
                bx.tolist(), by.tolist(), vx.tolist(), vy.tolist())]


def fields(entry):
    return (entry.node_id, entry.position, entry.speed, entry.heard_at,
            entry.beacon_position, entry.velocity)


def hexed(v):
    return (v.x.hex(), v.y.hex())


def scalar_prediction(beacon, velocity, heard_at, now):
    """``predicted_position`` as computed from the ``Vec2`` fields."""
    age = max(0.0, now - heard_at)
    return Vec2(beacon.x + velocity.x * age, beacon.y + velocity.y * age)


@pytest.mark.parametrize("seed", SEEDS)
def test_neighbor_entries_match_old_materialization(seed):
    sim, net = build(seed)
    rng = np.random.default_rng(seed + 3)
    checked = 0
    for t in np.arange(0.6, 4.5, 0.29).tolist():
        sim.run(until=t)
        now = sim.now
        for nid in rng.choice(N, size=6, replace=False).tolist():
            node = net.nodes[nid]
            table = node.neighbor_table
            row = node._row()
            assert [fields(e) for e in table.values()] == \
                old_entries(net, row)
            stale = now - row[1] > net.neighbor_timeout
            kept = tuple(a[~stale] for a in row)
            expect = old_entries(net, kept, now)
            got = node.neighbors()
            assert [fields(e) for e in got] == expect
            for e, (_i, _p, _s, h, b, v) in zip(got, expect):
                for later in (now, now + 0.13, h - 1.0):
                    assert hexed(e.predicted_position(later)) == \
                        hexed(scalar_prediction(b, v, h, later))
            checked += len(got)
    assert checked > 300


def test_public_constructor_and_equality():
    p = Vec2(3.0, 4.0)
    e = NeighborEntry(7, p, 0.0, 0.0)
    assert e.beacon_position == p and e.velocity == Vec2(0.0, 0.0)
    assert e.predicted_position(5.0) == p
    assert e == NeighborEntry(7, Vec2(3.0, 4.0), 0.0, 0.0)
    assert e != NeighborEntry(8, p, 0.0, 0.0)
    full = NeighborEntry(1, Vec2(1.0, 1.0), 2.0, 0.5,
                         beacon_position=Vec2(0.0, 0.5),
                         velocity=Vec2(2.0, -1.0))
    assert full.beacon_position == Vec2(0.0, 0.5)
    assert full.velocity == Vec2(2.0, -1.0)
    assert full.predicted_position(1.5) == Vec2(2.0, -0.5)
    assert full != NeighborEntry(1, Vec2(1.0, 1.0), 2.0, 0.5,
                                 beacon_position=Vec2(0.0, 0.5))
    assert "beacon_position=Vec2(x=0.0, y=0.5)" in repr(full)
    assert (e == "entry") is False
    with pytest.raises(TypeError):
        hash(e)
    e.position = Vec2(9.0, 9.0)
    assert e.position == Vec2(9.0, 9.0) and e.beacon_position == p
