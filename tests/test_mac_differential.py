"""The MAC frame path against its per-receiver reference model.

``MacLayer._resolve_frame`` decides every frame's receptions in one pass
and charges them with one ``EnergyLedger.charge_rx_many`` call;
``tests/mac_reference.py`` keeps the receiver-by-receiver loop it
replaced.  Driven by the same randomized frames, the two must deliver
to the same nodes in the same order, count the same stats, report the
same trouble frames, leave the ``mac`` stream in the same state and
book bitwise-identical energy.  ``charge_rx_many`` is also checked on
its own against sequential ``charge_rx`` calls.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro
from repro.geometry import Vec2
from repro.net import EnergyLedger, EnergyModel, MacConfig, MacLayer
from repro.net import network as network_module
from repro.net.messages import BROADCAST, Message
from repro.net.radio import RadioModel
from repro.sim import Simulator

from tests.mac_reference import ReferenceMac

SEEDS = [1, 2, 3]
N_NODES = 30
SIDE = 80.0
ABSENT = 999


def _frames(seed, n_frames=80, window_s=0.25):
    """Random node positions and frames (time, sender, dst, size): a
    third broadcast, a third unicast to a node in range, a third unicast
    to an absent id; the window is short enough that frames overlap."""
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, SIDE, size=(N_NODES, 2))
    frames = []
    for t in np.sort(rng.uniform(0.0, window_s, size=n_frames)).tolist():
        sender = int(rng.integers(0, N_NODES))
        kind = int(rng.integers(0, 3))
        if kind == 0:
            dst = BROADCAST
        elif kind == 1:
            dst = int(rng.integers(0, N_NODES))
        else:
            dst = ABSENT
        frames.append((t, sender, dst, int(rng.integers(20, 200))))
    return pos, frames


def _receivers(pos, sender, r):
    """(ids, xs, ys) of the nodes within ``r`` of ``sender``,
    ascending id."""
    d = pos - pos[sender]
    ids = [i for i in np.flatnonzero((d * d).sum(axis=1) <= r * r).tolist()
           if i != sender]
    return ids, pos[ids, 0].tolist(), pos[ids, 1].tolist()


def _hex(x):
    return float(x).hex()


def run_frames(mac_cls, seed, radio=None, config=None, overlay=None,
               observed=False, battery_j=None):
    """Send the seed's frames through a fresh ``mac_cls`` and record
    everything observable."""
    sim = Simulator(seed=seed)
    radio = radio or RadioModel()
    ledger = EnergyLedger(EnergyModel())
    mac = mac_cls(sim, radio, ledger, config)
    if overlay is not None:
        mac.loss_overlay_at = overlay
    out = {"delivered": [], "failed": [], "mac_frame": [], "charges": [],
           "depleted": []}
    sim.probe.subscribe(
        "mac_frame",
        lambda start, **kw: out["mac_frame"].append(
            (start, sorted(kw.items()))))
    if observed:
        ledger.emit_on(sim.probe)
        sim.probe.subscribe(
            "charge",
            lambda nid, kind, cost: out["charges"].append(
                (nid, kind, _hex(cost))))
    if battery_j is not None:
        ledger.set_battery(
            battery_j,
            lambda nid: out["depleted"].append(
                (nid, _hex(ledger.snapshot()), len(out["charges"]))))
    pos, frames = _frames(seed)
    for i, (t, sender, dst, size) in enumerate(frames):
        message = Message(kind="t", src=sender, dst=dst, size_bytes=size,
                          payload={"i": i})
        receivers = _receivers(pos, sender, radio.range_m)

        def _send(sender=sender, message=message, receivers=receivers):
            mac.transmit(
                sender, Vec2(*pos[sender].tolist()), message, receivers,
                deliver=lambda rid, m: out["delivered"].append(
                    (sim.now, rid, m.payload["i"])),
                on_unicast_fail=lambda m: out["failed"].append(
                    (sim.now, m.payload["i"])))

        sim.schedule_at(t, _send)
    sim.run()
    out["stats"] = dataclasses.asdict(mac.stats)
    out["rng"] = mac._rng.bit_generator.state
    out["accounts"] = {nid: (_hex(a.tx_j), _hex(a.rx_j), _hex(a.idle_j))
                       for nid, a in sorted(ledger.accounts().items())}
    out["snapshot"] = _hex(ledger.snapshot())
    return out


def _lossy_window(t):
    return 0.4 if 0.05 <= t < 0.15 else 0.0


VARIANTS = {
    "lossless": {},
    "base-loss": {"radio": RadioModel(base_loss_rate=0.2)},
    "fault-overlay": {"overlay": _lossy_window},
    "base-loss-and-overlay": {"radio": RadioModel(base_loss_rate=0.1),
                              "overlay": _lossy_window},
    "contention-free": {"config": MacConfig(contention_free=True),
                        "radio": RadioModel(base_loss_rate=0.1)},
    "overhear-whole-frames": {
        "config": MacConfig(overhear_header_only=False)},
    "observed": {"observed": True,
                 "radio": RadioModel(base_loss_rate=0.1)},
    "battery": {"observed": True, "battery_j": 2e-4},
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_frames_match_reference(variant, seed):
    kwargs = VARIANTS[variant]
    ref = run_frames(ReferenceMac, seed, **kwargs)
    got = run_frames(MacLayer, seed, **kwargs)
    for key in ("delivered", "failed", "mac_frame", "stats", "charges",
                "depleted", "accounts", "snapshot"):
        assert got[key] == ref[key], f"{variant} seed={seed}: {key}"
    assert got["rng"] == ref["rng"], f"{variant} seed={seed}: mac stream"


def test_frames_exercise_every_case():
    """The randomized frames reach what the differential claims to
    cover: deliveries, collisions among overlapping frames, channel
    losses, absent-destination failures, depletion."""
    plain = run_frames(MacLayer, 1)
    assert plain["stats"]["frames_lost_collision"] > 0
    assert plain["stats"]["unicast_failures"] > 0
    assert any(dst == BROADCAST for _, _, dst, _ in _frames(1)[1])
    lossy = run_frames(MacLayer, 1, overlay=_lossy_window)
    assert lossy["stats"]["frames_lost_channel"] > 0
    calm = run_frames(MacLayer, 1, config=MacConfig(contention_free=True))
    assert calm["stats"]["frames_lost_collision"] == 0
    drained = run_frames(MacLayer, 1, observed=True, battery_j=2e-4)
    assert drained["depleted"] and drained["charges"]


def _run_network(monkeypatch, mac_cls, seed, battery_j=None):
    """A small faulted DIKNN simulation whose MAC class is ``mac_cls``."""
    monkeypatch.setattr(network_module, "MacLayer", mac_cls)
    config = repro.SimulationConfig(
        n_nodes=90, field_size=(80.0, 80.0), seed=seed, warmup_s=1.0,
        crash_rate=0.05, node_downtime_s=1.5, packet_loss_rate=0.05,
        link_fault=(1.5, 2.0, 0.3))
    handle = repro.build_simulation(config, repro.DIKNNProtocol())
    net = handle.network
    kills = []
    if battery_j is not None:
        net.enable_batteries(battery_j)
        kill = net.ledger.on_depleted
        net.ledger.on_depleted = (
            lambda nid: (kills.append(nid), kill(nid)))
    handle.warm_up()
    answers = []
    for point in ((40.0, 40.0), (20.0, 60.0), (60.0, 25.0)):
        out = repro.run_query(handle, Vec2(*point), k=8, timeout=6.0)
        answers.append((out.completed, out.latency, out.pre_accuracy))
    return {
        "answers": answers,
        "kills": kills,
        "events": handle.sim.events_executed,
        "now": handle.sim.now,
        "mac": dataclasses.asdict(net.mac.stats),
        "net": dataclasses.asdict(net.stats),
        "rng": net.mac._rng.bit_generator.state,
        "accounts": {nid: (_hex(a.tx_j), _hex(a.rx_j))
                     for nid, a in sorted(net.ledger.accounts().items())},
        "snapshot": _hex(net.ledger.snapshot()),
        "alive": [n.alive for n in net.nodes.values()],
    }


@pytest.mark.parametrize("battery_j", [None, 2.5e-3])
def test_network_runs_match_reference(monkeypatch, battery_j):
    """Whole DIKNN queries under crashes, channel loss and a link fault
    (and, with batteries, energy deaths) run identically with either
    frame path."""
    ref = _run_network(monkeypatch, ReferenceMac, 5, battery_j)
    got = _run_network(monkeypatch, MacLayer, 5, battery_j)
    assert got == ref
    assert got["mac"]["frames_lost_channel"] > 0
    if battery_j is not None:
        assert got["kills"], "the battery should drain some nodes"


class TestChargeRxMany:
    """``charge_rx_many`` against the sequential ``charge_rx`` calls."""

    @staticmethod
    def _calls(seed, n=400):
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, 25, size=n).tolist()
        bits = rng.choice([256, 416, 1776, 2000], size=n).tolist()
        return ids, bits

    @staticmethod
    def _ledger(seed, record=None):
        ledger = EnergyLedger(EnergyModel())
        rng = np.random.default_rng(seed + 100)
        for nid in range(25):   # uneven starting balances
            ledger.charge_tx(nid, int(rng.integers(100, 3000)), 20.0)
        if record is not None:
            ledger.probe.subscribe(
                "charge", lambda nid, kind, cost: record.append(
                    (nid, kind, _hex(cost), _hex(ledger.snapshot()))))
        return ledger

    @staticmethod
    def _state(ledger):
        return ({nid: (_hex(a.tx_j), _hex(a.rx_j), _hex(a.idle_j))
                 for nid, a in sorted(ledger.accounts().items())},
                _hex(ledger.snapshot()))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bitwise_equal_to_sequential_calls(self, seed):
        ids, bits = self._calls(seed)
        seq = self._ledger(seed)
        for nid, b in zip(ids, bits):
            seq.charge_rx(nid, b)
        bulk = self._ledger(seed)
        for lo in range(0, len(ids), 37):   # frames of varying size
            bulk.charge_rx_many(ids[lo:lo + 37], bits[lo:lo + 37])
        assert self._state(bulk) == self._state(seq)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_subscriber_sees_the_same_emissions(self, seed):
        ids, bits = self._calls(seed)
        seen_seq, seen_bulk = [], []
        seq = self._ledger(seed, seen_seq)
        for nid, b in zip(ids, bits):
            seq.charge_rx(nid, b)
        bulk = self._ledger(seed, seen_bulk)
        bulk.charge_rx_many(ids, bits)
        assert seen_bulk == seen_seq
        assert self._state(bulk) == self._state(seq)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_battery_depletes_at_the_same_charge(self, seed):
        ids, bits = self._calls(seed, n=2000)

        def run(bulk):
            ledger = self._ledger(seed)
            kills = []
            ledger.set_battery(1.2e-3, lambda nid: kills.append(
                (nid, _hex(ledger.snapshot()),
                 _hex(ledger.account(nid).rx_j))))
            if bulk:
                ledger.charge_rx_many(ids, bits)
            else:
                for nid, b in zip(ids, bits):
                    ledger.charge_rx(nid, b)
            return kills, self._state(ledger)

        kills_seq, state_seq = run(False)
        kills_bulk, state_bulk = run(True)
        assert len(kills_seq) > 3
        assert kills_bulk == kills_seq
        assert state_bulk == state_seq

    def test_empty_frame_is_a_no_op(self):
        ledger = self._ledger(1)
        before = self._state(ledger)
        ledger.charge_rx_many([], [])
        assert self._state(ledger) == before
