"""Tests for the abstract CSMA MAC: delivery, loss, collisions, ARQ."""

import pytest

from repro.geometry import Vec2
from repro.net import EnergyLedger, EnergyModel, MacConfig, MacLayer
from repro.net.messages import BROADCAST, Message
from repro.net.radio import RadioModel
from repro.sim import Simulator


def make_mac(seed=1, radio=None, config=None):
    sim = Simulator(seed=seed)
    radio = radio or RadioModel()
    ledger = EnergyLedger(EnergyModel())
    return sim, MacLayer(sim, radio, ledger, config), ledger


def msg(dst=BROADCAST, size=20, kind="test"):
    return Message(kind=kind, src=0, dst=dst, size_bytes=size)


class TestBroadcastDelivery:
    def test_broadcast_reaches_all_receivers(self):
        sim, mac, _ = make_mac()
        got = []
        mac.transmit(0, Vec2(0, 0), msg(),
                     receivers=([1, 2], [5, 0], [0, 5]),
                     deliver=lambda nid, m: got.append(nid))
        sim.run()
        assert sorted(got) == [1, 2]

    def test_delivery_is_delayed_by_airtime(self):
        sim, mac, _ = make_mac()
        radio = mac.radio
        times = []
        mac.transmit(0, Vec2(0, 0), msg(size=100),
                     receivers=([1], [5], [0]),
                     deliver=lambda nid, m: times.append(sim.now))
        sim.run()
        assert times[0] >= radio.airtime(100)

    def test_base_loss_drops_frames(self):
        sim, mac, _ = make_mac(radio=RadioModel(base_loss_rate=0.99))
        got = []
        for _ in range(50):
            mac.transmit(0, Vec2(0, 0), msg(),
                         receivers=([1], [5], [0]),
                         deliver=lambda nid, m: got.append(nid))
        sim.run()
        assert len(got) < 10  # almost everything lost

    def test_no_receivers_is_fine(self):
        sim, mac, _ = make_mac()
        mac.transmit(0, Vec2(0, 0), msg(), receivers=([], [], []),
                     deliver=lambda nid, m: pytest.fail("ghost delivery"))
        sim.run()


class TestUnicastArq:
    def test_unicast_delivers_and_acks(self):
        sim, mac, ledger = make_mac()
        got = []
        mac.transmit(0, Vec2(0, 0), msg(dst=1),
                     receivers=([1, 2], [5, 0], [0, 5]),
                     deliver=lambda nid, m: got.append(nid))
        sim.run()
        assert got == [1]
        # Receiver paid for the ACK transmission.
        assert ledger.account(1).tx_j > 0.0

    def test_unicast_failure_after_retries(self):
        sim, mac, _ = make_mac(radio=RadioModel(base_loss_rate=0.999))
        failures = []
        mac.transmit(0, Vec2(0, 0), msg(dst=1),
                     receivers=([1], [5], [0]),
                     deliver=lambda nid, m: None,
                     on_unicast_fail=lambda m: failures.append(m))
        sim.run()
        assert len(failures) == 1
        assert mac.stats.unicast_failures == 1
        assert mac.stats.unicast_retries == mac.config.max_retries

    def test_unicast_to_absent_destination_fails(self):
        sim, mac, _ = make_mac()
        failures = []
        mac.transmit(0, Vec2(0, 0), msg(dst=9),
                     receivers=([1], [5], [0]),
                     deliver=lambda nid, m: pytest.fail("should not deliver"),
                     on_unicast_fail=lambda m: failures.append(m))
        sim.run()
        assert len(failures) == 1

    def test_overhearing_charges_header_only(self):
        sim, mac, ledger = make_mac()
        mac.transmit(0, Vec2(0, 0), msg(dst=1, size=200),
                     receivers=([1, 2], [5, 0], [0, 5]),
                     deliver=lambda nid, m: None)
        sim.run()
        # Node 2 (overhearer) pays far less rx than node 1 (addressee).
        assert 0 < ledger.account(2).rx_j < ledger.account(1).rx_j / 3


class TestCollisions:
    def test_concurrent_transmissions_can_collide(self):
        config = MacConfig(collision_coeff=1.0, max_retries=0,
                           base_cw_slots=1, cw_per_interferer=0)
        sim, mac, _ = make_mac(config=config)
        got = []
        # Two senders within interference range of each other's receivers,
        # same instant, zero backoff spread -> guaranteed overlap.
        mac.transmit(0, Vec2(0, 0), msg(dst=2, size=200),
                     receivers=([2], [5], [0]),
                     deliver=lambda nid, m: got.append(("a", nid)))
        mac.transmit(1, Vec2(10, 0), Message(kind="t", src=1, dst=3,
                                             size_bytes=200),
                     receivers=([3], [15], [0]),
                     deliver=lambda nid, m: got.append(("b", nid)))
        sim.run()
        assert mac.stats.frames_lost_collision >= 1

    def test_distant_transmissions_do_not_collide(self):
        config = MacConfig(collision_coeff=1.0, max_retries=0,
                           base_cw_slots=1, cw_per_interferer=0)
        sim, mac, _ = make_mac(config=config)
        got = []
        mac.transmit(0, Vec2(0, 0), msg(dst=2),
                     receivers=([2], [5], [0]),
                     deliver=lambda nid, m: got.append(nid))
        mac.transmit(1, Vec2(1000, 0), Message(kind="t", src=1, dst=3,
                                               size_bytes=20),
                     receivers=([3], [1005], [0]),
                     deliver=lambda nid, m: got.append(nid))
        sim.run()
        assert sorted(got) == [2, 3]
        assert mac.stats.frames_lost_collision == 0

    def test_backoff_grows_with_load(self):
        sim, mac, _ = make_mac()
        # Start a long transmission, then ask for a backoff nearby: it must
        # at least wait out the residual airtime.
        mac.transmit(5, Vec2(0, 0), msg(size=5000),
                     receivers=([1], [5], [0]),
                     deliver=lambda nid, m: None)
        sim.run(max_events=1)
        delay = mac.backoff_delay(Vec2(1, 0))
        assert delay >= mac.radio.airtime(5000) * 0.5


class TestSenderSerialization:
    def test_one_sender_serializes_burst(self):
        """A node has one radio: N frames take ~N airtimes, not one."""
        sim, mac, _ = make_mac()
        done = []
        for i in range(10):
            mac.transmit(0, Vec2(0, 0), msg(size=500),
                         receivers=([1], [5], [0]),
                         deliver=lambda nid, m: done.append(sim.now))
        sim.run()
        assert len(done) == 10
        span = max(done) - min(done)
        assert span >= 8 * mac.radio.airtime(500)

    def test_different_senders_not_serialized(self):
        sim, mac, _ = make_mac()
        done = []
        for i in range(5):
            mac.transmit(i, Vec2(i * 1000.0, 0), msg(size=500),
                         receivers=([100 + i], [i * 1000.0 + 5], [0]),
                         deliver=lambda nid, m: done.append(sim.now))
        sim.run()
        span = max(done) - min(done)
        assert span < 2 * mac.radio.airtime(500)


class TestEnergyAccounting:
    def test_tx_and_rx_charged(self):
        sim, mac, ledger = make_mac()
        mac.transmit(0, Vec2(0, 0), msg(size=100),
                     receivers=([1], [5], [0]),
                     deliver=lambda nid, m: None)
        sim.run()
        assert ledger.account(0).tx_j > 0
        assert ledger.account(1).rx_j > 0

    def test_retries_cost_energy(self):
        sim1, mac1, ledger1 = make_mac(radio=RadioModel(base_loss_rate=0.0))
        mac1.transmit(0, Vec2(0, 0), msg(dst=1),
                      receivers=([1], [5], [0]),
                      deliver=lambda nid, m: None)
        sim1.run()
        sim2, mac2, ledger2 = make_mac(
            radio=RadioModel(base_loss_rate=0.999))
        mac2.transmit(0, Vec2(0, 0), msg(dst=1),
                      receivers=([1], [5], [0]),
                      deliver=lambda nid, m: None)
        sim2.run()
        assert ledger2.account(0).tx_j > 2 * ledger1.account(0).tx_j
