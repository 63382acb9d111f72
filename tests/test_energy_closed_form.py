"""Blocked closed-form repeated addition and O(1) ledger checkpoints.

``repeated_add`` must be *bitwise* equal to the scalar loop it replaces
— the beacon equivalence contract compares ledger floats exactly, so a
single ulp of drift in the closed form would surface as a spurious
divergence.  The adversarial cases target exactly the places where the
blocked jump must bail out: round-half-even ties, binade crossings, and
near-fixed-point totals.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.net.energy import (EnergyLedger, EnergyModel, repeated_add,
                               repeated_add_many)


def scalar_reference(total: float, cost: float, count: int) -> float:
    for _ in range(count):
        total += cost
    return total


def assert_bitwise(total, cost, count):
    got = repeated_add(total, cost, count)
    want = scalar_reference(total, cost, count)
    assert got == want and math.copysign(1.0, got) == \
        math.copysign(1.0, want), (
        f"repeated_add({total!r}, {cost!r}, {count}) = {got!r} "
        f"!= scalar {want!r}")


class TestRepeatedAddBitwise:
    def test_randomized_against_scalar(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            total = float(rng.uniform(0, 10)) * 10.0 ** int(
                rng.integers(-12, 3))
            cost = float(rng.uniform(0.1, 10)) * 10.0 ** int(
                rng.integers(-12, 0))
            count = int(rng.integers(1, 3000))
            assert_bitwise(total, cost, count)

    def test_realistic_beacon_costs(self):
        model = EnergyModel()
        tx = model.tx_cost(96 * 8, 20.0)
        rx = model.rx_cost(96 * 8)
        for cost in (tx, rx):
            for count in (1, 2, 7, 100, 2048, 10_000):
                assert_bitwise(0.0, cost, count)
                assert_bitwise(123.456e-6, cost, count)

    def test_rounding_ties_fall_back_correctly(self):
        # cost = odd multiples of u/2 around binade tops: the exact
        # round-half-even territory where a naive jump would drift.
        for e in (-10, 0, 10):
            top = math.ldexp(1.0, e)
            u = math.ldexp(1.0, e - 53)
            for mult in (0.5, 1.5, 2.5, 0.75, 1.0, 2.0):
                cost = mult * u
                for total in (top - 200 * u, top - 3 * u, top * 0.5):
                    assert_bitwise(total, cost, 700)

    def test_binade_crossing_steps(self):
        # Totals just below a binade top with costs big enough to cross:
        # d can be an odd multiple of the *previous* binade's ulp, which
        # the step-integrality guard must reject.
        for e in (-5, 0, 7):
            top = math.ldexp(1.0, e)
            u = math.ldexp(1.0, e - 53)
            for cost in (1.5 * u, 3.0 * u, 0.7 * top, 1.1 * top):
                assert_bitwise(top - 2 * u, cost, 50)
                assert_bitwise(top - u, cost, 50)

    def test_edge_inputs(self):
        assert repeated_add(5.0, 0.0, 1000) == 5.0
        assert repeated_add(-0.0, 0.0, 3) == 0.0
        assert math.copysign(1.0, repeated_add(-0.0, 0.0, 3)) == 1.0
        assert repeated_add(1.0, 0.5, 0) == 1.0
        assert repeated_add(1.0, 0.5, -2) == 1.0
        # Fixed point: cost vanishes against a huge total.
        assert_bitwise(1e300, 1e-20, 10_000)
        # Non-finite and negative inputs take the scalar path verbatim.
        assert math.isinf(repeated_add(math.inf, 1.0, 5))
        assert_bitwise(10.0, -1e-3, 50)

    def test_large_count_is_fast_and_exact_vs_blocked_scalar(self):
        # 1e9 scalar adds is impractical; instead verify the closed form
        # agrees with itself split at arbitrary points (prefix property
        # it must satisfy if it equals the scalar loop).
        cost = EnergyModel().rx_cost(96 * 8)
        full = repeated_add(0.0, cost, 1_000_000_000)
        for cut in (1, 999, 123_456_789):
            part = repeated_add(0.0, cost, cut)
            assert repeated_add(part, cost, 1_000_000_000 - cut) == full


def assert_many_bitwise(totals, cost, counts):
    """``repeated_add_many`` equals ``repeated_add`` element by element,
    sign of zero included."""
    got = repeated_add_many(np.array(totals, dtype=float), cost,
                            np.array(counts, dtype=np.int64)).tolist()
    for total, count, g in zip(totals, counts, got):
        want = repeated_add(float(total), cost, int(count))
        assert (g == want and math.copysign(1.0, g) ==
                math.copysign(1.0, want)) or (g != g and want != want), (
            f"repeated_add_many at ({total!r}, {cost!r}, {count}) = {g!r}"
            f" != repeated_add {want!r}")


class TestRepeatedAddMany:
    def test_randomized_against_scalar(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            totals = (rng.uniform(0, 10, 40)
                      * 10.0 ** rng.integers(-12, 3, 40)).tolist()
            cost = float(rng.uniform(0.1, 10)) * 10.0 ** int(
                rng.integers(-12, 0))
            counts = rng.integers(0, 5000, 40).tolist()
            assert_many_bitwise(totals, cost, counts)

    def test_realistic_beacon_counts(self):
        model = EnergyModel()
        rng = np.random.default_rng(5)
        for cost in (model.tx_cost(96 * 8, 20.0), model.rx_cost(96 * 8)):
            counts = rng.integers(0, 200_000, 300).tolist()
            totals = [0.0] * 150 + rng.uniform(0, 1e-3, 150).tolist()
            assert_many_bitwise(totals, cost, counts)

    def test_rounding_ties(self):
        for e in (-10, 0, 10):
            top = math.ldexp(1.0, e)
            u = math.ldexp(1.0, e - 53)
            totals = [top - 200 * u, top - 3 * u, top * 0.5]
            for mult in (0.5, 1.5, 2.5, 0.75, 1.0, 2.0):
                assert_many_bitwise(totals, mult * u, [700, 65, 3000])

    def test_binade_crossing_steps(self):
        for e in (-5, 0, 7):
            top = math.ldexp(1.0, e)
            u = math.ldexp(1.0, e - 53)
            for cost in (1.5 * u, 3.0 * u, 0.7 * top, 1.1 * top):
                assert_many_bitwise([top - 2 * u, top - u, top], cost,
                                    [50, 500, 70])

    def test_zero_cost_and_zero_counts(self):
        assert_many_bitwise([5.0, -0.0, -0.0, 1.0], 0.0, [1000, 3, 0, 0])
        assert_many_bitwise([1.0, -0.0, 2.5], 0.5, [0, 0, -2])
        assert_many_bitwise([], 0.5, [])

    def test_counts_up_to_64(self):
        rng = np.random.default_rng(9)
        totals = rng.uniform(0, 1e-3, 200).tolist()
        counts = rng.integers(1, 65, 200).tolist()
        assert_many_bitwise(totals, 3.1e-7, counts)

    def test_odd_inputs_take_the_scalar_path(self):
        assert_many_bitwise([1e300, math.inf, -3.0, 10.0, math.nan],
                            1e-20, [10_000, 5, 80, 100, 3])
        assert_many_bitwise([10.0, 1.0], -1e-3, [50, 70])


class TestLedgerCheckpoints:
    def _ledger(self):
        return EnergyLedger(EnergyModel(idle_w=0.01))

    def test_snapshot_tracks_chronological_running_total(self):
        led = self._ledger()
        cp0 = led.snapshot()
        total = 0.0
        rng = np.random.default_rng(7)
        for _ in range(200):
            nid = int(rng.integers(0, 10))
            kind = int(rng.integers(0, 3))
            if kind == 0:
                total += led.charge_tx(nid, 800, 20.0)
            elif kind == 1:
                total += led.charge_rx(nid, 800)
            else:
                total += led.charge_idle(nid, 0.5)
        # The running total sums in chronological order — replay it.
        chron = 0.0
        led2 = self._ledger()
        rng = np.random.default_rng(7)
        for _ in range(200):
            nid = int(rng.integers(0, 10))
            kind = int(rng.integers(0, 3))
            if kind == 0:
                chron += led2.model.tx_cost(800, 20.0)
            elif kind == 1:
                chron += led2.model.rx_cost(800)
            else:
                chron += led2.model.idle_cost(0.5)
        assert led.snapshot() - cp0 == chron
        assert led.since(cp0) == chron
        assert led.total_j() == pytest.approx(chron, rel=1e-12)

    def test_bulk_charges_match_scalar_charges_bitwise(self):
        a_led = EnergyLedger(EnergyModel())
        b_led = EnergyLedger(EnergyModel())
        for count in (1, 3, 500):
            a_led.charge_tx_repeated(1, 800, 20.0, count)
            a_led.charge_rx_repeated(2, 800, count)
            for _ in range(count):
                b_led.charge_tx(1, 800, 20.0)
                b_led.charge_rx(2, 800)
            assert a_led.account(1).tx_j == b_led.account(1).tx_j
            assert a_led.account(2).rx_j == b_led.account(2).rx_j
            # The account fields are bitwise equal; the O(1) running
            # total sums tx-then-rx per bulk call instead of the scalar
            # interleave, so it may differ in the last ulps.
            assert a_led.snapshot() == pytest.approx(b_led.snapshot(),
                                                     rel=1e-12)
            assert a_led.total_j() == b_led.total_j()

    def test_beacon_charges_leave_the_protocol_checkpoint(self):
        led = self._ledger()
        cp = led.snapshot()
        led.charge_tx(1, 800, 20.0, "beacon_charge")
        led.charge_rx(2, 800, "beacon_charge")
        assert led.since(cp) == 0.0
        assert led.total_j() == 0.0
        assert led.total_j("beacon_charge") == (
            led.model.tx_cost(800, 20.0) + led.model.rx_cost(800))

    def test_bulk_charging_refused_with_battery_or_observer(self):
        led = EnergyLedger(EnergyModel())
        led.set_battery(1.0, lambda nid: None)
        with pytest.raises(ValueError):
            led.charge_tx_repeated(1, 800, 20.0, 5)
        led2 = EnergyLedger(EnergyModel())
        led2.probe.subscribe("charge", lambda nid, kind, cost: None)
        with pytest.raises(ValueError):
            led2.charge_rx_repeated(1, 800, 5)
