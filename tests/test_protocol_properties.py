"""Property-based end-to-end invariants of the query protocols.

Hypothesis drives randomized small scenarios; the invariants must hold
regardless of seed, k, query position, or protocol:

* returned ids name real, alive nodes — never the sink, never ghosts;
* no duplicates in the top-k;
* the result never claims more than k ids;
* energy and latency are non-negative and finite;
* the ledger's network total equals the sum over per-node accounts.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import DIKNNProtocol, KNNQuery, next_query_id
from repro.geometry import Vec2
from repro.routing import GpsrRouter

from tests.conftest import build_static_network

# End-to-end sims are slow; keep example counts deliberate.
e2e_settings = settings(max_examples=8, deadline=None,
                        suppress_health_check=[HealthCheck.too_slow])


def run_random_query(seed, k, qx, qy):
    sim, net = build_static_network(n=120, seed=seed)
    proto = DIKNNProtocol()
    proto.install(net, GpsrRouter(net))
    query = KNNQuery(query_id=next_query_id(), sink_id=0,
                     point=Vec2(qx, qy), k=k, issued_at=sim.now)
    results = []
    energy_before = net.ledger.snapshot()
    proto.issue(net.nodes[0], query, results.append)
    sim.run(until=sim.now + 15)
    energy = net.ledger.since(energy_before)
    return net, (results[0] if results else proto.abandon(query.query_id)), \
        energy


class TestResultInvariants:
    @e2e_settings
    @given(st.integers(0, 10_000), st.integers(1, 40),
           st.floats(20.0, 95.0), st.floats(20.0, 95.0))
    def test_returned_ids_are_real_nodes(self, seed, k, qx, qy):
        net, result, energy = run_random_query(seed, k, qx, qy)
        assert energy >= 0.0 and math.isfinite(energy)
        if result is None:
            return
        ids = result.top_k_ids()
        assert len(ids) <= k
        assert len(ids) == len(set(ids))
        for nid in ids:
            assert nid in net.nodes
            assert net.nodes[nid].alive
        if result.completed_at is not None:
            assert result.latency is not None
            assert result.latency >= 0.0

    @e2e_settings
    @given(st.integers(0, 10_000), st.floats(20.0, 95.0),
           st.floats(20.0, 95.0))
    def test_k1_returns_a_near_node(self, seed, qx, qy):
        """k=1 must return a node close to q (within a couple of radio
        ranges of the true NN on a connected static field)."""
        net, result, _energy = run_random_query(seed, 1, qx, qy)
        if result is None or not result.top_k_ids():
            return
        q = Vec2(qx, qy)
        returned = net.nodes[result.top_k_ids()[0]].position()
        best = min(n.position().distance_to(q)
                   for n in net.nodes.values())
        assert returned.distance_to(q) <= best + 2 * net.radio.range_m

    @staticmethod
    def _assert_k1_near(seed, qx, qy):
        """The k=1 answer is held to the property test's near-node
        bound."""
        net, result, _energy = run_random_query(seed, 1, qx, qy)
        assert result is not None and result.top_k_ids()
        q = Vec2(qx, qy)
        returned = net.nodes[result.top_k_ids()[0]].position()
        best = min(n.position().distance_to(q)
                   for n in net.nodes.values())
        assert returned.distance_to(q) <= best + 2 * net.radio.range_m

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: GPSR perimeter mode hits a local "
               "minimum ~77 m from q=(20, 52), declares home there, "
               "and the itinerary sweeps the wrong region — the k=1 "
               "answer lands ~60 m off.  The post-mortem engine "
               "attributes this as ANCHOR_DISPLACED (see the companion "
               "test); flips to passing when perimeter routing / home "
               "re-anchoring is fixed.")
    def test_k1_seed9999_returns_near_node(self):
        """The pinned hypothesis counterexample, held to the same
        near-node bound as the property test."""
        self._assert_k1_near(9999, 20.0, 52.0)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: the same home-anchoring defect; the "
               "k=1 answer for q=(20, 75) lands 54.67 m from q while "
               "the nearest node is 5.16 m away.  Flips to passing "
               "when home re-anchoring is fixed.")
    def test_k1_seed1670_returns_near_node(self):
        """A second counterexample the property test draws, pinned so
        its failure no longer depends on the draw."""
        self._assert_k1_near(1670, 20.0, 75.0)

    def test_k1_seed9999_attributed_to_anchor_displacement(self):
        """The post-mortem engine measures the seed=9999 defect: the
        home anchor is displaced far beyond the radio range and the
        answer is ~60 m off, via a perimeter local minimum."""
        from repro.obs.postmortem import (ANCHOR_DISPLACED,
                                          replay_seed_query)

        attribution, result, net = replay_seed_query(9999, 1, 20.0, 52.0)
        assert attribution.cause == ANCHOR_DISPLACED
        assert attribution.status == "completed"  # looks healthy!
        kinds = {ev.kind for ev in attribution.evidence}
        assert "anchor" in kinds and "route" in kinds
        anchor = next(ev for ev in attribution.evidence
                      if ev.kind == "anchor")
        assert anchor.data["mode"] == "perimeter"
        assert anchor.data["offset_m"] >= 50.0  # measured: ~77.5 m
        # ...and the replay reproduces the property-test harness
        # exactly: same answer, same ~60 m miss.
        q = Vec2(20.0, 52.0)
        returned = net.nodes[result.top_k_ids()[0]].position()
        assert returned.distance_to(q) == pytest.approx(60.68, abs=0.5)


class TestLedgerInvariants:
    @e2e_settings
    @given(st.integers(0, 10_000), st.integers(1, 30))
    def test_network_total_is_sum_of_accounts(self, seed, k):
        net, _result, _energy = run_random_query(seed, k, 60.0, 60.0)
        ledger = net.ledger
        assert ledger.total_j() == pytest.approx(
            sum(acct.total_j for acct in ledger.accounts().values()))
        for acct in ledger.accounts().values():
            assert acct.tx_j >= 0.0 and acct.rx_j >= 0.0
