"""End-to-end telemetry: span coverage, metric series, attach/detach,
the process-wide --obs switch, and workload integration."""

from __future__ import annotations

import pytest

from repro.core import DIKNNProtocol
from repro.experiments import SimulationConfig, build_simulation, run_workload
from repro.obs import (Telemetry, enable_observability,
                       observability_enabled, reset_observability)
from repro.obs.capture import capture_scenario, scenario_names
from repro.sim.probe import CHANNELS


@pytest.fixture(autouse=True)
def _clean_obs_state():
    reset_observability()
    yield
    reset_observability()


@pytest.fixture(scope="module")
def captured():
    return capture_scenario("static-diknn")


class TestCapturedScenario:
    def test_query_covered_end_to_end(self, captured):
        spans = captured.spans
        assert captured.completed
        roots = spans.roots(query_id=1)
        assert len(roots) == 1 and roots[0].category == "query"
        categories = {s.category for s in spans.for_query(1)}
        # the whole lifecycle: dissemination, per-sector traversal,
        # collection windows, result return, all under one root
        assert {"query", "route", "sector", "window",
                "return"} <= categories
        assert spans.check_integrity() == []

    def test_every_sector_has_a_child_window_and_return(self, captured):
        spans = captured.spans
        sectors = [s for s in spans.for_query(1) if s.category == "sector"]
        assert len(sectors) == 8
        for sector in sectors:
            kinds = {c.category for c in spans.children(sector.span_id)}
            assert {"window", "return"} <= kinds

    def test_at_least_ten_named_series(self, captured):
        names = captured.metrics.series_names()
        assert len(names) >= 10
        for required in ("diknn.query.issued", "diknn.query.latency_s",
                         "diknn.route.hops", "diknn.sector.latency_s",
                         "mac.backoff_s", "gpsr.forwards",
                         "net.beacons.delivered", "energy.tx_j",
                         "itinerary.builds", "mac.collision_rate"):
            assert required in names, required

    def test_metric_values_are_consistent(self, captured):
        m = captured.metrics
        assert m.counter("diknn.query.issued").value == 1
        assert m.counter("diknn.query.completed").value == 1
        assert m.counter("diknn.sector.dispatched").value == 8
        assert m.histogram("diknn.sector.latency_s").count == 8
        assert m.histogram("diknn.query.latency_s").count == 1
        latency = m.histogram("diknn.query.latency_s").max
        root = captured.spans.roots(query_id=1)[0]
        assert latency == pytest.approx(root.duration)
        assert 0.0 <= m.gauge("mac.collision_rate").value <= 1.0

    def test_kernel_profiler_accounts_every_event(self, captured):
        prof = captured.telemetry.profiler
        assert prof.events_timed > 0 and prof.total_s > 0
        rows = prof.to_rows(5)
        assert rows == sorted(rows, key=lambda r: r[2], reverse=True)
        assert sum(r[4] for r in prof.to_rows()) == pytest.approx(1.0)
        assert "handler" in prof.report(3)

    def test_run_summary_is_json_safe(self, captured):
        import json
        summary = captured.telemetry.run_summary()
        json.dumps(summary)   # no numpy scalars, no objects
        assert summary["span_problems"] == []
        assert summary["open_spans"] == 0
        assert summary["raw_events"] > 0
        assert summary["kernel_hotspots"]
        assert len(summary["metrics"]) >= 10

    def test_report_renders(self, captured):
        text = captured.telemetry.report(top=3)
        assert "kernel profile" in text and "diknn.query.issued" in text


class TestSwitch:
    def test_disabled_by_default(self):
        assert not observability_enabled()
        handle = build_simulation(
            SimulationConfig(n_nodes=25, field_size=(50.0, 50.0), seed=3,
                             max_speed=0.0), DIKNNProtocol())
        assert handle.obs is None
        probe = handle.sim.probe
        assert not any(getattr(probe, c) for c in CHANNELS)

    def test_enable_attaches_and_reset_detaches(self):
        enable_observability()
        handle = build_simulation(
            SimulationConfig(n_nodes=25, field_size=(50.0, 50.0), seed=3,
                             max_speed=0.0), DIKNNProtocol())
        telemetry = handle.obs
        assert isinstance(telemetry, Telemetry) and telemetry.attached
        probe = handle.sim.probe
        assert probe.protocol == (telemetry,)
        assert probe.route == (telemetry,)
        assert probe.kernel_timed == (telemetry.profiler.record,)
        assert probe.mac_sample != ()
        reset_observability()
        assert not observability_enabled()
        assert not telemetry.attached
        assert probe.protocol == ()
        assert probe.kernel_timed == ()
        assert probe.mac_sample == ()

    def test_double_attach_rejected(self):
        handle = build_simulation(
            SimulationConfig(n_nodes=25, field_size=(50.0, 50.0), seed=3,
                             max_speed=0.0), DIKNNProtocol())
        telemetry = Telemetry()
        telemetry.attach_handle(handle)
        with pytest.raises(RuntimeError, match="already attached"):
            telemetry.attach_handle(handle)
        telemetry.detach()
        telemetry.detach()   # idempotent

    def test_energy_observer_chains_behind_validation(self):
        from repro.validate import enable_validation, reset_validation
        try:
            enable_validation(True)
            enable_observability()
            handle = build_simulation(
                SimulationConfig(n_nodes=25, field_size=(50.0, 50.0),
                                 seed=3, max_speed=0.0), DIKNNProtocol())
            assert handle.validator is not None
            assert handle.obs is not None
            handle.warm_up()
            handle.network.ledger.charge_tx(0, 100, 10.0)
            # both layers saw the charge: obs counted it...
            assert handle.obs.metrics.counter("energy.tx_j").value > 0
            # ...and the validator's ledger mirror stayed in sync
            handle.validator.check_now()
        finally:
            reset_validation()

    def test_scenario_names_lists_golden_matrix(self):
        names = scenario_names()
        assert "static-diknn" in names and len(names) == 8
        with pytest.raises(ValueError, match="unknown scenario"):
            capture_scenario("nope")


def test_workload_run_carries_obs_summary():
    enable_observability()
    cfg = SimulationConfig(n_nodes=40, field_size=(60.0, 60.0), seed=5,
                           max_speed=0.0, query_interval_mean=3.0)
    metrics = run_workload(cfg, lambda _cfg: DIKNNProtocol(), k=5,
                           duration=8.0, query_timeout=6.0)
    assert metrics.obs is not None
    assert metrics.obs["span_problems"] == []
    assert metrics.obs["open_spans"] == 0
    issued = metrics.obs["metrics"]["diknn.query.issued"]["value"]
    assert issued == metrics.queries_issued > 0


def test_workload_run_without_obs_has_no_summary():
    cfg = SimulationConfig(n_nodes=40, field_size=(60.0, 60.0), seed=5,
                           max_speed=0.0, query_interval_mean=3.0)
    metrics = run_workload(cfg, lambda _cfg: DIKNNProtocol(), k=5,
                           duration=8.0, query_timeout=6.0)
    assert metrics.obs is None
