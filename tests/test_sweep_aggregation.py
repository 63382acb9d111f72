"""Unit tests of sweep aggregation: SeriesPoint, tables, sweeps plumbing."""

import math

import pytest

from repro.experiments import FIG8_K_VALUES, FIG9_SPEEDS, SimulationConfig
from repro.experiments.series import SeriesPoint, SweepResult
from repro.experiments.sweeps import _sweep
from repro.metrics import QueryOutcome, RunMetrics


def run_metrics(protocol="p", latencies=(1.0, 2.0), energy=0.5,
                pre=0.9, post=0.8, incomplete=0):
    outcomes = [QueryOutcome(query_id=1, k=10,
                             completed=True, latency=lat,
                             pre_accuracy=pre, post_accuracy=post,
                             energy_j=0.0)
                for lat in latencies]
    outcomes += [QueryOutcome(query_id=1, k=10,
                              completed=False, latency=None,
                              pre_accuracy=0.0, post_accuracy=0.0,
                              energy_j=0.0)
                 for _ in range(incomplete)]
    return RunMetrics(protocol=protocol, outcomes=outcomes,
                      energy_j=energy, duration_s=10.0)


class TestSeriesPointAggregation:
    def test_averages_over_runs(self):
        runs = [run_metrics(latencies=(1.0,), energy=0.4),
                run_metrics(latencies=(3.0,), energy=0.6)]
        point = SeriesPoint.from_runs(20.0, runs)
        assert point.latency == pytest.approx(2.0)
        assert point.energy_j == pytest.approx(0.5)
        assert point.runs == 2
        assert point.completion_rate == 1.0

    def test_nan_latency_runs_ignored_in_mean(self):
        """A run where nothing completed contributes NaN latency; the
        aggregate must average the finite runs only."""
        all_failed = run_metrics(latencies=(), incomplete=3)
        assert math.isnan(all_failed.mean_latency)
        point = SeriesPoint.from_runs(
            20.0, [all_failed, run_metrics(latencies=(2.0,))])
        assert point.latency == pytest.approx(2.0)
        assert point.completion_rate == pytest.approx(0.5)

    def test_accuracy_includes_failures_as_zero(self):
        run = run_metrics(latencies=(1.0,), pre=1.0, incomplete=1)
        assert run.mean_pre_accuracy == pytest.approx(0.5)


class TestSweepPlumbing:
    def test_sweep_shapes(self):
        calls = []

        class FakeProto:
            name = "fake"

        def factory(cfg):
            calls.append(cfg)
            return FakeProto()

        # Patch repeat_workload to avoid simulating.
        import repro.experiments.sweeps as sweeps_mod
        original = sweeps_mod.repeat_workload
        sweeps_mod.repeat_workload = \
            lambda cfg, fac, k, repeats, duration: [
                run_metrics(protocol="fake", latencies=(float(k),))]
        try:
            result = _sweep(SimulationConfig(seed=1), "k", [10, 30],
                            configure=lambda cfg, x: cfg,
                            k_of=lambda x: int(x),
                            factories={"fake": factory},
                            repeats=1, duration=5.0)
        finally:
            sweeps_mod.repeat_workload = original
        assert result.xs("fake") == [10.0, 30.0]
        assert result.metric_series("fake", "latency") == [10.0, 30.0]

    def test_paper_sweep_constants(self):
        assert FIG8_K_VALUES == (20, 40, 60, 80, 100)
        assert FIG9_SPEEDS == (5.0, 10.0, 15.0, 20.0, 25.0, 30.0)


class TestSweepTables:
    def make(self):
        sweep = SweepResult(x_name="k")
        sweep.add("a", SeriesPoint(5.0, float("nan"), 0.1, 0.9, 0.8,
                                   1.0, 1))
        sweep.add("a", SeriesPoint(10.0, 2.0, 0.2, 0.9, 0.8, 1.0, 1))
        return sweep

    def test_table_renders_nan(self):
        text = self.make().table("latency")
        assert "nan" in text
        assert "2.000" in text

    def test_empty_table(self):
        assert "(empty sweep)" in SweepResult(x_name="k").table("latency")
