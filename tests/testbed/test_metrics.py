"""Unit tests for metrics collection and derived measures."""

import pytest

from repro.model.types import BaseType
from repro.testbed.metrics import Metrics, SiteMeasurement


def _site(samples=None, commits=None, elapsed_ms=100_000.0):
    samples = samples or {}
    commits = commits or {base: len(samples.get(base, []))
                          for base in BaseType}
    return SiteMeasurement(
        site="A", elapsed_ms=elapsed_ms,
        commits_by_type={base: commits.get(base, 0)
                         for base in BaseType},
        aborts_by_type={base: 0 for base in BaseType},
        mean_response_ms_by_type={base: 0.0 for base in BaseType},
        response_samples_by_type={base: samples.get(base, [])
                                  for base in BaseType},
        records_by_type={base: 0.0 for base in BaseType},
        cpu_utilization=0.5, disk_utilization=0.5,
        log_disk_utilization=0.0, disk_ios=1000,
        local_deadlocks=0, global_deadlocks=0, lock_waits=0,
    )


class TestMetricsWindow:
    def test_nothing_counted_before_window(self):
        metrics = Metrics()
        metrics.commit("A", BaseType.LRO, 100.0, 32.0)
        metrics.disk_io("A")
        assert metrics.commits == {}
        assert metrics.disk_ios == {}

    def test_window_reset_clears_everything(self):
        metrics = Metrics()
        metrics.start_window(0.0)
        metrics.commit("A", BaseType.LRO, 100.0, 32.0)
        metrics.bump(metrics.event_counter("A", BaseType.LRO, "tm_msg"), 3)
        metrics.start_window(50.0)
        assert metrics.commits == {}
        assert metrics.events == {}
        assert metrics.window_start == 50.0

    def test_events_per_commit(self):
        metrics = Metrics()
        metrics.start_window(0.0)
        metrics.commit("A", BaseType.LU, 100.0, 32.0)
        metrics.commit("A", BaseType.LU, 120.0, 32.0)
        metrics.bump(metrics.event_counter("A", BaseType.LU, "tm_msg"), 34)
        assert metrics.events_per_commit(
            "A", BaseType.LU, "tm_msg") == pytest.approx(17.0)
        assert metrics.events_per_commit(
            "A", BaseType.DRO, "tm_msg") == 0.0

    def test_resolved_counters_share_the_event_counts(self):
        """A counter resolved once and bumped counts into its
        (site, base, name) entry, the same one a later lookup returns,
        only inside the window, and a new window restarts it from
        zero."""
        metrics = Metrics()
        counter = metrics.event_counter("A", BaseType.LU, "tm_msg")
        assert metrics.event_counter("A", BaseType.LU, "tm_msg") is counter
        metrics.bump(counter)                       # before the window
        assert metrics.events == {}
        metrics.start_window(0.0)
        metrics.bump(counter)
        metrics.bump(counter, 2)
        metrics.bump(metrics.event_counter("A", BaseType.LU, "tm_msg"))
        metrics.bump(metrics.event_counter("B", BaseType.LU,
                                           "slave_tm_msg"))
        metrics.commit("A", BaseType.LU, 100.0, 32.0)
        assert metrics.events == {("A", BaseType.LU, "tm_msg"): 4,
                                  ("B", BaseType.LU, "slave_tm_msg"): 1}
        assert metrics.events_per_commit(
            "A", BaseType.LU, "tm_msg") == 4.0
        metrics.start_window(10.0)
        assert metrics.events == {}
        metrics.bump(counter)
        assert metrics.events == {("A", BaseType.LU, "tm_msg"): 1}


class TestPercentiles:
    def test_median_of_odd_list(self):
        site = _site({BaseType.LRO: [10.0, 30.0, 20.0]})
        assert site.response_percentile_ms(BaseType.LRO, 50) == \
            pytest.approx(20.0)

    def test_extremes(self):
        site = _site({BaseType.LRO: [5.0, 1.0, 9.0]})
        assert site.response_percentile_ms(BaseType.LRO, 0) == 1.0
        assert site.response_percentile_ms(BaseType.LRO, 100) == 9.0

    def test_interpolation(self):
        site = _site({BaseType.LRO: [0.0, 10.0]})
        assert site.response_percentile_ms(BaseType.LRO, 75) == \
            pytest.approx(7.5)

    def test_empty_returns_zero(self):
        site = _site({})
        assert site.response_percentile_ms(BaseType.DU, 90) == 0.0

    def test_out_of_range_rejected(self):
        site = _site({BaseType.LRO: [1.0]})
        with pytest.raises(ValueError):
            site.response_percentile_ms(BaseType.LRO, 101)

    def test_tail_heavier_than_median_in_simulation(self, sites,
                                                    quick_sim_kwargs):
        from repro.model.workload import mb8
        from repro.testbed.system import simulate
        measurement = simulate(mb8(8), sites, **quick_sim_kwargs)
        site = measurement.site("A")
        p50 = site.response_percentile_ms(BaseType.LU, 50)
        p95 = site.response_percentile_ms(BaseType.LU, 95)
        assert p95 >= p50 > 0.0
