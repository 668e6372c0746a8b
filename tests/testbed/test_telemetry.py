"""Tests for the testbed telemetry layer (spans, probes, exports)."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.model.types import BaseType, Phase
from repro.model.workload import mb4, mb8
from repro.testbed.system import CaratSimulation, SimulationConfig
from repro.testbed.telemetry import (SpanClock, Telemetry,
                                     TransactionSpans)


def run_with_telemetry(sites, workload, seed=11, warmup_ms=5_000.0,
                       duration_ms=40_000.0, **telemetry_kwargs):
    telemetry = Telemetry(**telemetry_kwargs)
    config = SimulationConfig(
        workload=workload, sites=sites, seed=seed,
        warmup_ms=warmup_ms, duration_ms=duration_ms,
        telemetry=telemetry)
    simulation = CaratSimulation(config)
    return telemetry, simulation.run()


class TestSpanClock:
    def test_marks_accrue_to_previous_state(self):
        telemetry = Telemetry()
        clock = telemetry.start_cycle("A", BaseType.LRO, 0.0)
        assert isinstance(clock, SpanClock)
        clock.txn_id = "t1"
        clock.attempts = 1
        clock.mark(10.0, "A", Phase.U)        # 10 ms of INIT
        clock.mark(15.0, "B", Phase.DM)       # 5 ms of U at A
        clock.close(18.0, collecting=True)    # 3 ms of DM at B
        record = telemetry.spans[0]
        assert record.spans[("A", Phase.INIT)] == pytest.approx(10.0)
        assert record.spans[("A", Phase.U)] == pytest.approx(5.0)
        assert record.spans[("B", Phase.DM)] == pytest.approx(3.0)
        assert record.total_ms() == pytest.approx(record.response_ms)
        assert record.response_ms == pytest.approx(18.0)

    def test_spans_keep_first_entry_order_and_accumulate(self):
        telemetry = Telemetry()
        clock = telemetry.start_cycle("A", BaseType.DU, 0.0)
        clock.mark(1.0, "A", Phase.TM)        # 1 ms of INIT
        clock.mark(3.0, "B", Phase.DM)        # 2 ms of TM at A
        clock.mark(4.0, "A", Phase.TM)        # 1 ms of DM at B
        clock.mark(4.0, "A", Phase.RW)        # zero-length TM: no time
        clock.mark(6.0, "A", Phase.TM)        # 2 ms of RW at A
        clock.close(10.0, collecting=True)    # 4 more ms of TM at A
        record = telemetry.spans[0]
        assert list(record.spans.items()) == [
            (("A", Phase.INIT), 1.0), (("A", Phase.TM), 6.0),
            (("B", Phase.DM), 1.0), (("A", Phase.RW), 2.0)]
        assert telemetry.phase_breakdown("A", BaseType.DU) == \
            record.spans

    def test_spans_disabled_returns_none(self):
        telemetry = Telemetry(record_spans=False)
        assert telemetry.start_cycle("A", BaseType.LRO, 0.0) is None

    def test_out_of_window_cycles_not_aggregated(self):
        telemetry = Telemetry()
        clock = telemetry.start_cycle("A", BaseType.LRO, 0.0)
        clock.close(5.0, collecting=False)
        assert len(telemetry.spans) == 1           # ring keeps it
        assert telemetry.committed_cycles("A", BaseType.LRO) == 0

    def test_configuration_validated(self):
        with pytest.raises(ConfigurationError):
            Telemetry(sample_interval_ms=0.0)
        with pytest.raises(ConfigurationError):
            Telemetry(span_capacity=0)
        with pytest.raises(ConfigurationError):
            Telemetry(sample_capacity=0)

    def test_span_ring_bounded(self):
        telemetry = Telemetry(span_capacity=2)
        for i in range(5):
            clock = telemetry.start_cycle("A", BaseType.LRO, float(i))
            clock.txn_id = f"t{i}"
            clock.close(float(i) + 0.5, collecting=True)
        assert len(telemetry.spans) == 2
        assert telemetry.spans_dropped == 3
        assert telemetry.spans_recorded == 5
        # Aggregates are exact regardless of the ring capacity.
        assert telemetry.committed_cycles("A", BaseType.LRO) == 5


class TestSpansPartitionTheCycle:
    """Tentpole property: spans sum to the measured response time."""

    @pytest.mark.parametrize("make,requests,seed", [
        (mb4, 4, 11), (mb8, 8, 29), (mb8, 12, 83),
    ])
    def test_span_sum_equals_response(self, sites, make, requests,
                                      seed):
        telemetry, _ = run_with_telemetry(sites, make(requests),
                                          seed=seed)
        assert telemetry.spans
        for record in telemetry.spans:
            assert record.total_ms() == pytest.approx(
                record.response_ms, rel=1e-9, abs=1e-6)

    def test_aggregate_matches_metrics_mean_response(self, sites):
        """Per-(site, base) span aggregates reproduce the mean
        response time the metrics collector reports."""
        telemetry, measurement = run_with_telemetry(sites, mb4(4))
        for site in measurement.sites:
            for base in BaseType:
                cycles = telemetry.committed_cycles(site, base)
                commits = measurement.site(site).commits_by_type[base]
                assert cycles == commits
                if not cycles:
                    continue
                mean = measurement.site(site) \
                    .mean_response_ms_by_type[base]
                assert telemetry.mean_phase_response_ms(site, base) \
                    == pytest.approx(mean, rel=1e-9)

    def test_center_breakdown_covers_the_cycle(self, sites):
        telemetry, _ = run_with_telemetry(sites, mb8(8))
        centers = telemetry.center_breakdown("A", BaseType.LRO)
        assert set(centers) == {"cpu", "disk", "lw", "rw", "cw", "ut"}
        total = telemetry.mean_phase_response_ms("A", BaseType.LRO)
        assert sum(centers.values()) == pytest.approx(total, rel=1e-9)
        assert centers["cpu"] > 0.0
        assert centers["disk"] > 0.0
        # Local read-only transactions never leave home or run 2PC.
        assert centers["rw"] == 0.0
        assert centers["cw"] == 0.0

    def test_distributed_spans_cover_remote_sites(self, sites):
        telemetry, _ = run_with_telemetry(sites, mb4(4))
        breakdown = telemetry.phase_breakdown("A", BaseType.DU)
        span_sites = {site for site, _ in breakdown}
        assert "A" in span_sites and "B" in span_sites
        centers = telemetry.center_breakdown("A", BaseType.DU)
        assert centers["rw"] > 0.0    # remote work + network latency
        assert centers["cw"] > 0.0    # 2PC coordinator waits


class TestDeterminism:
    def test_telemetry_does_not_perturb_the_simulation(self, sites):
        """Attaching telemetry must leave the RNG stream and every
        measurement bit-identical (pure-read instrumentation)."""
        workload = mb8(8)

        def run(telemetry):
            config = SimulationConfig(
                workload=workload, sites=sites, seed=3,
                warmup_ms=5_000.0, duration_ms=40_000.0,
                telemetry=telemetry)
            return CaratSimulation(config).run()

        detached = run(None)
        attached = run(Telemetry(sample_interval_ms=250.0))
        assert detached == attached

    def test_no_telemetry_is_a_noop(self, sites):
        config = SimulationConfig(
            workload=mb4(4), sites=sites, seed=83,
            warmup_ms=0.0, duration_ms=20_000.0)
        simulation = CaratSimulation(config)
        simulation.run()   # must not raise
        assert simulation.telemetry is None


class TestTimeSeriesProbe:
    def test_samples_every_site_at_cadence(self, sites):
        telemetry, _ = run_with_telemetry(
            sites, mb4(4), sample_interval_ms=1_000.0,
            warmup_ms=0.0, duration_ms=10_000.0)
        for site in ("A", "B"):
            series = [s for s in telemetry.samples if s.site == site]
            assert len(series) >= 10
            times = [s.time for s in series]
            assert times == sorted(times)

    def test_sample_fields_are_sane(self, sites):
        telemetry, _ = run_with_telemetry(sites, mb8(8))
        assert telemetry.samples
        busy_seen = False
        for sample in telemetry.samples:
            assert 0.0 <= sample.cpu_utilization <= 1.0
            assert 0.0 <= sample.disk_utilization <= 1.0
            assert sample.cpu_queue >= 0
            assert sample.lock_granules >= 0
            assert sample.blocked_transactions >= 0
            assert sample.wal_backlog >= 0
            assert 0 <= sample.dm_in_use
            busy_seen = busy_seen or sample.cpu_utilization > 0.0
        assert busy_seen

    def test_sample_ring_bounded(self, sites):
        telemetry, _ = run_with_telemetry(
            sites, mb4(4), sample_capacity=10,
            sample_interval_ms=100.0, warmup_ms=0.0,
            duration_ms=10_000.0)
        assert len(telemetry.samples) == 10
        assert telemetry.samples_dropped > 0

    def test_timeseries_disabled(self, sites):
        telemetry, _ = run_with_telemetry(
            sites, mb4(4), record_timeseries=False,
            warmup_ms=0.0, duration_ms=10_000.0)
        assert not telemetry.samples
        assert telemetry.spans    # spans still on


class TestExports:
    @pytest.fixture(scope="class")
    def collected(self, sites):
        return run_with_telemetry(sites, mb4(4), warmup_ms=0.0,
                                  duration_ms=20_000.0)[0]

    def test_jsonl_parses_and_merges(self, collected):
        lines = collected.to_jsonl().splitlines()
        records = [json.loads(line) for line in lines]
        kinds = {r["kind"] for r in records}
        assert kinds == {"spans", "sample"}
        times = [r["time"] for r in records]
        assert times == sorted(times)

    def test_span_jsonl_schema(self, collected):
        record = json.loads(
            collected.spans_to_jsonl().splitlines()[0])
        assert record["kind"] == "spans"
        assert set(record) >= {"time", "txn", "site", "base",
                               "attempts", "response_ms", "spans"}
        assert record["response_ms"] == pytest.approx(
            sum(record["spans"].values()), rel=1e-9)
        for key in record["spans"]:
            site, phase = key.split("/")
            assert site in ("A", "B")
            assert Phase(phase)

    def test_time_window_filtering(self, collected):
        spans = collected.spans
        cut = spans[len(spans) // 2].time
        early = collected._window(spans, None, cut)
        late = collected._window(spans, cut, None)
        assert all(s.time <= cut for s in early)
        assert all(s.time >= cut for s in late)
        assert len(early) + len(late) >= len(spans)
        jsonl = collected.samples_to_jsonl(since=5_000.0,
                                           until=10_000.0)
        for line in jsonl.splitlines():
            assert 5_000.0 <= json.loads(line)["time"] <= 10_000.0

    def test_summary_counts(self, collected):
        summary = collected.summary()
        assert summary["spans_retained"] == len(collected.spans)
        assert summary["samples_retained"] == len(collected.samples)
        assert summary["aggregated_cycles"]


class TestEventsPerCommitSurfacing:
    def test_site_measurement_reports_visit_counts(self, sites):
        _, measurement = run_with_telemetry(sites, mb4(4))
        site = measurement.site("A")
        visits = site.events_per_commit_by_name
        assert visits
        lro = visits[BaseType.LRO]
        # 4 requests x 4 records = 16 accesses per execution; retried
        # (aborted) executions push the per-commit figure above that.
        assert lro["granule_access"] >= 16.0
        assert lro["tm_msg"] > 0.0
        assert lro["lock_request"] >= lro["granule_access"]

    def test_visit_counts_match_metrics_accessor(self, sites):
        telemetry = Telemetry()
        config = SimulationConfig(
            workload=mb4(4), sites=sites, seed=11,
            warmup_ms=5_000.0, duration_ms=40_000.0,
            telemetry=telemetry)
        simulation = CaratSimulation(config)
        measurement = simulation.run()
        for name, site in measurement.sites.items():
            for base, by_name in site.events_per_commit_by_name.items():
                for event, value in by_name.items():
                    assert value == simulation.metrics \
                        .events_per_commit(name, base, event)


class TestTransactionSpans:
    def test_site_phase_accessor(self):
        record = TransactionSpans(
            txn_id="t", home="A", base=BaseType.LRO,
            started_at=0.0, finished_at=10.0, attempts=1,
            spans={("A", Phase.U): 4.0, ("A", Phase.DMIO): 6.0})
        assert record.site_phase_ms("A", Phase.U) == 4.0
        assert record.site_phase_ms("B", Phase.U) == 0.0
        assert record.time == 10.0
