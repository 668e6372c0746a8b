"""Coverage for remaining paths: think time in the simulator,
multi-site open rates, trace dump filtering."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.model.types import BaseType
from repro.model.workload import WorkloadSpec, mb4
from repro.testbed.locks import LockMode
from repro.testbed.serializability import (AccessRecord,
                                           CommittedTransaction,
                                           check_serializable,
                                           conflict_graph)
from repro.testbed.system import simulate


class TestThinkTimeInSimulator:
    def test_think_time_lowers_utilization(self, sites):
        from dataclasses import replace
        busy = simulate(mb4(8), sites, seed=7, warmup_ms=5_000.0,
                        duration_ms=120_000.0)
        lazy_workload = replace(mb4(8), think_time_ms=8_000.0)
        lazy = simulate(lazy_workload, sites, seed=7,
                        warmup_ms=5_000.0, duration_ms=120_000.0)
        assert (lazy.site("A").disk_utilization
                < busy.site("A").disk_utilization)
        assert (lazy.site("A").transaction_throughput_per_s
                < busy.site("A").transaction_throughput_per_s)

    def test_think_time_agrees_with_model(self, sites):
        """With generous think time the system is load-light and the
        model/simulator agreement tightens."""
        from dataclasses import replace
        from repro.model.solver import solve_model
        workload = replace(mb4(8), think_time_ms=10_000.0)
        model = solve_model(workload, sites, max_iterations=1000)
        sim = simulate(workload, sites, seed=7, warmup_ms=10_000.0,
                       duration_ms=300_000.0)
        for node in ("A", "B"):
            assert (model.site(node).transaction_throughput_per_s
                    == pytest.approx(
                        sim.site(node).transaction_throughput_per_s,
                        rel=0.2))


def _random_history(seed, interleaved=False):
    """Up to 12 transactions of 1-4 accesses over 2 sites x 4 granules.
    By default each transaction's accesses follow the previous one's;
    *interleaved* draws the access times at random instead, which
    produces non-serializable histories too."""
    import random
    rng = random.Random(seed)
    history = []
    clock = 0.0
    for i in range(rng.randint(1, 12)):
        accesses = []
        for _ in range(rng.randint(1, 4)):
            clock += rng.random()
            accesses.append(AccessRecord(
                site=rng.choice(["A", "B"]),
                granule=rng.randint(0, 3),
                mode=rng.choice([LockMode.SHARED,
                                 LockMode.EXCLUSIVE]),
                acquired_at=rng.uniform(0.0, 30.0) if interleaved
                else clock))
        history.append(CommittedTransaction(
            txn_id=f"t{i}", committed_at=clock,
            accesses=tuple(accesses)))
    return history


class TestConflictGraphProperties:
    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_edges_follow_time_order(self, seed):
        """Every conflict edge points from the earlier access to the
        later one, for random histories."""
        history = _random_history(seed)
        first_access = {t.txn_id: min(a.acquired_at
                                      for a in t.accesses)
                        for t in history}
        graph = conflict_graph(history)
        for src, successors in graph.items():
            for dst in successors:
                # The source's earliest conflicting access precedes
                # the destination's latest one.
                assert first_access[src] <= max(
                    a.acquired_at for t in history if t.txn_id == dst
                    for a in t.accesses)

    @given(st.integers(0, 2 ** 31 - 1), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_serial_order_or_cycle_witness(self, seed, interleaved):
        """A serializable verdict comes with an order every edge
        respects; otherwise the cycle is a closed path of real edges."""
        history = _random_history(seed, interleaved)
        graph = conflict_graph(history)
        report = check_serializable(history)
        assert report.transactions == len(graph)
        assert report.conflict_edges == sum(map(len, graph.values()))
        if report.serializable:
            assert report.cycle == ()
            assert sorted(report.serial_order) == sorted(graph)
            position = {t: i for i, t in enumerate(report.serial_order)}
            for src, successors in graph.items():
                for dst in successors:
                    assert position[src] < position[dst]
        else:
            assert report.serial_order == ()
            cycle = report.cycle
            assert len(cycle) >= 2 and len(set(cycle)) == len(cycle)
            for src, dst in zip(cycle, cycle[1:] + cycle[:1]):
                assert dst in graph[src]


class TestOpenWorkloadMultiSite:
    def test_three_site_slave_rates(self):
        template = WorkloadSpec(
            "tri",
            {"A": {BaseType.DU: 1}, "B": {BaseType.DU: 1}, "C": {}},
            requests_per_txn=6)
        from repro.model.open_solver import OpenWorkload
        from repro.model.types import ChainType
        open_workload = OpenWorkload(
            template=template,
            arrivals_per_s={"A": {BaseType.DU: 0.2},
                            "B": {BaseType.DU: 0.1}})
        rates_c = open_workload.chain_rates("C")
        # C hosts slaves for both A's and B's DU traffic.
        assert rates_c[ChainType.DUS] == pytest.approx(0.3)
        assert rates_c[ChainType.DUC] == 0.0


class TestTraceDumpFiltering:
    def test_dump_subset(self):
        from repro.testbed.tracing import TraceEventKind, Tracer
        tracer = Tracer()
        tracer.record(1.0, TraceEventKind.BEGIN, "t1", "A")
        tracer.record(2.0, TraceEventKind.BEGIN, "t2", "B")
        subset = tracer.events(site="A")
        text = tracer.dump(subset)
        assert "t1" in text and "t2" not in text
