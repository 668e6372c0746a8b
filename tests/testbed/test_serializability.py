"""Tests for the conflict-serializability checker, including the
end-to-end property: every simulated committed history is
conflict-serializable (the 2PL guarantee, verified rather than
trusted)."""

import pytest

from repro.model.workload import mb8
from repro.testbed.locks import LockMode
from repro.testbed.serializability import (AccessRecord,
                                           CommittedTransaction,
                                           check_serializable,
                                           conflict_graph)
from repro.testbed.system import CaratSimulation, SimulationConfig

S, X = LockMode.SHARED, LockMode.EXCLUSIVE


def _txn(txn_id, committed_at, *accesses):
    return CommittedTransaction(
        txn_id=txn_id, committed_at=committed_at,
        accesses=tuple(AccessRecord(site, granule, mode, at)
                       for site, granule, mode, at in accesses))


class TestCheckerMechanics:
    def test_empty_history_serializable(self):
        report = check_serializable([])
        assert report.serializable
        assert report.transactions == 0

    def test_disjoint_transactions_no_edges(self):
        history = [
            _txn("t1", 10.0, ("A", 1, X, 1.0)),
            _txn("t2", 20.0, ("A", 2, X, 2.0)),
        ]
        report = check_serializable(history)
        assert report.serializable
        assert report.conflict_edges == 0

    def test_shared_accesses_never_conflict(self):
        history = [
            _txn("t1", 10.0, ("A", 1, S, 1.0)),
            _txn("t2", 20.0, ("A", 1, S, 2.0)),
        ]
        assert check_serializable(history).conflict_edges == 0

    def test_write_write_conflict_ordered(self):
        history = [
            _txn("t1", 10.0, ("A", 1, X, 1.0)),
            _txn("t2", 20.0, ("A", 1, X, 15.0)),
        ]
        graph = conflict_graph(history)
        assert graph == {"t1": ["t2"], "t2": []}

    def test_read_write_conflict_counts(self):
        history = [
            _txn("reader", 10.0, ("A", 1, S, 1.0)),
            _txn("writer", 20.0, ("A", 1, X, 15.0)),
        ]
        report = check_serializable(history)
        assert report.conflict_edges == 1
        assert report.serializable
        assert report.serial_order.index("reader") < \
            report.serial_order.index("writer")

    def test_cross_site_accesses_do_not_conflict(self):
        history = [
            _txn("t1", 10.0, ("A", 1, X, 1.0)),
            _txn("t2", 20.0, ("B", 1, X, 2.0)),
        ]
        assert check_serializable(history).conflict_edges == 0

    def test_cycle_detected(self):
        """A hand-built non-serializable history: t1 before t2 on
        granule 1, t2 before t1 on granule 2."""
        history = [
            _txn("t1", 10.0, ("A", 1, X, 1.0), ("A", 2, X, 8.0)),
            _txn("t2", 11.0, ("A", 1, X, 5.0), ("A", 2, X, 3.0)),
        ]
        report = check_serializable(history)
        assert not report.serializable
        assert set(report.cycle) == {"t1", "t2"}


class TestSimulatedHistoriesAreSerializable:
    @pytest.mark.parametrize("n,seed", [(8, 3), (16, 5)])
    def test_two_pl_guarantee_holds(self, sites, n, seed):
        """Medium-contention runs (including runs with deadlock aborts)
        must produce conflict-serializable committed histories."""
        config = SimulationConfig(
            workload=mb8(n), sites=sites, seed=seed,
            warmup_ms=5_000.0, duration_ms=120_000.0,
            record_history=True)
        simulation = CaratSimulation(config)
        simulation.run()
        assert len(simulation.history) > 10
        report = check_serializable(simulation.history)
        assert report.serializable, report.cycle
        assert len(report.serial_order) == report.transactions

    def test_history_disabled_by_default(self, sites):
        config = SimulationConfig(
            workload=mb8(4), sites=sites, seed=3,
            warmup_ms=1_000.0, duration_ms=20_000.0)
        simulation = CaratSimulation(config)
        simulation.run()
        assert simulation.history == []
