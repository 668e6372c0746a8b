"""Tests for probe-based global deadlock detection.

Builds the canonical cross-site deadlock by hand: transaction T1 holds
a granule at A and waits at B; T2 holds at B and waits at A.  Neither
site's local wait-for graph has a cycle, so only the probe detector can
resolve it.
"""


from repro.model.parameters import paper_sites
from repro.testbed.deadlock import GlobalDetector
from repro.testbed.des import Fork, Simulator, Wait
from repro.testbed.locks import LockMode
from repro.testbed.metrics import Metrics
from repro.testbed.node import CaratNode
from repro.testbed.transactions import Transaction
from repro.model.types import BaseType


def _build():
    sim = Simulator()
    metrics = Metrics()
    metrics.collecting = True
    sites = paper_sites()
    nodes = {name: CaratNode(sim, sites[name], metrics)
             for name in ("A", "B")}
    registry = {}
    detector = GlobalDetector(sim, nodes, registry, alpha_ms=0.1,
                              probe_interval_ms=50.0)
    return sim, nodes, registry, detector, metrics


def _txn(registry, txn_id, home):
    txn = Transaction(txn_id=txn_id, base=BaseType.DU, home=home,
                      sites=("A", "B"))
    registry[txn_id] = txn
    return txn


def _hold(node, txn, granule):
    outcome = node.locks.request(txn.txn_id, granule, LockMode.EXCLUSIVE)
    assert outcome.value == "granted"
    txn.state(node.name).held.add(granule)


class TestGlobalDeadlock:
    def test_cross_site_two_cycle_detected(self):
        sim, nodes, registry, detector, metrics = _build()
        t1 = _txn(registry, "T1", "A")
        t2 = _txn(registry, "T2", "B")
        _hold(nodes["A"], t1, 100)
        _hold(nodes["B"], t2, 200)
        aborted = []

        def blocked(txn, node, granule):
            """Block txn on granule at node, reacting to the victim
            callback like the real executor."""
            outcome = node.locks.request(
                txn.txn_id, granule, LockMode.EXCLUSIVE)
            assert outcome.value == "blocked"
            wait = sim.event()
            node.locks.on_grant(txn.txn_id, lambda: wait.fire("granted"))
            node.lock_wait_events[txn.txn_id] = wait
            txn.blocked_at = node.name

            def victim():
                node.lock_wait_events.pop(txn.txn_id, None)
                node.locks.cancel_wait(txn.txn_id)
                txn.aborted = True
                aborted.append(txn.txn_id)
                wait.fire("aborted")

            yield Fork(detector.prober(txn.txn_id, node, victim))
            result = yield Wait(wait)
            if result == "aborted":
                # Roll back: release everything everywhere.
                for site in txn.touched_sites():
                    nodes[site].locks.release_all(txn.txn_id)

        # T1 waits at B for T2's granule; T2 waits at A for T1's.
        sim.spawn(blocked(t1, nodes["B"], 200))
        sim.spawn(blocked(t2, nodes["A"], 100))
        sim.run(until=10_000.0)
        # Exactly one victim; the survivor's lock was granted.
        assert len(aborted) == 1
        assert detector.deadlocks_found == 1
        survivor = ({"T1", "T2"} - set(aborted)).pop()
        assert not nodes["A"].locks.is_blocked(survivor)
        assert not nodes["B"].locks.is_blocked(survivor)

    def test_no_false_positive_without_cycle(self):
        sim, nodes, registry, detector, metrics = _build()
        t1 = _txn(registry, "T1", "A")
        t2 = _txn(registry, "T2", "B")
        _hold(nodes["B"], t2, 200)
        granted = []

        def blocked(txn, node, granule):
            outcome = node.locks.request(
                txn.txn_id, granule, LockMode.EXCLUSIVE)
            assert outcome.value == "blocked"
            wait = sim.event()
            node.locks.on_grant(txn.txn_id, lambda: wait.fire("granted"))
            node.lock_wait_events[txn.txn_id] = wait
            yield Fork(detector.prober(txn.txn_id, node,
                                       lambda: granted.append("WRONG")))
            result = yield Wait(wait)
            granted.append(result)

        def releaser():
            from repro.testbed.des import Timeout
            yield Timeout(500.0)
            nodes["B"].locks.release_all("T2")

        sim.spawn(blocked(t1, nodes["B"], 200))
        sim.spawn(releaser())
        sim.run(until=10_000.0)
        assert granted == ["granted"]
        assert detector.deadlocks_found == 0

    def test_prober_stops_when_transaction_finishes(self):
        sim, nodes, registry, detector, metrics = _build()
        t1 = _txn(registry, "T1", "A")
        _hold(nodes["A"], t1, 1)
        handle = sim.spawn(detector.prober("T1", nodes["A"],
                                           lambda: None))
        t1.finished = True
        sim.run(until=1_000.0)
        assert handle.done

    def test_stale_probe_does_not_abort_granted_waiter(self):
        """If the wait resolves while a probe is mid-flight, the victim
        callback must not fire."""
        sim, nodes, registry, detector, metrics = _build()
        t1 = _txn(registry, "T1", "A")
        t2 = _txn(registry, "T2", "B")
        _hold(nodes["A"], t1, 100)
        _hold(nodes["B"], t2, 200)
        fired = []

        def blocked_then_released():
            outcome = nodes["B"].locks.request("T1", 200,
                                               LockMode.EXCLUSIVE)
            assert outcome.value == "blocked"
            wait = sim.event()
            nodes["B"].locks.on_grant("T1", lambda: wait.fire("granted"))
            nodes["B"].lock_wait_events["T1"] = wait
            yield Fork(detector.prober("T1", nodes["B"],
                                       lambda: fired.append("abort")))
            # Release the blocker before the first probe interval ends.
            from repro.testbed.des import Timeout
            yield Timeout(10.0)
            nodes["B"].locks.release_all("T2")
            result = yield Wait(wait)
            fired.append(result)

        sim.spawn(blocked_then_released())
        sim.run(until=5_000.0)
        assert fired == ["granted"]
