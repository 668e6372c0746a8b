"""Global deadlock detection via edge-chasing probes (paper §2).

CARAT detects local deadlocks by searching the site's transaction
wait-for graph (done synchronously inside the lock manager,
:mod:`repro.testbed.locks`) and global deadlocks with a variant of the
Chandy–Misra–Haas probe algorithm [CHAN83].

Implementation: when a transaction blocks, a *prober* process starts.
Periodically, while the transaction stays blocked, it chases the
wait-for edges: from the blocked transaction to the holders it waits
on, from each holder to the sites where that (global) transaction has
agents, and onward through any lock wait those agents are in.  Each
site examined costs one lock-request's worth of CPU there, and each
inter-site hop costs the network delay, so detection latency and its
resource usage are part of the simulation.  If a chase returns to the
initiator, the initiator is the victim (same policy as local
detection: the transaction whose wait closes the cycle aborts).

Races are handled the way the real algorithm handles them: the victim
is only aborted if it is *still* blocked when the probe completes, so
stale probes are harmless.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from typing import TYPE_CHECKING

from repro.testbed.des import Simulator, Timeout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.testbed.node import CaratNode
    from repro.testbed.transactions import Transaction

__all__ = ["GlobalDetector"]


class GlobalDetector:
    """Probe-based global deadlock detector shared by all sites."""

    def __init__(
        self,
        sim: Simulator,
        nodes: dict[str, "CaratNode"],
        registry: dict[str, "Transaction"],
        alpha_ms: float = 0.1,
        probe_cpu_ms: float = 2.2,
        probe_interval_ms: float = 250.0,
    ):
        self.sim = sim
        self.nodes = nodes
        self.registry = registry
        self.alpha_ms = alpha_ms
        self.probe_cpu_ms = probe_cpu_ms
        self.probe_interval_ms = probe_interval_ms
        self.probes_sent = 0
        self.deadlocks_found = 0

    def prober(self, txn_id: str, blocked_node: CaratNode,
               abort_victim: Callable[[], None]) -> Generator:
        """Process body watching one blocked transaction.

        Re-probes every ``probe_interval_ms`` until the transaction is
        granted, aborted, or found deadlocked (then ``abort_victim``
        is invoked).
        """
        while True:
            yield Timeout(self.probe_interval_ms)
            txn = self.registry.get(txn_id)
            if txn is None or txn.finished or txn.aborted:
                return
            if not blocked_node.locks.is_blocked(txn_id):
                return
            deadlocked = yield from self._chase(txn_id, blocked_node)
            if not deadlocked:
                continue
            # Re-validate: the world may have moved while we probed.
            if (blocked_node.locks.is_blocked(txn_id)
                    and not txn.aborted and not txn.finished):
                self.deadlocks_found += 1
                blocked_node.metrics.global_deadlock(blocked_node.name)
                abort_victim()
            return

    def _chase(self, initiator: str,
               start_node: CaratNode) -> Generator:
        """One edge chase; returns True when a cycle through the
        initiator exists (only cycles spanning >1 site reach here —
        single-site cycles are refused synchronously by the lock
        manager)."""
        visited: set[str] = {initiator}
        frontier = list(start_node.locks.blockers(initiator))
        current_site = start_node.name
        while frontier:
            txn_id = frontier.pop()
            if txn_id == initiator:
                return True
            if txn_id in visited:
                continue
            visited.add(txn_id)
            txn = self.registry.get(txn_id)
            if txn is None:
                continue
            # Visit each site where this transaction has agents and
            # collect who those agents wait for.  Sites where it is
            # merely *waiting* (holding nothing yet) count too; the
            # lock tables are the authoritative source, which stays
            # correct even when the parallel-remote extension lets a
            # transaction wait at two sites at once.
            sites = txn.touched_sites()
            for name, node in self.nodes.items():
                if name not in sites and node.locks.is_blocked(txn_id):
                    sites.append(name)
            for site in sites:
                node = self.nodes[site]
                if site != current_site:
                    yield Timeout(self.alpha_ms)
                    current_site = site
                self.probes_sent += 1
                yield node.cpu.serve(self.probe_cpu_ms)
                for blocker in node.locks.blockers(txn_id):
                    if blocker == initiator:
                        return True
                    if blocker not in visited:
                        frontier.append(blocker)
        return False
