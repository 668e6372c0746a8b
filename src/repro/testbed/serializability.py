"""Conflict-serializability checking for simulated histories.

Strict two-phase locking guarantees conflict-serializable (indeed,
strict) schedules; this module *verifies* that claim on the histories
the simulator actually produced, instead of trusting the lock manager.

The check is the textbook one: build the precedence graph over
committed transactions — an edge ``T1 -> T2`` whenever they access a
common (site, granule) in conflicting modes and ``T1``'s access
happened first — and assert acyclicity.  A cycle is a serializability
violation and is reported with the offending transactions.

Enable history recording with ``SimulationConfig(record_history=True)``
(off by default: long runs would accumulate memory).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.testbed.locks import LockMode

__all__ = ["AccessRecord", "CommittedTransaction",
           "SerializabilityReport", "conflict_graph",
           "check_serializable"]


@dataclass(frozen=True)
class AccessRecord:
    """One granule access by a transaction."""

    site: str
    granule: int
    mode: LockMode
    acquired_at: float

    def conflicts_with(self, other: AccessRecord) -> bool:
        """Same item, at least one exclusive."""
        return (self.site == other.site
                and self.granule == other.granule
                and not self.mode.compatible(other.mode))


@dataclass(frozen=True)
class CommittedTransaction:
    """A committed transaction's access history."""

    txn_id: str
    committed_at: float
    accesses: tuple[AccessRecord, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class SerializabilityReport:
    """Outcome of :func:`check_serializable`."""

    serializable: bool
    transactions: int
    conflict_edges: int
    cycle: tuple[str, ...] = ()
    #: one witness serial order when serializable (topological)
    serial_order: tuple[str, ...] = ()


def conflict_graph(
        history: list[CommittedTransaction]) -> dict[str, list[str]]:
    """Precedence graph over a committed history, as adjacency lists.

    Every transaction is a key (in history order); its list holds its
    successors in first-seen order, without duplicates.  Edges point
    from the transaction whose conflicting access came first to the
    one whose access came later, which under 2PL is also the
    lock-release order.
    """
    graph: dict[str, list[str]] = {txn.txn_id: [] for txn in history}
    # Bucket accesses per item so the pairwise scan stays local.
    by_item: dict[tuple[str, int], list[tuple[AccessRecord, str]]] = {}
    for txn in history:
        for access in txn.accesses:
            by_item.setdefault((access.site, access.granule), []).append(
                (access, txn.txn_id))
    for accesses in by_item.values():
        accesses.sort(key=lambda pair: pair[0].acquired_at)
        for i, (first, first_txn) in enumerate(accesses):
            for later, later_txn in accesses[i + 1:]:
                successors = graph[first_txn]
                if (later_txn != first_txn and later_txn not in successors
                        and first.conflicts_with(later)):
                    successors.append(later_txn)
    return graph


def _serial_order_or_cycle(
        graph: dict[str, list[str]],
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """One iterative depth-first pass: ``(serial_order, ())`` when
    *graph* is acyclic (reverse post-order, so unrelated transactions
    keep history order), else ``((), cycle)`` where each cycle member
    has an edge to the next and the last to the first."""
    on_path: set[str] = set()
    done: set[str] = set()
    finished: list[str] = []
    for root in reversed(graph):
        if root in done:
            continue
        path = [root]
        on_path.add(root)
        successors = [iter(graph[root])]
        while successors:
            for nxt in successors[-1]:
                if nxt in on_path:
                    return (), tuple(path[path.index(nxt):])
                if nxt not in done:
                    path.append(nxt)
                    on_path.add(nxt)
                    successors.append(iter(graph[nxt]))
                    break
            else:
                successors.pop()
                node = path.pop()
                on_path.remove(node)
                done.add(node)
                finished.append(node)
    return tuple(reversed(finished)), ()


def check_serializable(
        history: list[CommittedTransaction]) -> SerializabilityReport:
    """Check a committed history for conflict-serializability."""
    graph = conflict_graph(history)
    order, cycle = _serial_order_or_cycle(graph)
    return SerializabilityReport(
        serializable=not cycle,
        transactions=len(graph),
        conflict_edges=sum(len(succ) for succ in graph.values()),
        cycle=cycle,
        serial_order=order,
    )
