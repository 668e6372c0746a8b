"""Transaction execution: user processes driving the CARAT protocol.

Each user (paper's TR process) repeatedly submits one synthetic
transaction.  The driver walks the full message protocol of paper §2 —
TBEGIN/DBOPEN initialization, TDO requests routed through the TM
servers (local DOSTEP or remote REMDO), granule locking with local and
global deadlock detection, before-image journaling for updates, and
TEND with either a simple local commit or a centralized two-phase
commit — charging every CPU burst, TM critical section, message delay
and disk I/O to the simulated resources.

Resource costs come from the same :class:`SiteParameters` /
:class:`ProtocolCosts` tables that parameterize the analytical model,
so model and "measurement" stay comparable (paper §6).
"""

from __future__ import annotations

import bisect
import random
import zlib
from collections.abc import Generator
from typing import TYPE_CHECKING

from repro.model.types import BASE_TO_USER_CHAIN, BaseType, Phase
from repro.testbed.des import Fork, Timeout, Wait
from repro.testbed.locks import LockRequestOutcome
from repro.testbed.node import CaratNode
from repro.testbed.tracing import TraceEventKind
from repro.testbed.transactions import Transaction, lock_mode_of
from repro.testbed.wal import RecordType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.testbed.system import CaratSimulation
    from repro.testbed.telemetry import SpanClock

__all__ = ["UserProcess"]

#: Outcome markers passed through lock-wait events.
GRANTED = "granted"
ABORTED = "aborted"

#: Lock-request outcomes, read once (an Enum member read through its
#: class is a Python-level lookup, and this is paid per lock request).
_LOCK_GRANTED = LockRequestOutcome.GRANTED
_LOCK_DEADLOCK = LockRequestOutcome.DEADLOCK


class UserProcess:
    """One user terminal submitting transactions of a fixed base type.

    Phase transitions on the main driver timeline are marked on the
    telemetry span clock behind ``if clock is not None``, so a run
    without telemetry does not even read the ``Phase`` member.  Forked
    branches run on their own timelines and are always given a None
    clock: their duration is observed by the coordinator as CWC/RW
    wait, matching the model's delay-center view of 2PC and overlapped
    remote work.
    """

    def __init__(self, system: CaratSimulation, home: str,
                 base: BaseType, user_index: int):
        self.system = system
        self.sim = system.sim
        self.home = home
        self.base = base
        self.user_index = user_index
        # Stable per-user stream: crc32 keeps runs reproducible across
        # processes (str.__hash__ is salted per interpreter).
        material = f"{system.config.seed}:{home}:{base.value}:{user_index}"
        self.rng = random.Random(zlib.crc32(material.encode("ascii")))
        self._seq = 0
        #: cost-table chain and its basic cost row per site name,
        #: resolved once
        self._chain = BASE_TO_USER_CHAIN[base]
        self._costs = {name: node.params.costs[base]
                       for name, node in system.nodes.items()}
        # Type properties and visit counters, resolved once: the hot
        # path would otherwise re-derive an Enum property or hash a
        # (site, BaseType, name) key per request.
        self._is_update = base.is_update
        self._is_distributed = base.is_distributed
        self._lock_mode = lock_mode_of(base)
        counter = system.metrics.event_counter
        self._tm_msgs = counter(home, base, "tm_msg")
        self._slave_tm_msgs = {name: counter(name, base, "slave_tm_msg")
                               for name in system.nodes}
        self._lock_requests = {name: counter(name, base, "lock_request")
                               for name in system.nodes}
        self._granule_accesses = {
            name: counter(name, base, "granule_access")
            for name in system.nodes}

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self) -> Generator:
        """Process body: submit, retry on abort, think, repeat."""
        workload = self.system.workload
        think = workload.think_time_ms
        while True:
            yield from self.run_one()
            if think > 0:
                yield Timeout(self._think(think))

    def run_one(self) -> Generator:
        """Submit one transaction to commit (retrying aborts), record
        its metrics, and return.  Used directly by open-arrival
        sources, and by :meth:`run` in a loop for closed terminals."""
        workload = self.system.workload
        think = workload.think_time_ms
        cycle_start = self.sim.now
        telemetry = self.system.telemetry
        clock = (telemetry.start_cycle(self.home, self.base, cycle_start)
                 if telemetry is not None else None)
        while True:
            committed = yield from self._attempt(clock)
            if committed:
                break
            self.system.metrics.abort(self.home, self.base)
            if think > 0:
                if clock is not None:
                    clock.mark(self.sim.now, self.home, Phase.UT)
                yield Timeout(self._think(think))
        if clock is not None:
            clock.close(self.sim.now,
                        collecting=self.system.metrics.collecting)
        records = (workload.requests_per_txn
                   * workload.records_per_request)
        self.system.metrics.commit(
            self.home, self.base,
            self.sim.now - cycle_start, records)

    def _think(self, mean_ms: float) -> float:
        """Exponential think time (memoryless terminal)."""
        return self.rng.expovariate(1.0 / mean_ms)

    # ------------------------------------------------------------------
    # one execution attempt
    # ------------------------------------------------------------------

    def _attempt(self, clock: SpanClock | None = None) -> Generator:
        """Run one submission; returns True on commit, False on abort."""
        txn = self._begin()
        if clock is not None:
            clock.txn_id = txn.txn_id
            clock.attempts += 1
            clock.mark(self.sim.now, self.home, Phase.INIT)
        home = self.system.nodes[self.home]
        try:
            yield from self._init_phase(txn, home)
            plan = self._request_plan()
            if self.system.config.parallel_remote:
                outcome = yield from self._run_plan_parallel(txn, home,
                                                             plan, clock)
            else:
                outcome = yield from self._run_plan_serial(txn, home,
                                                           plan, clock)
            if outcome is not None:       # abort trigger site name
                yield from self._rollback(txn, outcome, clock)
                return False
            yield from self._commit(txn, home, clock)
            self._record_history(txn)
            return True
        finally:
            self._end(txn)

    def _run_plan_serial(self, txn: Transaction, home: CaratNode,
                         plan: list[str],
                         clock: SpanClock | None = None) -> Generator:
        """CARAT semantics: one active request at a time."""
        for kind in plan:
            outcome = yield from self._one_request(txn, home, kind,
                                                   clock)
            if outcome is not None:
                return outcome
        return None

    def _run_plan_parallel(self, txn: Transaction, home: CaratNode,
                           plan: list[str],
                           clock: SpanClock | None = None) -> Generator:
        """§7 extension: the remote request stream runs as one forked
        branch, overlapping the coordinator's local requests; the two
        streams join before commit.

        The remote requests stay sequential *among themselves* — each
        slave site has exactly one DM server per transaction, so two
        outstanding requests at a slave are physically impossible —
        but they no longer serialize with the local work.

        The forked branch runs on its own timeline, so it gets no span
        clock; the coordinator's join wait is attributed to RW.
        """
        remotes = [kind for kind in plan if kind == "remote"]
        locals_ = [kind for kind in plan if kind == "local"]
        branch = None
        if remotes:
            branch = yield Fork(
                self._run_plan_serial(txn, home, remotes))
        outcome = yield from self._run_plan_serial(txn, home, locals_,
                                                   clock)
        if branch is not None:
            if clock is not None:
                clock.mark(self.sim.now, self.home, Phase.RW)
            remote_outcome = yield Wait(branch.completion)
            if outcome is None:
                outcome = remote_outcome
        return outcome

    def _record_history(self, txn: Transaction) -> None:
        self.system.trace(TraceEventKind.COMMIT, txn.txn_id, self.home)
        if not self.system.config.record_history:
            return
        from repro.testbed.serializability import (AccessRecord,
                                                   CommittedTransaction)
        accesses = tuple(
            AccessRecord(site=site, granule=granule, mode=mode,
                         acquired_at=at)
            for site, granule, mode, at in txn.access_log)
        self.system.history.append(CommittedTransaction(
            txn_id=txn.txn_id, committed_at=self.sim.now,
            accesses=accesses))

    def _begin(self) -> Transaction:
        self._seq += 1
        workload = self.system.workload
        if self._is_distributed:
            sites = (self.home,) + tuple(
                s for s in workload.sites if s != self.home)
        else:
            sites = (self.home,)
        txn = Transaction(
            txn_id=f"{self.home}/{self.base.value}{self.user_index}"
                   f"#{self._seq}",
            base=self.base, home=self.home, sites=sites,
        )
        self.system.registry[txn.txn_id] = txn
        self.system.trace(TraceEventKind.BEGIN, txn.txn_id, self.home)
        return txn

    def _end(self, txn: Transaction) -> None:
        txn.finished = True
        for site in txn.sites:
            state = txn.state(site)
            if state.dm_allocated:
                self.system.nodes[site].dm_pool.release()
                state.dm_allocated = False
        self.system.registry.pop(txn.txn_id, None)

    def _request_plan(self) -> list[str]:
        """Shuffled sequence of local/remote request markers."""
        workload = self.system.workload
        if self._is_distributed:
            # Use the same l/r split as the model's coordinator chain.
            local = workload.local_requests(self._chain)
            remote = workload.remote_requests(self._chain)
        else:
            local = workload.requests_per_txn
            remote = 0
        plan = ["local"] * local + ["remote"] * remote
        self.rng.shuffle(plan)
        return plan

    # ------------------------------------------------------------------
    # protocol phases
    # ------------------------------------------------------------------

    def _init_phase(self, txn: Transaction, home: CaratNode) -> Generator:
        """TBEGIN + DBOPEN round trips; DM allocation at every site.

        DM servers are acquired in *global site order* (resource
        ordering) so DM-pool exhaustion can never deadlock — two
        distributed transactions holding each other's last DM would
        otherwise stall forever, invisible to the lock-level deadlock
        detectors.
        """
        yield from home.tm_message(home.params.protocol.tbegin_cpu)
        for site in sorted(txn.sites):
            node = self.system.nodes[site]
            if site != self.home:
                yield Timeout(self.system.alpha_ms)
            yield from node.tm_message(
                node.params.protocol.dbopen_cpu_per_site)
            yield from node.dm_pool.acquire()
            txn.state(site).dm_allocated = True
            if site != self.home:
                yield Timeout(self.system.alpha_ms)

    def _one_request(self, txn: Transaction, home: CaratNode,
                     kind: str,
                     clock: SpanClock | None = None) -> Generator:
        """One TDO request; returns None or the abort-trigger site."""
        costs = self._costs[self.home]
        metrics = self.system.metrics
        # U phase: the user process prepares the request.
        if clock is not None:
            clock.mark(self.sim.now, self.home, Phase.U)
        yield home.cpu.serve(costs.u_cpu)
        # TM dispatch (TDO -> DOSTEP or REMDO).
        if clock is not None:
            clock.mark(self.sim.now, self.home, Phase.TM)
        yield from home.tm_message(costs.tm_cpu)
        metrics.bump(self._tm_msgs)
        if kind == "local":
            outcome = yield from self._dm_request(txn, home, clock)
        else:
            target_name = self.rng.choice(txn.sites[1:])
            target = self.system.nodes[target_name]
            remote_costs = self._costs[target_name]
            # Network latency is RW at home; the inline processing at
            # the target is attributed to the target's own phases (the
            # model's slave-chain work).
            if clock is not None:
                clock.mark(self.sim.now, self.home, Phase.RW)
            yield Timeout(self.system.alpha_ms)
            if clock is not None:
                clock.mark(self.sim.now, target_name, Phase.TM)
            yield from target.tm_message(remote_costs.tm_cpu)
            metrics.bump(self._slave_tm_msgs[target_name])
            outcome = yield from self._dm_request(txn, target, clock)
            if clock is not None:
                clock.mark(self.sim.now, target_name, Phase.TM)
            yield from target.tm_message(remote_costs.tm_cpu)
            metrics.bump(self._slave_tm_msgs[target_name])
            if clock is not None:
                clock.mark(self.sim.now, self.home, Phase.RW)
            yield Timeout(self.system.alpha_ms)
        # TM response processing (DOSTEP_K / REMDO_K).
        if clock is not None:
            clock.mark(self.sim.now, self.home, Phase.TM)
        yield from home.tm_message(costs.tm_cpu)
        metrics.bump(self._tm_msgs)
        return outcome

    def _dm_request(self, txn: Transaction, node: CaratNode,
                    clock: SpanClock | None = None) -> Generator:
        """DM server executes one request at *node*; returns None on
        success or the node name on deadlock abort."""
        workload = self.system.workload
        costs = self._costs[node.name]
        state = txn.state(node.name)
        records = self._pick_records(node, workload.records_per_request)
        for record in records:
            granule = node.storage.granule_of(record)
            # DM processing between lock requests.
            if clock is not None:
                clock.mark(self.sim.now, node.name, Phase.DM)
            yield node.cpu.serve(costs.dm_cpu)
            if granule in state.held:
                continue
            outcome = yield from self._acquire_lock(txn, node, granule,
                                                    clock)
            if outcome is not None:
                return outcome
            state.held.add(granule)
            if clock is not None:
                clock.mark(self.sim.now, node.name, Phase.DMIO)
            yield node.cpu.serve(costs.dmio_cpu)
            self.system.metrics.bump(self._granule_accesses[node.name])
            yield from self._granule_io(txn, node, granule)
        # Final DM processing before the response message.
        if clock is not None:
            clock.mark(self.sim.now, node.name, Phase.DM)
        yield node.cpu.serve(costs.dm_cpu)
        return None

    def _pick_records(self, node: CaratNode, count: int) -> list[int]:
        """Random records from the site's partition — uniform, or
        skewed per the workload's b-c hot-spot or Zipf rule."""
        total = node.storage.records_total
        workload = self.system.workload
        if workload.zipf_s > 0.0:
            return self._pick_zipf_records(node, count)
        if not workload.is_hotspot:
            return self.rng.sample(range(total), count)
        hot_records = max(1, int(total * workload.hot_data_fraction))
        picked: set[int] = set()
        while len(picked) < count:
            if self.rng.random() < workload.hot_access_fraction:
                picked.add(self.rng.randrange(hot_records))
            else:
                picked.add(self.rng.randrange(hot_records, total))
        return list(picked)

    def _pick_zipf_records(self, node: CaratNode,
                           count: int) -> list[int]:
        """Zipf-skewed draw: granule ``i`` with probability
        proportional to ``(i + 1)^-s``, then a uniform record within
        the granule, retrying duplicates until ``count`` are distinct
        (mirrors the model's collision-multiplier view of the skew)."""
        cdf = self.system.zipf_cdf(node.name)
        per_granule = node.storage.records_per_granule
        picked: set[int] = set()
        while len(picked) < count:
            granule = bisect.bisect_right(cdf, self.rng.random())
            if granule >= len(cdf):  # guard the u == 1.0 edge
                granule = len(cdf) - 1
            picked.add(granule * per_granule
                       + self.rng.randrange(per_granule))
        return list(picked)

    def _acquire_lock(self, txn: Transaction, node: CaratNode,
                      granule: int,
                      clock: SpanClock | None = None) -> Generator:
        """LR phase: lock request, possible LW wait, deadlock handling."""
        costs = self._costs[node.name]
        if clock is not None:
            clock.mark(self.sim.now, node.name, Phase.LR)
        yield node.cpu.serve(costs.lr_cpu)
        self.system.metrics.bump(self._lock_requests[node.name])
        outcome = node.locks.request(txn.txn_id, granule, self._lock_mode)
        if outcome is _LOCK_GRANTED:
            self._log_access(txn, node, granule)
            return None
        if outcome is _LOCK_DEADLOCK:
            node.metrics.local_deadlock(node.name)
            self.system.trace(TraceEventKind.DEADLOCK_LOCAL,
                              txn.txn_id, node.name,
                              detail=f"granule={granule}")
            return node.name
        # Blocked: only now build the grant event, register it for
        # remote aborts and start a prober.
        wait = self.sim.event()
        node.locks.on_grant(txn.txn_id, lambda: wait.fire(GRANTED))
        node.metrics.lock_wait(node.name)
        if clock is not None:
            clock.mark(self.sim.now, node.name, Phase.LW)
        self.system.trace(TraceEventKind.LOCK_WAIT, txn.txn_id,
                          node.name, detail=f"granule={granule}")
        node.lock_wait_events[txn.txn_id] = wait
        txn.blocked_at = node.name
        yield Fork(self.system.detector.prober(
            txn.txn_id, node,
            abort_victim=lambda: self.system.abort_blocked(
                txn.txn_id, node.name)))
        result = yield Wait(wait)
        node.lock_wait_events.pop(txn.txn_id, None)
        txn.blocked_at = None
        if result == ABORTED:
            return node.name
        self.system.trace(TraceEventKind.LOCK_GRANT, txn.txn_id,
                          node.name, detail=f"granule={granule}")
        self._log_access(txn, node, granule)
        return None

    def _log_access(self, txn: Transaction, node: CaratNode,
                    granule: int) -> None:
        if self.system.config.record_history:
            txn.access_log.append(
                (node.name, granule, self._lock_mode, self.sim.now))

    def _granule_io(self, txn: Transaction, node: CaratNode,
                    granule: int) -> Generator:
        """DMIO phase: the physical I/O for one granule access."""
        state = txn.state(node.name)
        hit = (node.params.buffer_hit_probability > 0.0
               and self.rng.random() < node.params.buffer_hit_probability)
        if not hit:
            yield from node.disk_read()
        if self._is_update:
            before = node.storage.read_block(granule)
            node.journal.append(RecordType.BEFORE_IMAGE, txn.txn_id,
                                granule=granule, image=before)
            # Journal write (WAL rule: before-image durable before the
            # in-place block write).
            yield from node.log_force()
            after = tuple(v + 1 for v in before)
            node.storage.write_block(granule, after, flush=True)
            yield from node.disk_write()
            state.before_images.setdefault(granule, before)

    # ------------------------------------------------------------------
    # commit
    # ------------------------------------------------------------------

    def _commit(self, txn: Transaction, home: CaratNode,
                clock: SpanClock | None = None) -> Generator:
        """TEND: local commit or centralized two-phase commit."""
        protocol = home.params.protocol
        costs = self._costs[self.home]
        # The user prepares the TEND message (last U-phase visit).
        if clock is not None:
            clock.mark(self.sim.now, self.home, Phase.U)
        yield home.cpu.serve(costs.u_cpu)
        if not txn.is_distributed:
            home.journal.append(RecordType.COMMIT, txn.txn_id)
            force = (protocol.coordinator_commit_ios
                     if self._is_update
                     else protocol.readonly_commit_ios)
            if clock is not None:
                clock.mark(self.sim.now, self.home, Phase.TC)
            yield from home.tm_message(protocol.commit_cpu + costs.tm_cpu,
                                       force_ios=force, clock=clock)
            if clock is not None:
                clock.mark(self.sim.now, self.home, Phase.UL)
            yield from self._release_site(txn, home)
            return

        # --- centralized 2PC (paper §2, [GRAY79]) ---
        if clock is not None:
            clock.mark(self.sim.now, self.home, Phase.TC)
        yield from home.tm_message(protocol.commit_cpu + costs.tm_cpu)
        slaves = [self.system.nodes[s] for s in txn.sites[1:]]
        # Round 1: PREPARE, in parallel.
        yield from self._parallel_round(txn, home,
                                        [self._prepare_at(txn, s)
                                         for s in slaves], clock)
        # Coordinator decision: force the commit record.
        home.journal.append(RecordType.COMMIT, txn.txn_id)
        force = (protocol.coordinator_commit_ios if self._is_update
                 else protocol.readonly_commit_ios)
        if clock is not None:
            clock.mark(self.sim.now, self.home, Phase.TC)
        yield from home.tm_message(0.0, force_ios=force, clock=clock)
        # Round 2: COMMIT, in parallel.
        yield from self._parallel_round(txn, home,
                                        [self._commit_at(txn, s)
                                         for s in slaves], clock)
        if clock is not None:
            clock.mark(self.sim.now, self.home, Phase.UL)
        yield from self._release_site(txn, home)

    def _parallel_round(self, txn: Transaction, home: CaratNode,
                        branches: list[Generator],
                        clock: SpanClock | None = None) -> Generator:
        """Run one 2PC round: branches in parallel, then one ack
        processed at the coordinator TM per slave.

        Branches are forked (own timelines, no clock); the coordinator
        observes them as CWC — the model's 2PC commit-wait center."""
        costs = self._costs[self.home]
        processes = []
        for branch in branches:
            process = yield Fork(branch)
            processes.append(process)
        for process in processes:
            if clock is not None:
                clock.mark(self.sim.now, self.home, Phase.CWC)
            yield Wait(process.completion)
            if clock is not None:
                clock.mark(self.sim.now, self.home, Phase.TC)
            yield from home.tm_message(costs.tm_cpu)

    def _prepare_at(self, txn: Transaction,
                    node: CaratNode) -> Generator:
        """PREPARE processing at one slave site."""
        protocol = node.params.protocol
        costs = self._costs[node.name]
        yield Timeout(self.system.alpha_ms)
        force = 0
        if self._is_update and protocol.slave_commit_ios >= 1:
            node.journal.append(RecordType.PREPARE, txn.txn_id)
            force = 1
        self.system.trace(TraceEventKind.PREPARE, txn.txn_id,
                          node.name)
        yield from node.tm_message(costs.tm_cpu, force_ios=force)
        yield Timeout(self.system.alpha_ms)

    def _commit_at(self, txn: Transaction,
                   node: CaratNode) -> Generator:
        """COMMIT processing and lock release at one slave site."""
        protocol = node.params.protocol
        costs = self._costs[node.name]
        yield Timeout(self.system.alpha_ms)
        force = 0
        if self._is_update and protocol.slave_commit_ios >= 2:
            node.journal.append(RecordType.COMMIT, txn.txn_id)
            force = protocol.slave_commit_ios - 1
        yield from node.tm_message(costs.tm_cpu + protocol.commit_cpu,
                                   force_ios=force)
        yield from self._release_site(txn, node)
        yield Timeout(self.system.alpha_ms)

    def _release_site(self, txn: Transaction,
                      node: CaratNode) -> Generator:
        """UL phase at one site: unlock CPU, release the lock table."""
        protocol = node.params.protocol
        state = txn.state(node.name)
        if state.held:
            yield node.cpu.serve(
                protocol.unlock_cpu_per_lock * len(state.held))
        node.locks.release_all(txn.txn_id)
        state.held.clear()
        state.before_images.clear()

    # ------------------------------------------------------------------
    # abort / rollback
    # ------------------------------------------------------------------

    def _rollback(self, txn: Transaction, trigger_site: str,
                  clock: SpanClock | None = None) -> Generator:
        """TA/TAIO phases: undo updates and release locks everywhere."""
        txn.aborted = True
        self.system.trace(TraceEventKind.ABORT, txn.txn_id,
                          trigger_site)
        for site in txn.touched_sites():
            node = self.system.nodes[site]
            protocol = node.params.protocol
            if clock is not None:
                clock.mark(self.sim.now, node.name, Phase.TA)
            if site != txn.home:
                yield Timeout(self.system.alpha_ms)
            yield from node.tm_message(protocol.abort_message_cpu)
            state = txn.state(site)
            if state.before_images:
                undo = len(state.before_images)
                yield node.cpu.serve(
                    protocol.undo_cpu_per_granule * undo)
                for granule, image in state.before_images.items():
                    node.storage.write_block(granule, image, flush=True)
                if clock is not None:
                    clock.mark(self.sim.now, node.name, Phase.TAIO)
                yield from node.disk_write(
                    protocol.undo_ios_per_granule * undo)
                node.journal.append(RecordType.ABORT, txn.txn_id)
            if clock is not None:
                clock.mark(self.sim.now, node.name, Phase.UL)
            yield from self._release_site(txn, node)
