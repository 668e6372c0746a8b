"""Transaction types and execution phases of the CARAT model.

The paper classifies workload transactions into four *base* types
(paper §2) and six *model* chain types (paper §4.2) once distributed
transactions are split into a coordinator plus slaves:

==========  =============================================
LRO         local read-only
LU          local update
DRO         distributed read-only      (base type only)
DU          distributed update         (base type only)
DROC/DROS   DRO coordinator / slave    (model chains)
DUC/DUS     DU coordinator / slave     (model chains)
==========  =============================================

A transaction always occupies exactly one *phase* (paper §4.1); the
phase set drives the visit-count algebra in
:mod:`repro.model.phases`.
"""

from __future__ import annotations

import enum

__all__ = ["BaseType", "ChainType", "Phase", "BASE_TO_USER_CHAIN",
           "CPU_PHASES", "DISK_PHASES", "DELAY_PHASES"]


class BaseType(enum.Enum):
    """Workload-level transaction type (what a user submits)."""

    LRO = "LRO"
    LU = "LU"
    DRO = "DRO"
    DU = "DU"

    @property
    def is_update(self) -> bool:
        """True when the transaction writes (takes exclusive locks)."""
        return self in (BaseType.LU, BaseType.DU)

    @property
    def is_distributed(self) -> bool:
        """True when the transaction issues remote requests."""
        return self in (BaseType.DRO, BaseType.DU)


class ChainType(enum.Enum):
    """Model-level chain type at a site (paper §4.2, set ``T``)."""

    LRO = "LRO"
    LU = "LU"
    DROC = "DROC"
    DUC = "DUC"
    DROS = "DROS"
    DUS = "DUS"

    @property
    def base(self) -> BaseType:
        """The base workload type this chain belongs to."""
        return _CHAIN_TO_BASE[self]

    @property
    def is_update(self) -> bool:
        """True when the chain takes exclusive locks."""
        return self in (ChainType.LU, ChainType.DUC, ChainType.DUS)

    @property
    def is_coordinator(self) -> bool:
        """True for the coordinator part of a distributed transaction."""
        return self in (ChainType.DROC, ChainType.DUC)

    @property
    def is_slave(self) -> bool:
        """True for the slave part of a distributed transaction."""
        return self in (ChainType.DROS, ChainType.DUS)

    @property
    def is_local(self) -> bool:
        """True for purely local transactions (no RW/CW visits)."""
        return self in (ChainType.LRO, ChainType.LU)

    @property
    def counterpart(self) -> ChainType:
        """Slave chain of a coordinator and vice versa.

        Raises
        ------
        ValueError
            For local chains, which have no counterpart.
        """
        pairs = {
            ChainType.DROC: ChainType.DROS,
            ChainType.DROS: ChainType.DROC,
            ChainType.DUC: ChainType.DUS,
            ChainType.DUS: ChainType.DUC,
        }
        if self not in pairs:
            raise ValueError(f"{self} has no coordinator/slave counterpart")
        return pairs[self]


_CHAIN_TO_BASE = {
    ChainType.LRO: BaseType.LRO,
    ChainType.LU: BaseType.LU,
    ChainType.DROC: BaseType.DRO,
    ChainType.DROS: BaseType.DRO,
    ChainType.DUC: BaseType.DU,
    ChainType.DUS: BaseType.DU,
}

#: Base type -> the user chain at its home site (the coordinator chain
#: for distributed types).
BASE_TO_USER_CHAIN = {
    BaseType.LRO: ChainType.LRO,
    BaseType.LU: ChainType.LU,
    BaseType.DRO: ChainType.DROC,
    BaseType.DU: ChainType.DUC,
}

#: Update chains (exclusive-lock holders), paper Eq. 15's set
#: ``{LU, DUC, DUS}``.
UPDATE_CHAINS = (ChainType.LU, ChainType.DUC, ChainType.DUS)


class Phase(enum.Enum):
    """Execution phase of a transaction (paper §4.1, set ``P``)."""

    UT = "UT"        #: user think wait (delay)
    INIT = "INIT"    #: transaction initialization (TBEGIN/DBOPEN)
    U = "U"          #: user application processing
    TM = "TM"        #: TM server message processing
    DM = "DM"        #: DM server processing between lock requests
    LR = "LR"        #: lock request processing (incl. deadlock search)
    DMIO = "DMIO"    #: database disk I/O burst
    LW = "LW"        #: blocked on a lock (delay)
    RW = "RW"        #: waiting for a remote request/response (delay)
    TC = "TC"        #: commit processing (2PC CPU)
    TA = "TA"        #: abort/rollback processing (CPU)
    TCIO = "TCIO"    #: commit log force-writes (disk)
    TAIO = "TAIO"    #: rollback disk I/O (disk)
    CWC = "CWC"      #: two-phase commit wait, commit outcome (delay)
    CWA = "CWA"      #: two-phase commit wait, abort outcome (delay)
    UL = "UL"        #: unlock processing (CPU)


#: Phases whose service requirement is CPU time (paper's ``P_cpu``).
CPU_PHASES = (Phase.INIT, Phase.U, Phase.TM, Phase.DM, Phase.LR,
              Phase.TC, Phase.TA, Phase.UL)

#: Phases whose service requirement is disk time (paper's ``P_disk``).
DISK_PHASES = (Phase.DMIO, Phase.TCIO, Phase.TAIO)

#: Pure synchronization phases served by delay centers.
DELAY_PHASES = (Phase.UT, Phase.LW, Phase.RW, Phase.CWC, Phase.CWA)

#: Deterministic ordering used for matrices and vectors.
PHASE_ORDER = (
    Phase.UT, Phase.INIT, Phase.U, Phase.TM, Phase.DM, Phase.LR,
    Phase.DMIO, Phase.LW, Phase.RW, Phase.TC, Phase.TA, Phase.TCIO,
    Phase.TAIO, Phase.CWC, Phase.CWA, Phase.UL,
)
