"""Runtime state of one (possibly distributed) transaction."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.model.types import BaseType
from repro.testbed.locks import LockMode

__all__ = ["SiteTxnState", "Transaction", "lock_mode_of"]


def lock_mode_of(base: BaseType) -> LockMode:
    """Update transactions lock exclusively, readers share."""
    return LockMode.EXCLUSIVE if base.is_update else LockMode.SHARED


@dataclass
class SiteTxnState:
    """What a transaction has done at one site so far."""

    #: granules locked at the site (mirror of the lock table, kept for
    #: the skip-if-held fast path)
    held: set[int] = field(default_factory=set)
    #: granule -> before image, for rollback bookkeeping
    before_images: dict[int, tuple[int, ...]] = field(default_factory=dict)
    #: whether a DM server is allocated at the site
    dm_allocated: bool = False


@dataclass
class Transaction:
    """One execution attempt of a user transaction."""

    txn_id: str
    base: BaseType
    home: str
    #: every site the transaction may touch (home first)
    sites: tuple[str, ...]
    site_state: dict[str, SiteTxnState] = field(default_factory=dict)
    #: site where the transaction is currently blocked in a lock wait
    blocked_at: str | None = None
    aborted: bool = False
    finished: bool = False
    #: (site, granule, mode, acquired_at) tuples when the system
    #: records history for serializability checking
    access_log: list[tuple[str, int, object, float]] = \
        field(default_factory=list)

    def __post_init__(self) -> None:
        for site in self.sites:
            self.site_state.setdefault(site, SiteTxnState())

    @property
    def lock_mode(self) -> LockMode:
        """The mode of every lock this transaction takes
        (:func:`lock_mode_of` its base type)."""
        return lock_mode_of(self.base)

    @property
    def is_distributed(self) -> bool:
        return len(self.sites) > 1

    def state(self, site: str) -> SiteTxnState:
        return self.site_state[site]

    def touched_sites(self) -> list[str]:
        """Sites where the transaction holds locks or made updates."""
        return [s for s, st in self.site_state.items()
                if st.held or st.before_images or st.dm_allocated]
