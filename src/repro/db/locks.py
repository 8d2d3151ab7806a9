"""Lock modes and the lock table.

The lock table is *pure state*: which owner holds which mode on which
object, plus the compatibility predicate (including the read→write
upgrade case).  Blocking policy — who waits, in what order, and when a
waiter is re-evaluated — belongs to the concurrency-control protocols in
:mod:`repro.cc`, which is exactly the modular split the paper's
prototyping environment argues for (swapping the protocol touches only
the protocol module).

Owners are opaque hashables (the transaction objects of
:mod:`repro.txn.transaction`, but the table never looks inside them).

Hot-path design: each locked object is a slotted :class:`_LockRecord`
carrying a writer count (O(1) ``write_locked``).  ``version``
increments on every state transition, so protocol layers can cache
derived views (the ceiling protocol's barrier head) and invalidate with
a single integer compare.
"""

from __future__ import annotations

import enum
from typing import (Any, Dict, Hashable, Iterator, List, Mapping,
                    Optional, Set)


class LockMode(enum.Enum):
    READ = "read"
    WRITE = "write"

    def __str__(self) -> str:
        # The tracer serialises every lock event's mode through this.
        return self.value


def compatible(held: LockMode, requested: LockMode) -> bool:
    """Classic two-mode compatibility: only read/read is compatible."""
    return held is LockMode.READ and requested is LockMode.READ


class LockError(Exception):
    """An illegal lock-table transition (grant over a conflict, release
    of a lock not held).  Always indicates a protocol bug, never a
    runtime condition, so it is an assertion-style failure."""


class _LockRecord:
    """Per-object lock state.

    ``writers`` counts WRITE-mode holders (0 or 1 under two-mode
    compatibility, but counted rather than flagged so release never has
    to rescan).
    """

    __slots__ = ("holders", "writers")

    def __init__(self) -> None:
        self.holders: Dict[Hashable, LockMode] = {}
        self.writers = 0


_EMPTY: Dict[Hashable, LockMode] = {}


class LockTable:
    """Holders per object, with upgrade-aware compatibility checks.

    No ``__slots__`` here on purpose: the validation layer
    (:mod:`repro.core.validate`) wraps ``grant``/``release`` on table
    *instances*, and there is exactly one table per site anyway — the
    per-object :class:`_LockRecord` is the allocation that matters.
    """

    def __init__(self) -> None:
        #: oid -> live _LockRecord (removed as soon as it empties, so
        #: iteration order == insertion order of *currently* locked oids).
        self._records: Dict[int, _LockRecord] = {}
        #: owner -> set of oids it holds (reverse index)
        self._held_by: Dict[Hashable, Set[int]] = {}
        #: Bumped on every grant/release; cache-invalidation stamp for
        #: derived views held by protocol layers.
        self.version = 0
        #: Sanitizer hook (see :mod:`repro.analyze.invariants`): when
        #: set, ``on_table_grant``/``on_table_release`` fire after every
        #: state transition, catching corruption that slips past the
        #: protocol layer.  None in normal operation.
        self.observer: Optional[Any] = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def holders(self, oid: int) -> Dict[Hashable, LockMode]:
        """Current holders of ``oid`` (empty dict if unlocked)."""
        record = self._records.get(oid)
        return dict(record.holders) if record is not None else {}

    def holder_map(self, oid: int) -> Mapping[Hashable, LockMode]:
        """Holders of ``oid`` without copying.

        The returned mapping is the live table state — callers must
        treat it as read-only and must not hold it across transitions.
        """
        record = self._records.get(oid)
        return record.holders if record is not None else _EMPTY

    def mode_held(self, oid: int, owner: Hashable) -> Optional[LockMode]:
        record = self._records.get(oid)
        return record.holders.get(owner) if record is not None else None

    def is_locked(self, oid: int) -> bool:
        return oid in self._records

    def write_locked(self, oid: int) -> bool:
        record = self._records.get(oid)
        return record is not None and record.writers > 0

    def records(self):
        """Live ``(oid, record)`` pairs (``record.holders``,
        ``record.writers``) in lock-insertion order; read-only, like
        :meth:`holder_map`, and not valid across transitions."""
        return self._records.items()

    def locks_of(self, owner: Hashable) -> Dict[int, LockMode]:
        """All locks held by ``owner`` as {oid: mode}."""
        records = self._records
        return {oid: records[oid].holders[owner]
                for oid in self._held_by.get(owner, ())}

    def locked_oids(self) -> Iterator[int]:
        """Objects with at least one holder, in lock-insertion order."""
        return iter(self._records)

    def owners(self) -> Set[Hashable]:
        """All owners currently holding at least one lock."""
        return {owner for owner, oids in self._held_by.items() if oids}

    def can_grant(self, oid: int, owner: Hashable,
                  mode: LockMode) -> bool:
        """True if granting would not conflict with *other* holders.

        Handles re-grant (already holding an equal or stronger mode) and
        the read→write upgrade (allowed only for a sole holder).
        """
        record = self._records.get(oid)
        if record is None:
            return True
        holders = record.holders
        held = holders.get(owner)
        if held is LockMode.WRITE:
            return True  # already strongest
        if held is LockMode.READ and mode is LockMode.READ:
            return True
        if mode is LockMode.READ:
            return record.writers == 0
        # WRITE request: no other holder of any mode may remain.
        return len(holders) == (1 if held is not None else 0)

    def conflicting_holders(self, oid: int, owner: Hashable,
                            mode: LockMode) -> List[Hashable]:
        """Other owners whose held mode conflicts with ``mode``."""
        record = self._records.get(oid)
        if record is None:
            return []
        return [o for o, m in record.holders.items()
                if o is not owner and not compatible(m, mode)]

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------
    def grant(self, oid: int, owner: Hashable, mode: LockMode) -> None:
        """Record the lock.  Raises :class:`LockError` on conflict — the
        protocol must have checked :meth:`can_grant` first."""
        if not self.can_grant(oid, owner, mode):
            raise LockError(
                f"grant {mode} on {oid} to {owner!r} conflicts with "
                f"{self.holders(oid)}")
        record = self._records.get(oid)
        if record is None:
            record = self._records[oid] = _LockRecord()
        holders = record.holders
        held = holders.get(owner)
        if held is LockMode.WRITE:
            return  # idempotent: write subsumes everything
        if mode is LockMode.WRITE:
            holders[owner] = LockMode.WRITE
            record.writers += 1
        else:
            holders[owner] = LockMode.READ
        self._held_by.setdefault(owner, set()).add(oid)
        self.version += 1
        if self.observer is not None:
            self.observer.on_table_grant(oid, owner, holders[owner])

    def release(self, oid: int, owner: Hashable) -> None:
        """Release one lock.  Raises :class:`LockError` if not held."""
        record = self._records.get(oid)
        if record is None or owner not in record.holders:
            raise LockError(f"{owner!r} does not hold a lock on {oid}")
        if record.holders.pop(owner) is LockMode.WRITE:
            record.writers -= 1
        if not record.holders:
            del self._records[oid]
        self._held_by[owner].discard(oid)
        if not self._held_by[owner]:
            del self._held_by[owner]
        self.version += 1
        if self.observer is not None:
            self.observer.on_table_release(oid, owner)

    def release_all(self, owner: Hashable) -> List[int]:
        """Release every lock held by ``owner``; returns the freed oids."""
        oids = sorted(self._held_by.get(owner, ()))
        records = self._records
        for oid in oids:
            record = records[oid]
            if record.holders.pop(owner) is LockMode.WRITE:
                record.writers -= 1
            if not record.holders:
                del records[oid]
        self._held_by.pop(owner, None)
        if oids:
            self.version += 1
        return oids

    def __len__(self) -> int:
        """Total number of (owner, oid) lock grants outstanding."""
        return sum(len(record.holders)
                   for record in self._records.values())
