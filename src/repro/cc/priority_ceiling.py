"""The priority ceiling protocol for real-time databases (protocol C).

Implements §3.2 of the paper.  Three ceilings exist per data object:

- **write-priority ceiling** — priority of the highest-priority active
  transaction that may *write* the object;
- **absolute-priority ceiling** — priority of the highest-priority
  active transaction that may *read or write* the object;
- **rw-priority ceiling** — set dynamically when the object is locked:
  equal to the absolute ceiling while write-locked, and to the write
  ceiling while read-locked.

Admission rule: "When a transaction attempts to lock a data object, the
transaction's priority is compared with the highest rw-priority ceiling
of all data objects currently locked by other transactions.  If the
priority of the transaction is not higher than the rw-priority ceiling,
the access request will be denied, and the transaction will be blocked"
— in which case the holder(s) of that highest-ceiling lock inherit the
blocked transaction's priority.

Under this rule "it is not necessary to check for the possibility of
read-write conflicts": the ceiling test subsumes lock conflicts.  We
keep the conflict check as a *hard assertion* — if it ever failed, the
implementation (not the run) would be wrong.

Ceiling scope note (documented deviation): Sha et al. define ceilings
over a fixed, statically known task set.  The paper's workload is an
open arrival stream, so — as in the real-time database adaptations of
the protocol — ceilings here are computed over the *currently active*
(registered) transactions' declared read/write sets.  Each transaction
predeclares its access sets, exactly the information the paper's
workload generator specifies ("size of their read-sets and write-sets").

``exclusive_only=True`` gives the §5 ablation: read semantics are
ignored, every lock is exclusive and both static ceilings collapse to
the absolute ceiling.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Set

from ..db.locks import LockError, LockMode
from ..txn.transaction import Transaction
from .base import ConcurrencyControl, Request


class PriorityCeiling(ConcurrencyControl):
    """Protocol C (and its exclusive-lock ablation)."""

    name = "C"
    cpu_policy = "priority"

    def __init__(self, kernel, exclusive_only: bool = False):
        super().__init__(kernel)
        self.exclusive_only = exclusive_only
        if exclusive_only:
            self.name = "Cx"
        #: Active transactions (started, not completed).
        self.active: Set[Transaction] = set()
        #: oid -> {active transaction declaring a write on it: its
        #: priority}, and the same for any access.
        self._writers: Dict[int, Dict[Transaction, float]] = {}
        self._accessors: Dict[int, Dict[Transaction, float]] = {}
        #: oid -> max priority of its writers / accessors: the static
        #: write and absolute ceilings, kept in step with the indexes.
        self._write_ceilings: Dict[int, float] = {}
        self._absolute_ceilings: Dict[int, float] = {}
        #: (head, runner-up) memo and the lock-table version it is for;
        #: see _barriers.
        self._barriers_memo = (None, None)
        self._barriers_version = -1
        #: Waiters in grant order, as (-txn.priority, seq, request)
        #: kept sorted by insertion: priorities are fixed and seqs
        #: unique, so requests are never compared.
        self._grant_queue: List[tuple] = []
        #: txn -> its waiting requests in enqueue order (an async
        #: requester may wait on several objects).
        self._waiting_by_txn: Dict[Transaction, List[Request]] = {}

    # ------------------------------------------------------------------
    # active set maintenance (drives the static ceilings)
    # ------------------------------------------------------------------
    def _indexes(self, txn: Transaction):
        """(declarer index, ceilings, declared oids) per static ceiling."""
        write_set = (txn.access_set if self.exclusive_only
                     else txn.write_set)
        return ((self._writers, self._write_ceilings, write_set),
                (self._accessors, self._absolute_ceilings,
                 txn.access_set))

    def register(self, txn: Transaction) -> None:
        super().register(txn)
        self._barriers_version = -1  # ceilings change: drop the memo
        self.active.add(txn)
        priority = txn.priority
        for index, ceilings, oids in self._indexes(txn):
            for oid in oids:
                index.setdefault(oid, {})[txn] = priority
                ceiling = ceilings.get(oid)
                if ceiling is None or priority > ceiling:
                    ceilings[oid] = priority
        if self.tracer is not None:
            self.tracer.ceiling_raise(self.kernel.now, txn,
                                      self._active_ceiling())

    def deregister(self, txn: Transaction) -> None:
        self._barriers_version = -1  # ceilings change: drop the memo
        self.active.discard(txn)
        for index, ceilings, oids in self._indexes(txn):
            for oid in oids:
                declarers = index.get(oid)
                if declarers is None:
                    continue
                priority = declarers.pop(txn, None)
                if not declarers:
                    del index[oid]
                    del ceilings[oid]
                elif priority == ceilings[oid]:
                    # The max declarer left: recompute this one ceiling.
                    ceilings[oid] = max(declarers.values())
        if self.tracer is not None:
            self.tracer.ceiling_lower(self.kernel.now, txn,
                                      self._active_ceiling())
        super().deregister(txn)  # ceilings dropped: re-evaluate waiters

    def _active_ceiling(self) -> Optional[float]:
        """Highest priority among active transactions (trace snapshot:
        the static-ceiling upper bound after a set change)."""
        best: Optional[float] = None
        for txn in self.active:
            if best is None or txn.priority > best:
                best = txn.priority
        return best

    # ------------------------------------------------------------------
    # ceilings
    # ------------------------------------------------------------------
    def write_ceiling(self, oid: int) -> Optional[float]:
        """Static write-priority ceiling (None if no active writer)."""
        return self._write_ceilings.get(oid)

    def absolute_ceiling(self, oid: int) -> Optional[float]:
        """Static absolute-priority ceiling (None if no active accessor)."""
        return self._absolute_ceilings.get(oid)

    def rw_ceiling(self, oid: int) -> Optional[float]:
        """Dynamic rw-priority ceiling of a *locked* object."""
        if self.locks.write_locked(oid):
            return self._absolute_ceilings.get(oid)
        return self._write_ceilings.get(oid)

    def _barriers(self):
        """(head, runner-up), each ``(ceiling, oid, holders, sole holder
        or None)`` or None, memoized per lock-table version: the rw
        selection changes only with the lock table, and the static
        ceilings only with the active set, which drops the memo.

        The *head* is the locked object with the highest rw-ceiling; it
        bars everyone but its sole holder, who is barred by the
        *runner-up*: the best object not held by that holder alone.
        One strictly-greater pass in lock-table insertion order finds
        both, so ties go to the earliest-locked object.  ``holders`` is
        the live table mapping.
        """
        version = self.locks.version
        if self._barriers_version == version:
            return self._barriers_memo
        head = runner_up = None
        write_ceilings = self._write_ceilings
        absolute_ceilings = self._absolute_ceilings
        for oid, record in self.locks.records():
            ceiling = (absolute_ceilings if record.writers
                       else write_ceilings).get(oid)
            if ceiling is None:
                continue
            holders = record.holders
            sole = next(iter(holders)) if len(holders) == 1 else None
            if head is None or ceiling > head[0]:
                # The old head stays the best object for the new head's
                # sole holder unless that holder held it alone too.
                if head is not None and (sole is None
                                         or head[3] is not sole):
                    runner_up = head
                head = (ceiling, oid, holders, sole)
            elif (head[3] is not None and sole is not head[3]
                  and (runner_up is None or ceiling > runner_up[0])):
                runner_up = (ceiling, oid, holders, sole)
        self._barriers_memo = (head, runner_up)
        self._barriers_version = version
        return self._barriers_memo

    def _barrier(self, txn: Transaction):
        """The barrier ``txn`` faces: the runner-up if it is the head's
        sole holder, else the head (None: no barrier)."""
        head, runner_up = self._barriers()
        if head is not None and head[3] is txn:
            return runner_up
        return head

    def _ceiling_barrier(self, txn: Transaction):
        """(ceiling, oid) of the highest rw-ceiling among objects locked
        by transactions other than ``txn``; (None, None) if no such
        object or none of them has a ceiling."""
        barrier = self._barrier(txn)
        return (None, None) if barrier is None else barrier[:2]

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def acquire(self, txn: Transaction, oid: int, mode: LockMode):
        if txn not in self.active:
            raise LockError(f"transaction {txn.tid} must be registered "
                            f"before acquiring locks under {self.name}")
        if self.exclusive_only:
            mode = LockMode.WRITE
        return super().acquire(txn, oid, mode)

    def _can_acquire(self, txn: Transaction, oid: int,
                     mode: LockMode) -> bool:
        barrier = self._barrier(txn)
        if barrier is not None and txn.priority <= barrier[0]:
            return False
        # The ceiling test passed; the grant must be conflict-free.
        # A failure here is an implementation bug, never a run condition.
        if not self.locks.can_grant(oid, txn, mode):
            raise LockError(
                f"ceiling test admitted txn {txn.tid} (prio "
                f"{txn.priority}) for {mode} on {oid}, but holders "
                f"{self.locks.holders(oid)} conflict — ceiling "
                f"subsumption violated")
        return True

    # ------------------------------------------------------------------
    # wait queue, wakeup order and inheritance
    # ------------------------------------------------------------------
    def _enqueue(self, request: Request) -> None:
        super()._enqueue(request)
        bisect.insort(self._grant_queue,
                      (-request.txn.priority, request.seq, request))
        self._waiting_by_txn.setdefault(request.txn, []).append(request)

    def _dequeue(self, request: Request) -> None:
        super()._dequeue(request)
        queue = self._grant_queue
        del queue[bisect.bisect_left(queue, (-request.txn.priority,
                                             request.seq))]
        requests = self._waiting_by_txn[request.txn]
        requests.remove(request)
        if not requests:
            del self._waiting_by_txn[request.txn]

    def _next_grant(self) -> Optional[Request]:
        """The first admissible waiter in (-priority, seq) order.

        Every waiter but the barrier head's sole holder S faces the
        head, and S's requests face the runner-up, whose ceiling is no
        higher.  So when the first waiter in that order fails, every
        later waiter fails too, except S's own requests."""
        queue = self._grant_queue
        if not queue:
            return None
        can_acquire = self._can_acquire
        request = queue[0][2]
        if can_acquire(request.txn, request.oid, request.mode):
            return request
        head, __ = self._barriers()
        for request in self._waiting_by_txn.get(head[3], ()):
            if can_acquire(request.txn, request.oid, request.mode):
                return request
        return None

    def _blockers(self, request: Request):
        """Live holders of ``request``'s barrier lock; the requester
        may be among them."""
        barrier = self._barrier(request.txn)
        return () if barrier is None else barrier[2]

    def _blocking_holders(self, request: Request) -> List[Transaction]:
        """Holder(s) of the lock with the highest rw-ceiling — the
        transaction(s) 'blocking' this request in the protocol's sense."""
        return [holder for holder in self._blockers(request)
                if holder is not request.txn]

    def _trace_blockers(self, request: Request) -> List[Transaction]:
        # Ceiling blocks have no direct lock conflict; snapshot the
        # barrier lock's holders so traces can classify inversions.
        return self._blocking_holders(request)

    def _after_change(self) -> None:
        # The PI fixpoint, with the edge going to the holder(s) of each
        # waiter's barrier lock rather than to direct conflicters.
        self._inherit(self._contributions)

    def _contributions(self) -> dict:
        """One inheritance pass in closed form, from the barrier head
        and runner-up rather than a scan of every waiter.

        Every waiter but the head's sole holder S faces the head, and
        S's requests face the runner-up.  So with a sole holder, S
        inherits the highest priority among the other waiters, and the
        runner-up's holders other than S the highest among S's own
        requests.  On a co-held head each holder h inherits the highest
        priority among the waiters other than h.

        The highest waiter priority is found by :meth:`_top_priority`
        from the grant queue, which is exact under two invariants:

        - every waiter's process has ``base_priority == txn.priority``;
        - only this manager's :meth:`_apply_inheritance` sets inherited
          priority on a waiter's process.

        Keys are inserted in the order the per-waiter scan
        (:meth:`_scan_contributions` over :meth:`_blockers`) inserts
        them, which follows from the first waiter in the wait list: S's
        key goes first unless that waiter is S, and on a co-held head a
        holder that is that waiter goes last.
        """
        contributions: dict = {}
        head, runner_up = self._barriers()
        if head is None or not self.waiting:
            return contributions
        first = self.waiting[0].txn
        sole = head[3]
        if sole is None:
            for holder in head[2]:
                if holder is not first:
                    contributions[holder] = self._top_priority(holder)
            if first in head[2]:
                top = self._top_priority(first)
                if top is not None:
                    contributions[first] = top
            return contributions
        top = self._top_priority(sole)
        if first is not sole:
            contributions[sole] = top
        own = None
        for request in self._waiting_by_txn.get(sole, ()):
            priority = request.waiter_priority()
            if own is None or own < priority:
                own = priority
        if own is not None and runner_up is not None:
            for holder in runner_up[2]:
                if holder is not sole:
                    contributions[holder] = own
        if first is sole and top is not None:
            contributions[sole] = top
        return contributions

    def _top_priority(self, excluded: Transaction) -> Optional[float]:
        """Highest effective priority among waiters of transactions
        other than ``excluded`` (None: there are none).

        By the invariants in :meth:`_contributions`, a waiter whose
        transaction does not inherit from this manager has effective
        priority ``txn.priority``, its grant-queue key.  So the answer
        is the first grant-queue entry of another transaction, unless
        a waiter whose transaction is in ``_inheriting`` beats it."""
        best = None
        for __, __, request in self._grant_queue:
            if request.txn is not excluded:
                best = request.waiter_priority()
                break
        waiting_by_txn = self._waiting_by_txn
        for txn in self._inheriting:
            if txn is not excluded and txn in waiting_by_txn:
                for request in waiting_by_txn[txn]:
                    priority = request.waiter_priority()
                    if best is None or best < priority:
                        best = priority
        return best
