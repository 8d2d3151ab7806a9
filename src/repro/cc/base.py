"""Concurrency-control protocol interface.

Every protocol (2PL, 2PL-priority, priority inheritance, priority
ceiling) shares this skeleton:

- :meth:`acquire` returns a syscall the transaction manager yields; it
  grants immediately or parks the requester in the protocol's wait set;
- :meth:`release_all` frees a committing transaction's locks and
  re-evaluates waiters;
- :meth:`abort` cleans up a transaction that died mid-flight (deadline
  miss or deadlock victim) — its pending request was already withdrawn
  by the kernel's interrupt machinery, so only held locks remain;
- :meth:`register`/:meth:`deregister` bracket a transaction's *active*
  interval (the ceiling protocol computes per-object ceilings from the
  declared access sets of registered transactions).

Subclasses implement ``_can_acquire`` (the admission test),
``_grant_order`` (which waiters to reconsider, in what order) or
``_next_grant`` (the next waiter to admit, when the protocol can find it
without testing every waiter) and ``_after_change`` (inheritance
bookkeeping, deadlock detection).
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Optional

from ..analyze.sanitizer import current_sanitizer
from ..constants import BLOCKING_CEILING, BLOCKING_DIRECT
from ..db.locks import LockMode, LockTable
from ..telemetry.probes import CCProbe
from ..telemetry.registry import current_metrics
from ..trace.tracer import current_tracer
from ..kernel.kernel import Kernel
from ..kernel.process import Process
from ..kernel.syscalls import BLOCKED, Call, Immediate
from ..txn.transaction import Transaction


class CCStats:
    """Counters every protocol maintains, for the Performance Monitor.

    ``KEYS`` is the *stable, documented* counter surface: summary rows
    emit exactly these names prefixed ``cc_`` (``cc_requests``,
    ``cc_ceiling_blocks``, ...), in this order, for every protocol.
    The full summary key set is pinned by the golden-file test
    ``tests/core/test_summary_keys.py`` — extend KEYS there too.
    """

    KEYS = (
        "requests",            # lock requests issued
        "immediate_grants",    # granted without waiting
        "blocks",              # requests that had to wait
        "ceiling_blocks",      # blocked with no direct lock conflict
        "direct_blocks",       # blocked on an incompatible holder
        "deadlocks",           # deadlock cycles resolved (2PL family)
        "inheritance_events",  # effective-priority raises applied
    )

    def __init__(self) -> None:
        for name in self.KEYS:
            setattr(self, name, 0)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.KEYS}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{name}={getattr(self, name)}"
                          for name in self.KEYS)
        return f"CCStats({parts})"


class Request:
    """A waiting lock request.

    Two delivery styles:

    - *blocking* (``on_grant is None``): the requesting process yielded
      the acquire syscall and is parked; the grant resumes it;
    - *async* (``on_grant`` set): created by :meth:`acquire_async` from
      a server process (the global ceiling manager); the grant invokes
      the callback instead — the requester is blocked elsewhere, waiting
      for the grant *message*.
    """

    __slots__ = ("txn", "oid", "mode", "process", "seq", "since",
                 "on_grant")

    def __init__(self, txn: Transaction, oid: int, mode: LockMode,
                 process: Process, seq: int, since: float,
                 on_grant=None):
        self.txn = txn
        self.oid = oid
        self.mode = mode
        self.process = process
        self.seq = seq
        self.since = since
        self.on_grant = on_grant

    def waiter_priority(self) -> float:
        """Effective priority of the waiter (for inheritance)."""
        if self.process is not None and not self.process.terminated:
            return self.process.effective_priority
        return self.txn.priority

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Request(txn={self.txn.tid}, oid={self.oid}, "
                f"mode={self.mode})")


class _RequestBlocker:
    """Kernel blocker protocol adapter for a waiting lock request."""

    __slots__ = ("cc", "request")

    def __init__(self, cc: "ConcurrencyControl", request: Request):
        self.cc = cc
        self.request = request

    def withdraw(self, process: Process) -> None:
        self.cc._withdraw(self.request)


class ConcurrencyControl:
    """Abstract base; see module docstring."""

    #: Human-readable protocol tag ("L", "P", "PI", "C", ...).
    name = "base"
    #: CPU discipline this protocol is designed for.
    cpu_policy = "priority"

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.locks = LockTable()
        self.waiting: List[Request] = []
        #: oid -> waiting requests on that object, in enqueue order —
        #: the per-object lock queue (same relative order as
        #: ``waiting``).  Maintained by _enqueue/_dequeue only.
        self._waiting_by_oid: dict = {}
        self.stats = CCStats()
        self._seq = itertools.count()
        #: Transactions currently carrying inherited priority from us.
        self._inheriting: set = set()
        #: Invariant checker when the protocol sanitizer is active
        #: (REPRO_SANITIZE / repro.analyze.sanitize); None keeps every
        #: hook site a single attribute test.
        active = current_sanitizer()
        self.sanitizer = (active.attach_protocol(self)
                          if active is not None else None)
        #: Structured event tracer (repro.trace); None keeps every
        #: hook site a single attribute test, like the sanitizer.
        self.tracer = current_tracer()
        #: Metrics probe (repro.telemetry); None when metering is off,
        #: honoring the same zero-cost-when-off contract.
        registry = current_metrics()
        self.meter = (CCProbe(registry, self.name)
                      if registry is not None else None)

    # ------------------------------------------------------------------
    # lifecycle hooks
    # ------------------------------------------------------------------
    def register(self, txn: Transaction) -> None:
        """The transaction becomes active (started, not completed)."""
        if self.sanitizer is not None:
            self.sanitizer.on_register(txn)

    def deregister(self, txn: Transaction) -> None:
        """The transaction left the system (committed or missed)."""
        if self.sanitizer is not None:
            self.sanitizer.on_deregister(txn)
        self._reevaluate()

    # ------------------------------------------------------------------
    # the lock API used by transaction managers
    # ------------------------------------------------------------------
    def acquire(self, txn: Transaction, oid: int, mode: LockMode) -> Call:
        """Syscall: obtain ``mode`` on ``oid``, blocking per protocol."""

        def attempt(kernel: Kernel, process: Process):
            if self._request(txn, oid, mode, process) is None:
                return Immediate(None)
            return BLOCKED

        return Call(attempt)

    def acquire_async(self, txn: Transaction, oid: int, mode: LockMode,
                      on_grant, process: Optional[Process] = None) -> bool:
        """Server-mode acquire used by the global ceiling manager.

        Returns True if the lock was granted immediately; otherwise the
        request is queued and ``on_grant()`` fires when it is granted.
        ``process`` (the remote transaction's manager process) feeds
        priority-inheritance bookkeeping.  Only deadlock-free protocols
        (the ceiling protocols) support this path — the 2PL victim
        machinery assumes a parked requester.
        """
        return self._request(
            txn, oid, mode,
            process if process is not None else txn.process,
            on_grant) is None

    def _request(self, txn: Transaction, oid: int, mode: LockMode,
                 process: Process, on_grant=None) -> Optional[Request]:
        """One lock request: grant it now (returns None) or park it and
        return the waiting :class:`Request`.  Without ``on_grant`` the
        requester is a process parked on the acquire syscall."""
        self.stats.requests += 1
        now = self.kernel.now
        tracer = self.tracer
        if tracer is not None:
            tracer.lock_request(now, txn, oid, mode)
        if self._can_acquire(txn, oid, mode):
            self.locks.grant(oid, txn, mode)
            self.stats.immediate_grants += 1
            if self.sanitizer is not None:
                self.sanitizer.on_grant(txn, oid, mode, waited=False)
            if tracer is not None:
                tracer.lock_grant(now, txn, oid, mode, waited=False)
            if self.meter is not None:
                self.meter.on_grant(now, txn, oid, waited=False)
            return None
        self.stats.blocks += 1
        conflicts = self.locks.conflicting_holders(oid, txn, mode)
        if conflicts:
            self.stats.direct_blocks += 1
            cause = BLOCKING_DIRECT
        else:
            self.stats.ceiling_blocks += 1
            cause = BLOCKING_CEILING
        request = Request(txn, oid, mode, process, next(self._seq), now,
                          on_grant=on_grant)
        self._enqueue(request)
        if on_grant is None:
            process.blocker = _RequestBlocker(self, request)
        if self.sanitizer is not None:
            self.sanitizer.on_block(txn, oid, mode)
        if tracer is not None:
            tracer.lock_block(now, txn, oid, mode, cause,
                              conflicts or self._trace_blockers(request))
        if self.meter is not None:
            self.meter.on_block(now, request, cause)
        # _on_block may raise a TransactionAbort into the requester
        # (deadlock victim); it must leave protocol state clean if so.
        self._on_block(request)
        self._after_change()
        return request

    def cancel_async(self, txn: Transaction) -> int:
        """Withdraw every queued async request of ``txn`` (abort path).

        Returns the number removed."""
        stale = [request for request in self.waiting
                 if request.txn is txn and request.on_grant is not None]
        for request in stale:
            self._dequeue(request)
            if self.tracer is not None:
                self.tracer.lock_withdraw(self.kernel.now, request.txn,
                                          request.oid)
            if self.meter is not None:
                self.meter.on_withdraw(self.kernel.now, request)
        if stale:
            self._reevaluate()
        return len(stale)

    def release_all(self, txn: Transaction) -> List[int]:
        """Free every lock ``txn`` holds; wake newly grantable waiters."""
        freed = self.locks.release_all(txn)
        if self.sanitizer is not None:
            self.sanitizer.on_release_all(txn, freed)
        if self.tracer is not None and freed:
            self.tracer.lock_release(self.kernel.now, txn, freed)
        if self.meter is not None and freed:
            self.meter.on_release(self.kernel.now, txn, freed)
        if freed or txn in self._inheriting:
            self._reevaluate()
        return freed

    def abort(self, txn: Transaction) -> None:
        """Clean up an aborted transaction's lock state.

        Its waiting request (if any) was withdrawn by the kernel when
        the interrupt was delivered; only held locks remain here.
        """
        self.release_all(txn)
        if self.sanitizer is not None:
            self.sanitizer.on_abort(txn)

    # ------------------------------------------------------------------
    # protocol extension points
    # ------------------------------------------------------------------
    def _can_acquire(self, txn: Transaction, oid: int,
                     mode: LockMode) -> bool:
        raise NotImplementedError

    def _on_block(self, request: Request) -> None:
        """Called after ``request`` was parked (inheritance, deadlock
        detection).  Default: nothing."""

    def _trace_blockers(self, request: Request) -> List[Transaction]:
        """Holders to snapshot on a conflict-free (ceiling) block.
        Protocols that can identify them override this; the trace
        layer uses the snapshot to classify inversion intervals."""
        return []

    def _grant_order(self) -> Iterable[Request]:
        """Waiters in the order they should be reconsidered."""
        raise NotImplementedError

    def _next_grant(self) -> Optional[Request]:
        """The waiter to grant next: the first admissible one in
        :meth:`_grant_order`, or None."""
        for request in self._grant_order():
            if self._can_acquire(request.txn, request.oid, request.mode):
                return request
        return None

    def _after_change(self) -> None:
        """Called whenever lock state or the wait set changed, after all
        grants were issued (inheritance recomputation hook)."""

    # ------------------------------------------------------------------
    # shared machinery
    # ------------------------------------------------------------------
    def _reevaluate(self) -> None:
        """Grant every waiter that is now admissible, one at a time
        (each grant changes the state the next choice depends on), then
        let the protocol update inheritance."""
        request = self._next_grant()
        while request is not None:
            self._grant_waiter(request)
            request = self._next_grant()
        self._after_change()

    def _grant_waiter(self, request: Request) -> None:
        self.locks.grant(request.oid, request.txn, request.mode)
        self._dequeue(request)
        if self.sanitizer is not None:
            self.sanitizer.on_grant(request.txn, request.oid,
                                    request.mode, waited=True)
        if self.tracer is not None:
            self.tracer.lock_grant(self.kernel.now, request.txn,
                                   request.oid, request.mode,
                                   waited=True)
        if self.meter is not None:
            now = self.kernel.now
            self.meter.on_unblock(now, request, now - request.since)
            self.meter.on_grant(now, request.txn, request.oid,
                                waited=True)
        if request.on_grant is not None:
            request.on_grant()
        else:
            self.kernel.ready(request.process)

    def _withdraw(self, request: Request) -> None:
        """Interrupt cleanup: the waiter leaves the wait set."""
        if request in self.waiting:
            self._dequeue(request)
            if self.tracer is not None:
                self.tracer.lock_withdraw(self.kernel.now, request.txn,
                                          request.oid)
            if self.meter is not None:
                self.meter.on_withdraw(self.kernel.now, request)
        self._reevaluate()

    def _enqueue(self, request: Request) -> None:
        self.waiting.append(request)
        self._waiting_by_oid.setdefault(request.oid, []).append(request)

    def _dequeue(self, request: Request) -> None:
        self.waiting.remove(request)
        queue = self._waiting_by_oid[request.oid]
        queue.remove(request)
        if not queue:
            del self._waiting_by_oid[request.oid]

    # ------------------------------------------------------------------
    # inheritance plumbing shared by PI, FMLP and ceiling protocols
    # ------------------------------------------------------------------
    def _inherit(self, contributions) -> None:
        """Inheritance fixpoint: each holder inherits the highest
        *effective* priority among the waiters it blocks, and effective
        priorities feed forward (T3 holding what T2 needs inherits T1's
        priority when T1 blocks on T2).  ``contributions()`` computes
        one pass as {holder: priority}, in the order
        :meth:`_apply_inheritance` applies them.  Chains are bounded by
        the number of waiters, so W + 1 passes suffice.
        """
        for __ in range(len(self.waiting) + 1):
            if not self._apply_inheritance(contributions()):
                break

    def _scan_contributions(self, blockers) -> dict:
        """One inheritance pass by a scan of every waiter:
        ``blockers(request)`` gives the holders blocking a waiter (the
        requester itself is skipped among them).  Contributions are
        inserted in waiter order, then holder order."""
        contributions: dict = {}
        for request in self.waiting:
            holders = blockers(request)
            if not holders:
                continue
            txn = request.txn
            waiter_priority = request.waiter_priority()
            for holder in holders:
                if holder is not txn:
                    current = contributions.get(holder)
                    if current is None or current < waiter_priority:
                        contributions[holder] = waiter_priority
        return contributions

    def _conflict_contributions(self) -> dict:
        """One pass of the PI rule: direct conflicters inherit."""
        return self._scan_contributions(self._conflicters)

    def _conflicters(self, request: Request) -> List[Transaction]:
        """Holders whose mode conflicts with ``request`` (PI's edges)."""
        return self.locks.conflicting_holders(request.oid, request.txn,
                                              request.mode)

    def _apply_inheritance(self, contributions: dict) -> bool:
        """Set inherited priorities from {txn: priority}.

        Transactions that previously inherited but no longer appear are
        cleared.  ``contributions`` values are effective priorities of
        the waiters each holder blocks.  Returns True if any effective
        priority changed (the PI fixpoint loop uses this to propagate
        inheritance chains).
        """
        changed = False
        for txn in list(self._inheriting):
            if txn not in contributions:
                self._inheriting.discard(txn)
                process = txn.process
                if (process is not None and not process.terminated
                        and process.inherited_priority is not None):
                    changed = True
                    if self.tracer is not None:
                        self.tracer.priority_restore(self.kernel.now, txn)
                    self.kernel.set_inherited_priority(process, None)
        for txn, priority in contributions.items():
            process = txn.process
            if process is None or process.terminated:
                continue
            # Setting the value a process already carries changes no
            # effective priority, so it is skipped: no poke is lost.
            if process.inherited_priority != priority:
                self.stats.inheritance_events += 1
                changed = True
                if self.tracer is not None:
                    self.tracer.priority_inherit(self.kernel.now, txn,
                                                 priority)
                self.kernel.set_inherited_priority(process, priority)
            self._inheriting.add(txn)
        return changed

    # ------------------------------------------------------------------
    # introspection used by tests and the monitor
    # ------------------------------------------------------------------
    @property
    def waiting_count(self) -> int:
        return len(self.waiting)

    def waiting_txns(self) -> List[Transaction]:
        return [request.txn for request in self.waiting]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(waiting={self.waiting_count}, "
                f"locks={len(self.locks)})")
