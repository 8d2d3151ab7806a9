"""Shared test helpers: micro-scenario builders for protocol tests.

Protocol tests need hand-built transactions driven by real kernel
processes.  ``LockClient`` is a scripted transaction-manager stand-in:
it acquires the transaction's operations in order, optionally holding
each or all locks for a while, and records a timeline of events the
assertions inspect.
"""

from __future__ import annotations

import gc

import pytest

from repro.db.locks import LockMode
from repro.kernel import Delay, Kernel
from repro.kernel.process import Process
from repro.txn.transaction import Transaction, TransactionType


@pytest.fixture
def kernel():
    return Kernel(seed=1234)


def make_txn(operations, priority, arrival=0.0, deadline=1e9, site=0):
    """Build a transaction from [(oid, 'r'|'w'), ...] shorthand."""
    ops = [(oid, LockMode.READ if mode == "r" else LockMode.WRITE)
           for oid, mode in operations]
    txn_type = (TransactionType.READ_ONLY
                if all(m is LockMode.READ for __, m in ops)
                else TransactionType.UPDATE)
    return Transaction(ops, arrival, deadline, priority, site=site,
                       txn_type=txn_type)


class LockClient:
    """Scripted lock-acquiring process for concurrency-control tests.

    Records ``(time, event, oid)`` tuples into :attr:`timeline`:
    ``request``/``grant`` per operation, ``done`` at release, and
    ``aborted`` if a TransactionAbort interrupt arrived.
    """

    def __init__(self, kernel, cc, txn, hold=0.0, hold_each=0.0,
                 start_delay=0.0, register=True):
        self.kernel = kernel
        self.cc = cc
        self.txn = txn
        self.hold = hold
        self.hold_each = hold_each
        self.start_delay = start_delay
        self.register = register
        self.timeline = []
        self.txn.process = kernel.spawn(
            self._body(), f"client-{txn.tid}", priority=txn.priority)
        self.txn.process.payload = txn

    def _body(self):
        from repro.txn.transaction import TransactionAbort
        if self.start_delay:
            yield Delay(self.start_delay)
        if self.register:
            self.cc.register(self.txn)
        try:
            for oid, mode in self.txn.operations:
                self.timeline.append((self.kernel.now, "request", oid))
                yield self.cc.acquire(self.txn, oid, mode)
                self.timeline.append((self.kernel.now, "grant", oid))
                if self.hold_each:
                    yield Delay(self.hold_each)
            if self.hold:
                yield Delay(self.hold)
            self.cc.release_all(self.txn)
            self.timeline.append((self.kernel.now, "done", None))
        except TransactionAbort as abort:
            self.cc.abort(self.txn)
            self.timeline.append((self.kernel.now, "aborted",
                                  type(abort).__name__))
        finally:
            self.cc.deregister(self.txn)

    # ------------------------------------------------------------------
    def events(self, kind):
        return [entry for entry in self.timeline if entry[1] == kind]

    def grant_time(self, oid):
        for time, event, event_oid in self.timeline:
            if event == "grant" and event_oid == oid:
                return time
        return None

    @property
    def finished(self):
        return any(event == "done" for __, event, ___ in self.timeline)

    @property
    def aborted(self):
        return any(event == "aborted" for __, event, ___ in self.timeline)


def _run_objects():
    return sum(isinstance(obj, (Process, Transaction))
               for obj in gc.get_objects())


def retained_after_run(build):
    """``Transaction`` and ``Process`` objects a finished run still
    holds while its system is alive: built by ``build()`` and its run,
    surviving a full collection.  Also checks that the kernel lists
    no terminated process."""
    gc.collect()
    before = _run_objects()
    system = build()
    system.run()
    assert not [process for process in system.kernel.processes
                if process.terminated]
    gc.collect()
    return _run_objects() - before
