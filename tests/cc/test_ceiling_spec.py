"""Spec oracle for protocol C: the ceiling rule and priority inheritance.

The golden summaries pin what the protocol outputs; this test pins what
it means.  Hypothesis draws a handful of transactions (small priorities,
so ties are common; read and write declarations on a few objects, so
read->write upgrades and co-held read locks occur) and a random
interleaving of ``register``, ``acquire``, ``release_all``, ``abort``
and ``deregister``.  Each transaction runs in its own process on a real
:class:`Kernel`; an ``acquire`` is the syscall the process yields, an
``abort`` of a waiting transaction is a kernel interrupt.

After every step, :class:`Oracle` recomputes the protocol from the
textbook definitions by full scans, with no caches:

- the admission decision of every ``acquire`` (granted at once iff the
  priority exceeds the highest rw-ceiling locked by others), and that
  no waiter left in the queue is admissible;
- every static and rw ceiling, ``_ceiling_barrier(txn)`` for every
  active transaction and ``_blocking_holders`` for every waiter;
- right after every inheritance pass (``_after_change``), each
  holder's inherited priority, as the fixpoint of "a holder inherits
  the highest effective priority among the waiters it blocks".

Inheritance is compared only when the barrier wait-for graph is
acyclic.  Ceilings follow the open set of active transactions, so a
late high-priority registration can close a barrier cycle (see
``tests/properties/test_ceiling_props.py``); on a cycle the fixpoint
is not unique and the protocol's bounded pass keeps whatever value the
cycle carries.
"""

import types

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.cc import PriorityCeiling
from repro.db.locks import LockMode
from repro.kernel import Kernel, Port
from repro.txn.transaction import TransactionAbort
from tests.conftest import make_txn

OIDS = 4


class Oracle:
    """Protocol C from the definitions: full scans, no caches."""

    def __init__(self, cc, exclusive: bool):
        self.cc = cc
        self.exclusive = exclusive
        self.active = set()

    def write_ceiling(self, oid):
        return max((txn.priority for txn in self.active
                    if oid in (txn.access_set if self.exclusive
                               else txn.write_set)), default=None)

    def absolute_ceiling(self, oid):
        return max((txn.priority for txn in self.active
                    if oid in txn.access_set), default=None)

    def rw_ceiling(self, oid):
        modes = self.cc.locks.holders(oid).values()
        if LockMode.WRITE in modes:
            return self.absolute_ceiling(oid)
        return self.write_ceiling(oid)

    def barrier(self, txn):
        """(ceiling, oid): the highest rw-ceiling among objects locked
        by others; ties go to the earliest-locked object."""
        best = (None, None)
        for oid in self.cc.locks.locked_oids():
            holders = self.cc.locks.holders(oid)
            if all(holder is txn for holder in holders):
                continue
            ceiling = self.rw_ceiling(oid)
            if ceiling is not None and (best[0] is None
                                        or ceiling > best[0]):
                best = (ceiling, oid)
        return best

    def blocking_holders(self, txn):
        __, oid = self.barrier(txn)
        if oid is None:
            return []
        return [holder for holder in self.cc.locks.holders(oid)
                if holder is not txn]

    def admits(self, txn):
        ceiling, __ = self.barrier(txn)
        return ceiling is None or txn.priority > ceiling

    def edges(self):
        return [(request.txn, self.blocking_holders(request.txn))
                for request in self.cc.waiting]

    def inherited(self, edges):
        """Holder -> inherited priority, iterated to the fixpoint."""
        inherited = {}
        for __ in range(len(edges) + 1):
            update = {}
            for waiter, holders in edges:
                priority = max(waiter.priority,
                               inherited.get(waiter, waiter.priority))
                for holder in holders:
                    if update.get(holder, priority) <= priority:
                        update[holder] = priority
            if update == inherited:
                break
            inherited = update
        return inherited


def has_cycle(edges):
    graph = {}
    for waiter, holders in edges:
        graph.setdefault(waiter, set()).update(holders)
    done, on_path = set(), set()

    def visit(node):
        on_path.add(node)
        for successor in graph.get(node, ()):
            if successor in on_path or (successor not in done
                                        and visit(successor)):
                return True
        on_path.discard(node)
        done.add(node)
        return False

    return any(node not in done and visit(node) for node in list(graph))


class Harness:
    """Transactions as kernel processes, driven one step at a time."""

    def __init__(self, specs, exclusive: bool):
        self.kernel = Kernel(seed=1)
        self.mismatches = []
        #: Inheritance passes skipped on a barrier cycle, and passes
        #: compared while some holder inherits (test statistics).
        self.cycles = self.inheriting = 0
        harness = self

        class Observed(PriorityCeiling):
            def _after_change(self):
                super()._after_change()
                harness.check_inheritance()

        self.cc = Observed(self.kernel, exclusive_only=exclusive)
        self.oracle = Oracle(self.cc, exclusive)
        self.txns, self.ports = [], []
        #: Released or aborted: may not acquire until it deregisters.
        self.finished = set()
        for index, (ops, priority) in enumerate(specs):
            txn = make_txn(ops, priority=float(priority))
            port = Port(self.kernel, f"inbox-{index}")
            txn.process = self.kernel.spawn(self._body(txn, port),
                                            f"txn-{index}",
                                            priority=txn.priority)
            txn.process.payload = txn
            self.txns.append(txn)
            self.ports.append(port)
        self.kernel.run()

    def _body(self, txn, port):
        while True:
            oid, mode = yield port.receive()
            try:
                yield self.cc.acquire(txn, oid, mode)
            except TransactionAbort:
                self.cc.abort(txn)

    def waiting(self, txn):
        return any(request.txn is txn for request in self.cc.waiting)

    # -- steps -----------------------------------------------------------
    def step(self, kind, index, op_index):
        # Programs keep the transaction managers' contract, which the
        # sanitizer checks: strict two-phase locking (no acquire after
        # release_all) and no restart after an abort under protocol C
        # (an aborted transaction only deregisters).
        txn = self.txns[index]
        active = txn in self.oracle.active
        if kind in ("register", "acquire") and not active:
            # An acquire by an inactive transaction registers it first.
            self.oracle.active.add(txn)
            self.cc.register(txn)
            self.kernel.run()
            active = True
        if (kind == "acquire" and active and not self.waiting(txn)
                and txn not in self.finished):
            oid, mode = txn.operations[op_index % len(txn.operations)]
            admits = self.oracle.admits(txn)
            self.ports[index].send((oid, mode))
            self.kernel.run()
            assert self.waiting(txn) is not admits, (
                f"txn {txn.tid} acquire {mode} on {oid}: oracle "
                f"{'admits' if admits else 'blocks'}")
        elif kind == "release_all" and active and not self.waiting(txn):
            self.finished.add(txn)
            self.cc.release_all(txn)
        elif kind == "abort" and active:
            self.finished.add(txn)
            if self.waiting(txn):
                self.kernel.interrupt(txn.process,
                                      TransactionAbort("spec abort"))
            else:
                self.cc.abort(txn)
        elif (kind == "deregister" and active and not self.waiting(txn)
              and not self.cc.locks.locks_of(txn)):
            self.oracle.active.discard(txn)
            self.finished.discard(txn)
            self.cc.deregister(txn)
        self.kernel.run()

    # -- checks ----------------------------------------------------------
    def check_inheritance(self):
        edges = self.oracle.edges()
        if has_cycle(edges):
            self.cycles += 1
            return
        expected = self.oracle.inherited(edges)
        self.inheriting += bool(expected)
        for txn in self.txns:
            actual = txn.process.inherited_priority
            if actual != expected.get(txn):
                self.mismatches.append(
                    f"txn {txn.tid}: inherited {actual}, oracle "
                    f"{expected.get(txn)}")

    def check(self):
        cc, oracle = self.cc, self.oracle
        assert not self.mismatches, self.mismatches
        for oid in range(OIDS):
            assert cc.write_ceiling(oid) == oracle.write_ceiling(oid)
            assert cc.absolute_ceiling(oid) == oracle.absolute_ceiling(oid)
            if cc.locks.is_locked(oid):
                assert cc.rw_ceiling(oid) == oracle.rw_ceiling(oid)
        for txn in oracle.active:
            assert cc._ceiling_barrier(txn) == oracle.barrier(txn)
            assert (cc._blocking_holders(types.SimpleNamespace(txn=txn))
                    == oracle.blocking_holders(txn))
        for request in cc.waiting:
            assert not oracle.admits(request.txn), (
                f"txn {request.txn.tid} still waits but is admissible")
            assert (cc._blocking_holders(request)
                    == oracle.blocking_holders(request.txn))


transactions = st.lists(
    st.tuples(
        st.lists(st.tuples(st.integers(0, OIDS - 1),
                           st.sampled_from("rw")),
                 min_size=1, max_size=3),
        st.integers(1, 4)),
    min_size=2, max_size=5)

steps = st.lists(
    st.tuples(st.sampled_from(("acquire", "acquire", "acquire",
                               "register", "release_all", "abort",
                               "deregister")),
              st.integers(0, 4), st.integers(0, 2)),
    min_size=8, max_size=40)


@settings(max_examples=200, deadline=None)
@given(transactions, steps, st.booleans())
def test_protocol_matches_textbook_oracle(specs, program, exclusive):
    harness = Harness(specs, exclusive)
    for kind, index, op_index in program:
        harness.step(kind, index % len(specs), op_index)
        harness.check()
    event(f"blocks: {min(harness.cc.stats.blocks, 3)}")
    event(f"inheritance compared while inheriting: "
          f"{bool(harness.inheriting)}")
    event(f"barrier cycle skipped: {bool(harness.cycles)}")


def test_fixed_program_blocks_inherits_and_upgrades():
    """One hand-written program through the same harness: a ceiling
    block on a read-locked object, inheritance moving to the new
    barrier holder, and a read->write upgrade."""
    harness = Harness([([(0, "r"), (0, "w")], 2),
                       ([(0, "r")], 1),
                       ([(1, "w")], 3)], exclusive=False)
    mid, low, high = harness.txns
    program = [("register", 1, 0), ("acquire", 1, 0),
               ("register", 0, 0), ("acquire", 0, 0),
               ("register", 2, 0), ("acquire", 2, 0),
               ("release_all", 1, 0)]
    for kind, index, op_index in program:
        harness.step(kind, index, op_index)
        harness.check()
    # mid's read is barred by object 1 (rw-ceiling 3, held by high),
    # so high now carries mid's priority and low carries nothing.
    assert harness.waiting(mid)
    assert harness.cc._ceiling_barrier(mid) == (3.0, 1)
    assert high.process.inherited_priority == 2.0
    assert low.process.inherited_priority is None
    for kind, index, op_index in [("release_all", 2, 0),
                                  ("acquire", 0, 1)]:
        harness.step(kind, index, op_index)
        harness.check()
    assert harness.cc.locks.holders(0) == {mid: LockMode.WRITE}
    assert harness.cc.stats.ceiling_blocks == 1
    assert high.process.inherited_priority is None
