"""Spec oracle for protocol C: the ceiling rule and priority inheritance.

The golden summaries pin what the protocol outputs; this test pins what
it means.  Hypothesis draws a handful of transactions (small priorities,
so ties are common; read and write declarations on a few objects, so
read->write upgrades and co-held read locks occur) and a random
interleaving of ``register``, ``acquire``, ``acquire_async``,
``cancel_async``, ``exit``, ``release_all``, ``abort`` and
``deregister``.  Each transaction runs in its own process on a real
:class:`Kernel`; an ``acquire`` is the syscall the process yields, an
``abort`` of a parked transaction is a kernel interrupt.  An
``acquire_async`` is the global ceiling manager's server-mode request
(an ``on_grant`` callback, no parked process), so one transaction may
wait on several objects, also while it is the sole holder of the
barrier lock; ``cancel_async`` withdraws those requests, and ``exit``
ends a transaction's process, leaving waiters whose process terminated.

After every step, :class:`Oracle` recomputes the protocol from the
textbook definitions by full scans, with no caches:

- the admission decision of every ``acquire`` (granted at once iff the
  priority exceeds the highest rw-ceiling locked by others), and that
  no waiter left in the queue is admissible;
- every static and rw ceiling, ``_ceiling_barrier(txn)`` for every
  active transaction and ``_blocking_holders`` for every waiter;
- right after every inheritance pass (``_after_change``), each
  holder's inherited priority, as the fixpoint of "a holder inherits
  the highest effective priority among the waiters it blocks";
- on every re-evaluation (after a release, a deregister or a
  withdrawal), the grants issued, in order, against the naive rule:
  repeatedly grant the first admissible waiter in (-priority, seq)
  order.

Every inheritance pass is also compared with the per-waiter scan the
closed form replaced (the ``closed_form_check`` fixture).

Inheritance is compared only when the barrier wait-for graph is
acyclic.  Ceilings follow the open set of active transactions, so a
late high-priority registration can close a barrier cycle (see
``tests/properties/test_ceiling_props.py``); on a cycle the fixpoint
is not unique and the protocol's bounded pass keeps whatever value the
cycle carries.
"""

import types

from hypothesis import HealthCheck, event, given, settings
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

    def held(self):
        """oid -> {holder: mode}, in lock-insertion order."""
        return {oid: dict(self.cc.locks.holders(oid))
                for oid in self.cc.locks.locked_oids()}

    def rw_ceiling(self, oid, held=None):
        modes = (self.held() if held is None else held)[oid].values()
        if LockMode.WRITE in modes:
            return self.absolute_ceiling(oid)
        return self.write_ceiling(oid)

    def barrier(self, txn, held=None):
        """(ceiling, oid): the highest rw-ceiling among objects locked
        by others; ties go to the earliest-locked object."""
        held = self.held() if held is None else held
        best = (None, None)
        for oid, holders in held.items():
            if all(holder is txn for holder in holders):
                continue
            ceiling = self.rw_ceiling(oid, held)
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

    def admits(self, txn, held=None):
        ceiling, __ = self.barrier(txn, held)
        return ceiling is None or txn.priority > ceiling

    def grants(self):
        """(txn, oid, mode) the naive rule grants now, in order: the
        first admissible waiter in (-priority, seq) order, again and
        again, each grant applied to a copy of the lock table."""
        held = self.held()
        waiters = sorted(self.cc.waiting,
                         key=lambda request: (-request.txn.priority,
                                              request.seq))
        granted = []
        while True:
            request = next((request for request in waiters
                            if self.admits(request.txn, held)), None)
            if request is None:
                return granted
            waiters.remove(request)
            modes = held.setdefault(request.oid, {})
            modes[request.txn] = (LockMode.WRITE if LockMode.WRITE in (
                modes.get(request.txn), request.mode) else LockMode.READ)
            granted.append((request.txn, request.oid, request.mode))

    def edges(self):
        return [(request.txn, self.blocking_holders(request.txn))
                for request in self.cc.waiting]

    def inherited(self, edges):
        """Holder -> inherited priority, iterated to the fixpoint."""
        inherited = {}
        for __ in range(len(edges) + 1):
            update = {}
            for waiter, holders in edges:
                # A terminated process no longer carries inheritance.
                priority = (waiter.priority if waiter.process.terminated
                            else max(waiter.priority,
                                     inherited.get(waiter,
                                                   waiter.priority)))
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
        #: Inheritance passes skipped on a barrier cycle, passes
        #: compared while some holder inherits, grants compared with
        #: the naive rule, checks that saw the barrier head's sole
        #: holder wait on several objects and that saw a waiter whose
        #: process terminated (test statistics).
        self.cycles = self.inheriting = self.grants = 0
        self.sole_waits_twice = self.terminated_waiter = 0
        #: (txn, oid, mode) granted by the running re-evaluation.
        self.granted = []
        harness = self

        class Observed(PriorityCeiling):
            def _after_change(self):
                super()._after_change()
                harness.check_inheritance()

            def _reevaluate(self):
                expected = harness.oracle.grants()
                harness.granted = []
                super()._reevaluate()
                harness.grants += len(expected)
                if harness.granted != expected:
                    harness.mismatches.append(
                        f"granted {harness.describe(harness.granted)}, "
                        f"naive rule {harness.describe(expected)}")

            def _grant_waiter(self, request):
                harness.granted.append((request.txn, request.oid,
                                        request.mode))
                super()._grant_waiter(request)

        self.cc = Observed(self.kernel, exclusive_only=exclusive)
        self.oracle = Oracle(self.cc, exclusive)
        self.txns, self.ports = [], []
        #: Released, aborted or withdrawn: may not acquire until it
        #: deregisters.
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
            request = yield port.receive()
            if request is None:
                return  # exit: the process terminates
            oid, mode = request
            try:
                yield self.cc.acquire(txn, oid, mode)
            except TransactionAbort:
                self.cc.abort(txn)

    @staticmethod
    def describe(grants):
        return [(txn.tid, oid, mode.value) for txn, oid, mode in grants]

    def requests(self, txn):
        return [request for request in self.cc.waiting
                if request.txn is txn]

    def waiting(self, txn):
        return bool(self.requests(txn))

    def parked(self, txn):
        """Waiting in a blocking acquire (not an async request)."""
        return any(request.on_grant is None
                   for request in self.requests(txn))

    # -- steps -----------------------------------------------------------
    def step(self, kind, index, op_index):
        # Programs keep the transaction managers' contract, which the
        # sanitizer checks: strict two-phase locking (no acquire after
        # release_all) and no restart after an abort under protocol C
        # (an aborted transaction only deregisters).  Async requests
        # follow the global ceiling manager: at most one per object,
        # and an abort withdraws them first.
        txn = self.txns[index]
        active = txn in self.oracle.active
        alive = not txn.process.terminated
        oid, mode = txn.operations[op_index % len(txn.operations)]
        if (kind in ("register", "acquire", "acquire_async")
                and not active):
            # An acquire by an inactive transaction registers it first.
            self.oracle.active.add(txn)
            self.cc.register(txn)
            self.kernel.run()
            active = True
        if (kind == "acquire" and active and alive
                and not self.waiting(txn) and txn not in self.finished):
            admits = self.oracle.admits(txn)
            self.ports[index].send((oid, mode))
            self.kernel.run()
            assert self.waiting(txn) is not admits, (
                f"txn {txn.tid} acquire {mode} on {oid}: oracle "
                f"{'admits' if admits else 'blocks'}")
        elif (kind == "acquire_async" and active
              and not self.parked(txn) and txn not in self.finished
              and all(request.oid != oid
                      for request in self.requests(txn))):
            admits = self.oracle.admits(txn)
            granted = self.cc.acquire_async(txn, oid, mode,
                                            on_grant=lambda: None)
            assert granted is admits, (
                f"txn {txn.tid} acquire_async {mode} on {oid}: oracle "
                f"{'admits' if admits else 'blocks'}")
        elif (kind == "cancel_async" and self.waiting(txn)
              and not self.parked(txn)):
            self.finished.add(txn)
            self.cc.cancel_async(txn)
        elif kind == "exit" and alive and not self.parked(txn):
            self.ports[index].send(None)
        elif kind == "release_all" and active and not self.waiting(txn):
            self.finished.add(txn)
            self.cc.release_all(txn)
        elif kind == "abort" and active:
            self.finished.add(txn)
            if self.parked(txn):
                self.kernel.interrupt(txn.process,
                                      TransactionAbort("spec abort"))
            else:
                self.cc.cancel_async(txn)
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
            if txn.process.terminated:
                continue  # keeps whatever it carried when it ended
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
        head = cc._barriers()[0]
        if head is not None and head[3] is not None:
            self.sole_waits_twice += len(self.requests(head[3])) > 1
        self.terminated_waiter += any(request.process.terminated
                                      for request in cc.waiting)
        for request in cc.waiting:
            assert not oracle.admits(request.txn), (
                f"txn {request.txn.tid} still waits but is admissible")
            assert (cc._blocking_holders(request)
                    == oracle.blocking_holders(request.txn))


transactions = st.lists(
    st.tuples(
        st.lists(st.tuples(st.integers(0, OIDS - 1),
                           st.sampled_from("rw")),
                 min_size=1, max_size=4),
        st.integers(1, 4)),
    min_size=2, max_size=5)

steps = st.lists(
    st.tuples(st.sampled_from(("acquire", "acquire", "acquire",
                               "acquire_async", "acquire_async",
                               "register", "release_all", "abort",
                               "deregister", "cancel_async", "exit")),
              st.integers(0, 4), st.integers(0, 3)),
    min_size=8, max_size=40)


# The closed_form_check fixture only wraps a method and collects
# mismatches, so sharing it across the generated examples is safe.
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(transactions, steps, st.booleans())
def test_protocol_matches_textbook_oracle(closed_form_check, specs,
                                          program, exclusive):
    harness = Harness(specs, exclusive)
    for kind, index, op_index in program:
        harness.step(kind, index % len(specs), op_index)
        harness.check()
    assert not closed_form_check.mismatches, closed_form_check.mismatches
    event(f"blocks: {min(harness.cc.stats.blocks, 3)}")
    event(f"inheritance compared while inheriting: "
          f"{bool(harness.inheriting)}")
    event(f"barrier cycle skipped: {bool(harness.cycles)}")
    event(f"waiter grants compared: {min(harness.grants, 3)}")
    event(f"sole holder waits on several objects: "
          f"{bool(harness.sole_waits_twice)}")
    event(f"waiter with terminated process: "
          f"{bool(harness.terminated_waiter)}")


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


def test_fixed_program_sole_holder_waits_twice_then_exits(
        closed_form_check):
    """Async requests through the same harness: the barrier head's sole
    holder waits on two objects behind the runner-up, its holder
    inherits through it, and once the sole holder's process has ended
    its requests pass on only its base priority."""
    harness = Harness([([(0, "w"), (1, "w"), (2, "w")], 2),
                       ([(1, "r")], 3),
                       ([(0, "w")], 5),
                       ([(3, "w")], 1)], exclusive=False)
    sole, reader, urgent, late = harness.txns
    program = [("acquire", 0, 0), ("acquire", 1, 0), ("register", 2, 0),
               ("acquire_async", 0, 1), ("acquire_async", 0, 2),
               ("acquire", 2, 0)]
    for kind, index, op_index in program:
        harness.step(kind, index, op_index)
        harness.check()
    # Object 0 (rw-ceiling 5) is the head, held by sole alone; its two
    # requests face object 1, read-locked by reader (rw-ceiling 2).
    assert len(harness.requests(sole)) == 2
    assert harness.cc._ceiling_barrier(sole) == (2.0, 1)
    assert sole.process.inherited_priority == 5.0
    assert reader.process.inherited_priority == 5.0
    for kind, index, op_index in [("exit", 0, 0), ("acquire", 3, 0)]:
        harness.step(kind, index, op_index)
        harness.check()
    assert sole.process.terminated and harness.waiting(late)
    assert reader.process.inherited_priority == 2.0
    harness.step("release_all", 1, 0)
    harness.check()
    assert harness.cc.locks.locks_of(sole) == {
        0: LockMode.WRITE, 1: LockMode.WRITE, 2: LockMode.WRITE}
    assert harness.grants == 2
    assert reader.process.inherited_priority is None
    assert not closed_form_check.mismatches
    assert closed_form_check.inheriting


def run_program(harness, program):
    for kind, index, op_index in program:
        harness.step(kind, index, op_index)
        harness.check()


def test_fixed_program_co_held_head_first_waiter_is_a_holder(
        closed_form_check):
    """Object 0 is read-locked by two holders, and the first waiter is
    one of them: each holder inherits from the other waiters, and the
    waiting holder's key comes last, as in the per-waiter scan."""
    harness = Harness([([(0, "r"), (1, "w")], 2),
                       ([(0, "r")], 1),
                       ([(0, "w")], 4),
                       ([(2, "w")], 3)], exclusive=False)
    first, other, __, late = harness.txns
    run_program(harness, [("acquire", 0, 0), ("acquire", 1, 0),
                          ("register", 2, 0), ("acquire", 0, 1),
                          ("acquire", 3, 0)])
    assert harness.waiting(first) and harness.waiting(late)
    assert harness.cc._contributions() == {other: 3.0, first: 3.0}
    assert list(harness.cc._contributions()) == [other, first]
    assert first.process.inherited_priority == 3.0
    assert other.process.inherited_priority == 3.0
    assert not closed_form_check.mismatches


def test_fixed_program_sole_holder_cycle_through_runner_up(
        closed_form_check):
    """The head's sole holder waits behind the runner-up, whose holder
    waits behind the head: a barrier cycle (ceilings rose after both
    locks were granted).  The sole holder's priority comes back to it
    through the runner-up holder's inherited priority, which outranks
    the first other waiter in the grant queue."""
    harness = Harness([([(0, "w"), (2, "w")], 5),
                       ([(1, "w"), (0, "w")], 1),
                       ([(1, "w")], 5),
                       ([(0, "w")], 6),
                       ([(3, "w")], 3)], exclusive=False)
    sole, runner, __, __, late = harness.txns
    run_program(harness, [("acquire", 1, 0), ("acquire", 0, 0),
                          ("register", 2, 0), ("register", 3, 0),
                          ("acquire_async", 0, 1), ("acquire", 1, 1),
                          ("acquire", 4, 0)])
    assert harness.waiting(sole) and harness.waiting(runner)
    assert harness.cycles
    assert runner.process.inherited_priority == 5.0
    assert sole.process.inherited_priority == 5.0
    assert not closed_form_check.mismatches


def test_fixed_program_runner_up_co_held_by_sole_holder(
        closed_form_check):
    """The runner-up is read-locked by the head's sole holder and one
    other transaction: only the other holder inherits from the sole
    holder's request."""
    harness = Harness([([(1, "r")], 1),
                       ([(0, "w"), (1, "r"), (2, "w")], 5),
                       ([(1, "w")], 5),
                       ([(0, "w")], 6),
                       ([(3, "w")], 3)], exclusive=False)
    reader, sole, __, __, late = harness.txns
    run_program(harness, [("acquire", 0, 0), ("acquire", 1, 0),
                          ("acquire_async", 1, 1), ("register", 2, 0),
                          ("register", 3, 0), ("acquire", 4, 0),
                          ("acquire_async", 1, 2)])
    assert set(harness.cc.locks.holders(1)) == {reader, sole}
    assert harness.waiting(sole) and harness.waiting(late)
    assert harness.cc._contributions() == {sole: 3.0, reader: 5.0}
    assert reader.process.inherited_priority == 5.0
    assert not closed_form_check.mismatches
