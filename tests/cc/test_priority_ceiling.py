"""Protocol C: the priority ceiling protocol."""

import pytest

from repro.cc import PriorityCeiling
from repro.db.locks import LockError, LockMode
from repro.kernel import Kernel
from tests.conftest import LockClient, make_txn


# ----------------------------------------------------------------------
# static ceilings
# ----------------------------------------------------------------------
def test_ceilings_follow_registered_access_sets(kernel):
    cc = PriorityCeiling(kernel)
    writer = make_txn([(1, "w")], priority=5)
    reader = make_txn([(1, "r")], priority=8)
    cc.register(writer)
    cc.register(reader)
    assert cc.write_ceiling(1) == 5      # highest priority writer
    assert cc.absolute_ceiling(1) == 8   # highest priority accessor
    cc.deregister(reader)
    assert cc.absolute_ceiling(1) == 5
    cc.deregister(writer)
    assert cc.write_ceiling(1) is None
    assert cc.absolute_ceiling(1) is None


def test_rw_ceiling_depends_on_lock_mode(kernel):
    cc = PriorityCeiling(kernel)
    writer = make_txn([(1, "w")], priority=5)
    reader = make_txn([(1, "r")], priority=8)
    cc.register(writer)
    cc.register(reader)
    cc.locks.grant(1, reader, LockMode.READ)
    # Read-locked: rw ceiling = write ceiling.
    assert cc.rw_ceiling(1) == 5
    cc.locks.release_all(reader)
    cc.locks.grant(1, writer, LockMode.WRITE)
    # Write-locked: rw ceiling = absolute ceiling.
    assert cc.rw_ceiling(1) == 8


def test_acquire_requires_registration(kernel):
    cc = PriorityCeiling(kernel)
    rogue = make_txn([(1, "w")], priority=5)
    with pytest.raises(LockError, match="registered"):
        cc.acquire(rogue, 1, LockMode.WRITE)


# ----------------------------------------------------------------------
# ceiling blocking
# ----------------------------------------------------------------------
def test_direct_conflict_blocked(kernel):
    cc = PriorityCeiling(kernel)
    t1 = make_txn([(1, "w")], priority=5)
    t2 = make_txn([(1, "w")], priority=9)
    c1 = LockClient(kernel, cc, t1, hold=5.0)
    c2 = LockClient(kernel, cc, t2, start_delay=1.0)
    kernel.run()
    assert c2.grant_time(1) == 5.0


def test_ceiling_blocks_unlocked_object_access(kernel):
    # The protocol "may forbid a transaction from locking an unlocked
    # data object" - the insurance premium.
    cc = PriorityCeiling(kernel)
    t1 = make_txn([(1, "w")], priority=5)     # locks object 1
    t2 = make_txn([(2, "w")], priority=3)     # wants *unlocked* object 2
    c1 = LockClient(kernel, cc, t1, hold=6.0)
    c2 = LockClient(kernel, cc, t2, start_delay=1.0)
    kernel.run()
    # t2's priority (3) <= rw-ceiling of object 1 (5): blocked until
    # t1 releases, despite object 2 being free.
    assert c2.grant_time(2) == 6.0
    assert cc.stats.ceiling_blocks == 1
    assert cc.stats.direct_blocks == 0


def test_higher_priority_passes_ceiling_on_disjoint_objects(kernel):
    cc = PriorityCeiling(kernel)
    t1 = make_txn([(1, "w")], priority=5)
    t2 = make_txn([(2, "w")], priority=8)     # higher than ceiling(1)=5
    c1 = LockClient(kernel, cc, t1, hold=6.0)
    c2 = LockClient(kernel, cc, t2, start_delay=1.0)
    kernel.run()
    assert c2.grant_time(2) == 1.0  # not blocked


def test_sha88_example_blocked_at_most_once(kernel):
    """The paper's §3.2 example: T2 blocked once by T3, regardless of
    how many objects T2 accesses."""
    cc = PriorityCeiling(kernel)
    t3 = make_txn([(3, "w")], priority=1)            # low, holds O3
    t2 = make_txn([(1, "w"), (2, "w")], priority=5)  # mid, two objects
    t1 = make_txn([(3, "w")], priority=9)            # high, shares O3
    LockClient(kernel, cc, t3, hold=6.0)
    c2 = LockClient(kernel, cc, t2, hold_each=1.0, start_delay=1.0)
    cc.register(t1)  # active but not yet locking: raises ceiling of O3
    kernel.run()
    # T2 was ceiling-blocked on its *first* object (ceiling of O3 is
    # T1's priority 9 > 5), and once unblocked at t=6 acquired both
    # objects without further blocking: blocked at most once.
    assert c2.grant_time(1) == 6.0
    assert c2.grant_time(2) == 7.0
    assert cc.stats.blocks == 1


def test_ceiling_block_triggers_priority_inheritance(kernel):
    cc = PriorityCeiling(kernel)
    t1 = make_txn([(1, "w")], priority=5)
    t2 = make_txn([(2, "w")], priority=3)
    t3 = make_txn([(3, "w")], priority=4)
    c1 = LockClient(kernel, cc, t1, hold=10.0)
    LockClient(kernel, cc, t2, start_delay=1.0)
    LockClient(kernel, cc, t3, start_delay=2.0)
    kernel.run(until=3.0)
    # t2 and t3 are both ceiling-blocked by t1's lock; t1 inherits the
    # maximum of their priorities.
    assert t1.process.effective_priority == 5  # own 5 > inherited 4
    kernel.run()


def test_inheritance_raises_low_priority_holder(kernel):
    cc = PriorityCeiling(kernel)
    low = make_txn([(1, "w")], priority=2)
    high = make_txn([(1, "w")], priority=9)
    LockClient(kernel, cc, low, hold=10.0)
    LockClient(kernel, cc, high, start_delay=1.0)
    kernel.run(until=2.0)
    assert low.process.effective_priority == 9
    kernel.run()
    assert low.process.inherited_priority is None


# ----------------------------------------------------------------------
# deadlock freedom
# ----------------------------------------------------------------------
def test_opposite_order_access_cannot_deadlock(kernel):
    # The classic 2PL deadlock scenario is deadlock-free under PCP.
    cc = PriorityCeiling(kernel)
    t1 = make_txn([(1, "w"), (2, "w")], priority=5)
    t2 = make_txn([(2, "w"), (1, "w")], priority=6)
    c1 = LockClient(kernel, cc, t1, hold_each=2.0)
    c2 = LockClient(kernel, cc, t2, hold_each=2.0)
    kernel.run()
    assert c1.finished and c2.finished
    assert len(cc.locks) == 0


def test_upgrade_deadlock_prevented_by_write_ceilings(kernel):
    # Two read-then-upgrade transactions deadlock under 2PL; under PCP
    # the second reader is blocked at its *read* because the declared
    # write intention raises the object's write ceiling.
    cc = PriorityCeiling(kernel)
    t1 = make_txn([(1, "r"), (1, "w")], priority=5)
    t2 = make_txn([(1, "r"), (1, "w")], priority=6)
    c1 = LockClient(kernel, cc, t1, hold_each=2.0)
    c2 = LockClient(kernel, cc, t2, hold_each=2.0)
    kernel.run()
    assert c1.finished and c2.finished


# ----------------------------------------------------------------------
# read/write semantics and the exclusive ablation
# ----------------------------------------------------------------------
def test_concurrent_readers_allowed_when_no_writer_active(kernel):
    cc = PriorityCeiling(kernel)
    r1 = make_txn([(1, "r")], priority=5)
    r2 = make_txn([(1, "r")], priority=6)
    c1 = LockClient(kernel, cc, r1, hold=5.0)
    c2 = LockClient(kernel, cc, r2, hold=5.0, start_delay=1.0)
    kernel.run()
    # Object 1 read-locked: rw ceiling = write ceiling = None (no active
    # writer declares it), so the second reader passes.
    assert c2.grant_time(1) == 1.0


def test_exclusive_mode_serializes_readers(kernel):
    cc = PriorityCeiling(kernel, exclusive_only=True)
    r1 = make_txn([(1, "r")], priority=5)
    r2 = make_txn([(1, "r")], priority=6)
    c1 = LockClient(kernel, cc, r1, hold=5.0)
    c2 = LockClient(kernel, cc, r2, hold=5.0, start_delay=1.0)
    kernel.run()
    # Exclusive semantics: the second reader waits for the first.
    assert c2.grant_time(1) == 5.0
    assert cc.name == "Cx"


def test_subsumption_assertion_never_fires_in_random_scenarios(kernel):
    # Drive a batch of registered transactions with random overlapping
    # access sets; the ceiling test must always subsume lock conflicts
    # (a LockError here would mean the protocol is broken).
    import random

    rng = random.Random(5)
    cc = PriorityCeiling(kernel)
    clients = []
    for index in range(12):
        size = rng.randint(1, 3)
        ops = [(rng.randint(1, 6), rng.choice("rw")) for __ in range(size)]
        seen = set()
        ops = [op for op in ops
               if op[0] not in seen and not seen.add(op[0])]
        txn = make_txn(ops, priority=float(index) + rng.random())
        clients.append(LockClient(kernel, cc, txn, hold_each=1.5,
                                  start_delay=rng.random() * 5))
    kernel.run()
    assert all(client.finished for client in clients)
    assert len(cc.locks) == 0
    assert cc.waiting_count == 0


# ----------------------------------------------------------------------
# barrier memo: invalidation and the runner-up
# ----------------------------------------------------------------------
def test_upgrade_raises_rw_ceiling_seen_by_next_admission(kernel):
    cc = PriorityCeiling(kernel)
    upgrader = make_txn([(1, "r"), (1, "w")], priority=3)
    reader = make_txn([(1, "r")], priority=7)
    probe = make_txn([(2, "w")], priority=5)
    for txn in (upgrader, reader, probe):
        cc.register(txn)
    cc.locks.grant(1, upgrader, LockMode.READ)
    # Read-locked: rw ceiling = write ceiling = 3 < 5.
    assert cc._ceiling_barrier(probe) == (3.0, 1)
    assert cc._can_acquire(probe, 2, LockMode.WRITE)
    cc.locks.grant(1, upgrader, LockMode.WRITE)
    # Write-locked: rw ceiling = absolute ceiling = 7 >= 5.
    assert cc._ceiling_barrier(probe) == (7.0, 1)
    assert not cc._can_acquire(probe, 2, LockMode.WRITE)


def test_register_raises_locked_ceiling_seen_by_next_admission(kernel):
    cc = PriorityCeiling(kernel)
    holder = make_txn([(1, "w")], priority=2)
    probe = make_txn([(2, "w")], priority=5)
    late = make_txn([(1, "r")], priority=8)
    cc.register(holder)
    cc.register(probe)
    cc.locks.grant(1, holder, LockMode.WRITE)
    assert cc._can_acquire(probe, 2, LockMode.WRITE)
    cc.register(late)  # a new accessor of the locked object
    assert cc.absolute_ceiling(1) == 8
    assert cc._ceiling_barrier(probe) == (8.0, 1)
    assert not cc._can_acquire(probe, 2, LockMode.WRITE)


def test_deregister_of_max_declarer_lowers_ceiling(kernel):
    cc = PriorityCeiling(kernel)
    holder = make_txn([(1, "w")], priority=2)
    probe = make_txn([(2, "w")], priority=5)
    tied = make_txn([(1, "r")], priority=6)
    top = make_txn([(1, "r")], priority=9)
    for txn in (holder, probe, tied, top):
        cc.register(txn)
    cc.locks.grant(1, holder, LockMode.WRITE)
    assert cc._ceiling_barrier(probe) == (9.0, 1)
    cc.deregister(top)  # the max declarer leaves: recompute to 6
    assert cc.absolute_ceiling(1) == 6
    assert cc._ceiling_barrier(probe) == (6.0, 1)
    assert not cc._can_acquire(probe, 2, LockMode.WRITE)
    cc.deregister(tied)
    assert cc._ceiling_barrier(probe) == (2.0, 1)
    assert cc._can_acquire(probe, 2, LockMode.WRITE)


def test_sole_holder_of_head_sees_runner_up(kernel):
    cc = PriorityCeiling(kernel)
    top = make_txn([(1, "w"), (3, "w")], priority=9)
    low = make_txn([(2, "w")], priority=4)
    reader = make_txn([(1, "r")], priority=1)
    for txn in (top, low, reader):
        cc.register(txn)
    cc.locks.grant(1, top, LockMode.WRITE)   # head: ceiling 9
    cc.locks.grant(2, low, LockMode.WRITE)   # runner-up: ceiling 4
    assert cc._ceiling_barrier(low) == (9.0, 1)
    assert cc._ceiling_barrier(reader) == (9.0, 1)
    # The head's sole holder is barred only by the runner-up.
    assert cc._ceiling_barrier(top) == (4.0, 2)
    assert cc._can_acquire(top, 3, LockMode.WRITE)
    cc.locks.release_all(low)
    assert cc._ceiling_barrier(top) == (None, None)
    # A co-holder of the head is barred by the head itself.
    cc.locks.release_all(top)
    cc.locks.grant(1, top, LockMode.READ)
    cc.locks.grant(1, reader, LockMode.READ)
    assert cc._ceiling_barrier(top) == (9.0, 1)
    assert not cc._can_acquire(top, 3, LockMode.WRITE)


def test_barrier_ties_go_to_the_earliest_locked_object(kernel):
    cc = PriorityCeiling(kernel)
    top = make_txn([(1, "w")], priority=9)
    first = make_txn([(2, "w")], priority=5)
    second = make_txn([(3, "w")], priority=5)
    probe = make_txn([(4, "w")], priority=1)
    for txn in (top, first, second, probe):
        cc.register(txn)
    for oid, owner in ((1, top), (3, second), (2, first)):
        cc.locks.grant(oid, owner, LockMode.WRITE)
    assert cc._ceiling_barrier(probe) == (9.0, 1)
    # Runner-up tie between objects 3 and 2: 3 was locked first.
    assert cc._ceiling_barrier(top) == (5.0, 3)
    cc.locks.release_all(top)
    # Head tie: object 3 leads; its sole holder sees object 2.
    assert cc._ceiling_barrier(probe) == (5.0, 3)
    assert cc._ceiling_barrier(second) == (5.0, 2)
    assert cc._ceiling_barrier(first) == (5.0, 3)
