"""Mutation tests: break each protocol invariant on purpose and assert
the corresponding sanitizer detector fires — and that every violation
identifies the offending transaction and object.

Each test installs a *recording* sanitizer (strict=False) so the
mutated run completes and the collected violations can be inspected.
"""

import pytest

from repro.analyze.sanitizer import (Sanitizer, SanitizerViolation,
                                     install_sanitizer,
                                     uninstall_sanitizer)
from repro.cc.priority_ceiling import PriorityCeiling
from repro.cc.twopl import TwoPhaseLocking
from repro.db.locks import LockMode
from repro.db.replication import ReplicaCatalog
from repro.txn.transaction import TransactionAbort
from tests.conftest import LockClient, make_txn


@pytest.fixture
def san():
    sanitizer = install_sanitizer(Sanitizer(strict=False))
    yield sanitizer
    uninstall_sanitizer()


def only_codes(sanitizer):
    return sorted({v.code for v in sanitizer.violations})


# ----------------------------------------------------------------------
# SAN-PCP-CEILING — admission ignores the ceiling rule
# ----------------------------------------------------------------------
def test_broken_ceiling_admission_is_detected(kernel, san, monkeypatch):
    # Mutation: the admission test stops consulting the ceiling.
    monkeypatch.setattr(PriorityCeiling, "_can_acquire",
                        lambda self, txn, oid, mode: True)
    cc = PriorityCeiling(kernel)
    high = make_txn([(1, "w")], priority=10)
    low = make_txn([(2, "w")], priority=5)
    LockClient(kernel, cc, high, hold=20.0)
    # Arrives while object 1 (rw-ceiling 10) is locked by `high`:
    # protocol C must block it, the mutated admission lets it through.
    LockClient(kernel, cc, low, hold=5.0, start_delay=1.0)
    kernel.run()
    assert "SAN-PCP-CEILING" in only_codes(san)
    violation = next(v for v in san.violations
                     if v.code == "SAN-PCP-CEILING")
    assert violation.txn == low.tid
    assert violation.oid == 2
    assert violation.protocol == "C"


# ----------------------------------------------------------------------
# SAN-PCP-BLOCK — spurious blocking with no justification
# ----------------------------------------------------------------------
def test_spurious_ceiling_block_is_detected(kernel, san, monkeypatch):
    # Mutation: the protocol refuses every acquisition.
    monkeypatch.setattr(PriorityCeiling, "_can_acquire",
                        lambda self, txn, oid, mode: False)
    cc = PriorityCeiling(kernel)
    txn = make_txn([(1, "w")], priority=10)
    client = LockClient(kernel, cc, txn)
    kernel.run(until=50.0)
    assert "SAN-PCP-BLOCK" in only_codes(san)
    violation = san.violations[0]
    assert violation.txn == txn.tid
    assert violation.oid == 1
    # Unwedge the permanently-refused client so it can clean up while
    # the mutated protocol is still installed.
    kernel.interrupt(txn.process, TransactionAbort("test cleanup"))
    kernel.run()
    assert client.aborted


# ----------------------------------------------------------------------
# SAN-PCP-ONCE — blocked-at-most-once accounting
# ----------------------------------------------------------------------
def test_repeated_ceiling_blocking_is_detected(kernel, san):
    # Mutation at the client layer: an async requester withdraws and
    # re-requests within one stable active set, producing two blocking
    # episodes against the same lower-priority holder — more than the
    # PCP bound of one critical section allows.
    cc = PriorityCeiling(kernel)
    low = make_txn([(1, "w")], priority=1)
    high = make_txn([(1, "w")], priority=10)
    cc.register(low)
    cc.locks.grant(1, low, LockMode.WRITE)
    cc.register(high)
    for __ in range(2):
        granted = cc.acquire_async(high, 1, LockMode.WRITE,
                                   on_grant=lambda: None)
        assert not granted
        cc.cancel_async(high)
    assert "SAN-PCP-ONCE" in only_codes(san)
    violation = next(v for v in san.violations
                     if v.code == "SAN-PCP-ONCE")
    assert violation.txn == high.tid
    assert violation.oid == 1


def test_concurrent_async_waits_are_one_episode(kernel, san):
    # Not a mutation: the server-mode path may wait on several objects
    # at once.  Both waits sit out the same lower-priority critical
    # section, so they are one blocking episode, not two.
    cc = PriorityCeiling(kernel)
    low = make_txn([(0, "r")], priority=1)
    high = make_txn([(0, "w"), (1, "r")], priority=2)
    cc.register(low)
    assert cc.acquire_async(low, 0, LockMode.READ, on_grant=lambda: None)
    cc.register(high)
    for oid, mode in ((0, LockMode.WRITE), (1, LockMode.READ)):
        assert not cc.acquire_async(high, oid, mode,
                                    on_grant=lambda: None)
    assert san.clean, san.summary()


# ----------------------------------------------------------------------
# SAN-PCP-DEADLOCK — a direct-conflict wait cycle under protocol C
# ----------------------------------------------------------------------
def test_ceiling_deadlock_cycle_is_detected(kernel, san, monkeypatch):
    # Mutation: admission checks only direct lock compatibility (the
    # ceiling test — the thing that makes C deadlock-free — is gone).
    monkeypatch.setattr(
        PriorityCeiling, "_can_acquire",
        lambda self, txn, oid, mode: self.locks.can_grant(oid, txn,
                                                          mode))
    cc = PriorityCeiling(kernel)
    first = make_txn([(1, "w"), (2, "w")], priority=5)
    second = make_txn([(2, "w"), (1, "w")], priority=6)
    cc.register(first)
    cc.register(second)
    cc.locks.grant(1, first, LockMode.WRITE)
    cc.locks.grant(2, second, LockMode.WRITE)
    # Each now requests the other's object: a classic two-member cycle
    # the real admission test would have prevented.
    assert not cc.acquire_async(first, 2, LockMode.WRITE,
                                on_grant=lambda: None)
    assert not cc.acquire_async(second, 1, LockMode.WRITE,
                                on_grant=lambda: None)
    assert "SAN-PCP-DEADLOCK" in only_codes(san)
    violation = next(v for v in san.violations
                     if v.code == "SAN-PCP-DEADLOCK")
    assert violation.txn in (first.tid, second.tid)
    cc.cancel_async(first)
    cc.cancel_async(second)


# ----------------------------------------------------------------------
# SAN-2PL-PHASE — lock acquired after the first release
# ----------------------------------------------------------------------
def test_lock_after_unlock_is_detected(kernel, san):
    # Mutation at the client layer: a transaction manager that keeps
    # acquiring after its release point (broken two-phase discipline).
    cc = TwoPhaseLocking(kernel)
    txn = make_txn([(1, "w"), (2, "w")], priority=1)

    def broken_manager():
        cc.register(txn)
        yield cc.acquire(txn, 1, LockMode.WRITE)
        cc.release_all(txn)          # shrinking phase begins...
        yield cc.acquire(txn, 2, LockMode.WRITE)   # ...then grows again
        cc.release_all(txn)
        cc.deregister(txn)

    txn.process = kernel.spawn(broken_manager(), "broken-tm",
                               priority=txn.priority)
    kernel.run()
    assert only_codes(san) == ["SAN-2PL-PHASE"]
    violation = san.violations[0]
    assert violation.txn == txn.tid
    assert violation.oid == 2
    assert violation.protocol == "L"


# ----------------------------------------------------------------------
# SAN-2PL-STRICT — commit while still holding locks
# ----------------------------------------------------------------------
def test_commit_with_held_locks_is_detected(kernel, san):
    # Mutation at the client layer: a manager that commits without
    # releasing (strictness broken).
    cc = TwoPhaseLocking(kernel)
    txn = make_txn([(1, "w")], priority=1)

    def forgetful_manager():
        cc.register(txn)
        yield cc.acquire(txn, 1, LockMode.WRITE)
        cc.sanitizer.on_commit(txn)  # commit point, locks still held
        cc.release_all(txn)
        cc.deregister(txn)

    txn.process = kernel.spawn(forgetful_manager(), "forgetful-tm",
                               priority=txn.priority)
    kernel.run()
    assert "SAN-2PL-STRICT" in only_codes(san)
    violation = san.violations[0]
    assert violation.txn == txn.tid
    assert violation.oid == 1


# ----------------------------------------------------------------------
# SAN-LOCK-RACE — incompatible grants coexist
# ----------------------------------------------------------------------
def test_incompatible_coexisting_grants_are_detected(kernel, san):
    # Mutation: the lock table's compatibility predicate says yes to
    # everything, so two write locks land on one object.
    cc = TwoPhaseLocking(kernel)
    cc.locks.can_grant = lambda oid, owner, mode: True
    first = make_txn([(1, "w")], priority=1)
    second = make_txn([(1, "w")], priority=2)
    LockClient(kernel, cc, first, hold=20.0)
    LockClient(kernel, cc, second, hold=5.0, start_delay=1.0)
    kernel.run()
    assert "SAN-LOCK-RACE" in only_codes(san)
    # The table observer and the protocol hook see the same grant:
    # the race is reported once, not once per hook.
    assert san.by_code()["SAN-LOCK-RACE"] == 1
    violation = next(v for v in san.violations
                     if v.code == "SAN-LOCK-RACE")
    assert violation.oid == 1


# ----------------------------------------------------------------------
# SAN-REP-WRITER — a secondary originates an update
# ----------------------------------------------------------------------
def test_secondary_originated_update_is_detected(san):
    catalog = ReplicaCatalog(db_size=10, n_sites=3)
    oid = 0
    primary = catalog.primary_site(oid)
    secondary = (primary + 1) % 3
    # Legal propagation first: primary writes, secondary catches up.
    catalog.record_write(primary, oid, 5.0)
    catalog.record_write(secondary, oid, 5.0)
    assert san.clean
    # Mutation: the secondary originates a version the primary has
    # never seen (single-writer restriction R2 broken).
    catalog.record_write(secondary, oid, 9.0)
    assert only_codes(san) == ["SAN-REP-WRITER"]
    violation = san.violations[0]
    assert violation.oid == oid
    assert violation.site == secondary


# ----------------------------------------------------------------------
# SAN-CC-LEDGER — the request counters stop balancing
# ----------------------------------------------------------------------
def test_lost_block_count_is_detected(kernel, san, monkeypatch):
    # Mutation: every block is counted and then taken back, so
    # ``blocks`` falls behind the blocks the checker saw.
    def lose_count(self, request):
        self.stats.blocks -= 1

    monkeypatch.setattr(PriorityCeiling, "_on_block", lose_count)
    cc = PriorityCeiling(kernel)
    holder = make_txn([(1, "w")], priority=9)
    waiter = make_txn([(1, "w")], priority=5)
    LockClient(kernel, cc, holder, hold=5.0)
    LockClient(kernel, cc, waiter, start_delay=1.0)
    kernel.run()
    assert only_codes(san) == ["SAN-CC-LEDGER"]
    violations = [v for v in san.violations if v.code == "SAN-CC-LEDGER"]
    assert len(violations) == 1  # reported once, not per deregister
    assert violations[0].txn == holder.tid  # first to leave
    assert "blocks 0 != 1 observed" in violations[0].message
    assert "requests 2 != 1 immediate_grants + blocks" in (
        violations[0].message)


def test_waited_grant_counted_as_immediate_is_detected(kernel, san,
                                                       monkeypatch):
    # Mutation: a grant after waiting also bumps ``immediate_grants``.
    original = TwoPhaseLocking._grant_waiter

    def miscount(self, request):
        self.stats.immediate_grants += 1
        original(self, request)

    monkeypatch.setattr(TwoPhaseLocking, "_grant_waiter", miscount)
    cc = TwoPhaseLocking(kernel)
    first = make_txn([(1, "w")], priority=5)
    second = make_txn([(1, "w")], priority=5)
    LockClient(kernel, cc, first, hold=5.0)
    LockClient(kernel, cc, second, start_delay=1.0)
    kernel.run()
    assert only_codes(san) == ["SAN-CC-LEDGER"]
    violation = san.violations[0]
    assert violation.protocol == "L"
    assert "immediate_grants 2 != 1 observed" in violation.message


def test_balanced_ledger_is_clean(kernel, san):
    cc = PriorityCeiling(kernel)
    holder = make_txn([(1, "w")], priority=9)
    waiter = make_txn([(1, "w"), (2, "r")], priority=5)
    LockClient(kernel, cc, holder, hold=5.0)
    LockClient(kernel, cc, waiter, start_delay=1.0)
    kernel.run()
    assert cc.stats.blocks == 1 and cc.stats.immediate_grants == 2
    assert san.clean


# ----------------------------------------------------------------------
# strict mode raises, record mode collects
# ----------------------------------------------------------------------
def test_strict_mode_raises_on_first_violation(kernel):
    install_sanitizer(Sanitizer(strict=True))
    try:
        catalog = ReplicaCatalog(db_size=4, n_sites=2)
        secondary = 1 - catalog.primary_site(0)
        with pytest.raises(SanitizerViolation) as excinfo:
            catalog.record_write(secondary, 0, 1.0)
        assert excinfo.value.violation.code == "SAN-REP-WRITER"
    finally:
        uninstall_sanitizer()
