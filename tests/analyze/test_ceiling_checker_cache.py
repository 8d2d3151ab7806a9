"""The ceiling checker's per-epoch ceiling table changes nothing.

``CeilingChecker._barrier`` keeps a ``(oid, write-held) -> ceiling``
table that lives for one active-set epoch.  This test re-derives every
barrier the checker computes with a full scan that has no table — the
checker's computation before the table existed — and requires the two
to agree on every ``on_grant`` and ``on_block`` of the golden ceiling
runs, single-site and distributed, and on three hand-built runs that
each need one of the table's invalidation rules.
"""

import pytest

from repro.analyze import sanitizer as sanitizer_module
from repro.analyze.invariants import CeilingChecker, _is_write
from repro.analyze.sanitizer import Sanitizer
from repro.cc.priority_ceiling import PriorityCeiling
from repro.kernel import Delay
from tests.conftest import LockClient, make_txn
from tests.core.golden_scenarios import run_scenario


def _full_scan_barrier(checker, txn):
    """(ceiling, oid, holders) recomputed from the registry and the
    lock table on every call, with no cached ceilings."""
    locks = checker.cc.locks

    def declared_write(t):
        if getattr(checker.cc, "exclusive_only", False):
            return t.access_set
        return t.write_set

    def write_ceiling(oid):
        priorities = [t.priority for t in checker._active
                      if oid in declared_write(t)]
        return max(priorities) if priorities else None

    def absolute_ceiling(oid):
        priorities = [t.priority for t in checker._active
                      if oid in t.access_set]
        return max(priorities) if priorities else None

    best = best_oid = None
    for oid in list(locks.locked_oids()):
        holders = locks.holders(oid)
        if not any(holder is not txn for holder in holders):
            continue
        if any(_is_write(mode) for mode in holders.values()):
            ceiling = absolute_ceiling(oid)
        else:
            ceiling = write_ceiling(oid)
        if ceiling is None:
            continue
        if best is None or ceiling > best:
            best, best_oid = ceiling, oid
    if best_oid is None:
        return None, None, []
    return best, best_oid, [holder for holder in locks.holders(best_oid)
                            if holder is not txn]


@pytest.fixture
def compared(monkeypatch):
    """Checks every barrier the checker computes against the full
    scan; yields the running tally."""
    tally = {"calls": 0, "barriers": 0, "mismatches": []}
    cached = CeilingChecker._barrier

    def checked(self, txn):
        got = cached(self, txn)
        want = _full_scan_barrier(self, txn)
        tally["calls"] += 1
        tally["barriers"] += got[0] is not None
        if got != want:
            tally["mismatches"].append((txn.tid, got[:2], want[:2]))
        return got

    monkeypatch.setattr(CeilingChecker, "_barrier", checked)
    monkeypatch.setattr(sanitizer_module, "_ACTIVE",
                        Sanitizer(strict=False))
    yield tally


@pytest.mark.parametrize("name", ["single_site_pcp", "single_site_pcpx",
                                  "dist_local", "dist_global"])
def test_cached_barrier_equals_the_full_scan(compared, name):
    run_scenario(name)
    assert compared["calls"] > 100
    assert compared["barriers"] > 0
    assert compared["mismatches"] == []


def _bystander(kernel, cc, txn, arrive, leave):
    """Registers ``txn`` (so its declared accesses raise ceilings)
    from ``arrive`` to ``leave`` without ever requesting a lock."""
    def body():
        yield Delay(arrive)
        cc.register(txn)
        yield Delay(leave - arrive)
        cc.deregister(txn)
    kernel.spawn(body(), f"bystander-{txn.tid}", priority=txn.priority)


def test_ceilings_fall_when_a_declarer_leaves(compared, kernel):
    # `high` raises object 1's ceiling to 10 and blocks `mid` on it;
    # when `high` leaves, the ceiling falls to 1 and `mid` is granted
    # with no register in between.
    cc = PriorityCeiling(kernel)
    low = LockClient(kernel, cc, make_txn([(1, "w")], priority=1),
                     hold=20.0)
    _bystander(kernel, cc, make_txn([(1, "w")], priority=10),
               arrive=1.0, leave=3.0)
    mid = LockClient(kernel, cc, make_txn([(2, "w")], priority=5),
                     start_delay=2.0)
    kernel.run()
    assert (3.0, "grant", 2) in mid.timeline
    assert low.timeline[-1][1] == "done"
    assert compared["barriers"] >= 2
    assert compared["mismatches"] == []


def test_ceilings_rise_when_a_declarer_arrives(compared, kernel):
    # `mid` is admitted under object 1's ceiling 1; `high` then raises
    # it to 10, which alone justifies blocking `upper` at priority 7.
    cc = PriorityCeiling(kernel)
    LockClient(kernel, cc, make_txn([(1, "w")], priority=1), hold=20.0)
    LockClient(kernel, cc, make_txn([(2, "w")], priority=5), hold=20.0,
               start_delay=1.0)
    _bystander(kernel, cc, make_txn([(1, "w")], priority=10),
               arrive=2.0, leave=30.0)
    upper = LockClient(kernel, cc, make_txn([(3, "w")], priority=7),
                       start_delay=3.0)
    kernel.run()
    assert upper.timeline[1][0] > 3.0  # ceiling-blocked at first
    assert compared["barriers"] >= 2
    assert compared["mismatches"] == []


def test_read_and_write_held_ceilings_differ_in_one_epoch(compared,
                                                          kernel):
    # While `writer` holds object 1, both readers block on it and see
    # its absolute ceiling 10.  At the writer's release both readers
    # are granted before it deregisters: the second grant sees object 1
    # read-held, with write ceiling 1, in the same epoch.
    cc = PriorityCeiling(kernel)
    LockClient(kernel, cc, make_txn([(1, "w")], priority=1), hold=10.0)
    first = LockClient(kernel, cc, make_txn([(1, "r")], priority=10),
                       hold=5.0, start_delay=1.0)
    second = LockClient(kernel, cc, make_txn([(1, "r")], priority=8),
                        hold=5.0, start_delay=2.0)
    kernel.run()
    assert first.timeline[1] == (10.0, "grant", 1)
    assert second.timeline[1] == (10.0, "grant", 1)
    assert compared["barriers"] >= 3
    assert compared["mismatches"] == []
