"""Fixtures shared by the concurrency-control tests."""

import pytest

from repro.cc.priority_ceiling import PriorityCeiling


def scan_contributions(cc):
    """Protocol C's inheritance pass as the per-waiter scan the closed
    form replaced: wait-list order, then the holders of each waiter's
    barrier lock in holder order, ``waiter_priority()`` per waiter."""
    contributions = {}
    for request in cc.waiting:
        barrier = cc._barrier(request.txn)
        if barrier is None:
            continue
        priority = request.waiter_priority()
        for holder in barrier[2]:
            if holder is not request.txn and (
                    holder not in contributions
                    or contributions[holder] < priority):
                contributions[holder] = priority
    return contributions


class ClosedFormCheck:
    """Passes that gave some holder a contribution, and the mismatches
    found (kept, not raised: a pass may run inside a kernel process,
    which would swallow the error)."""

    def __init__(self):
        self.inheriting = 0
        self.mismatches = []


@pytest.fixture
def closed_form_check(monkeypatch):
    """Wrap ``PriorityCeiling._contributions``: every inheritance pass
    must equal :func:`scan_contributions` in values and key order."""
    closed_form = PriorityCeiling._contributions
    check = ClosedFormCheck()

    def checked(self):
        actual = closed_form(self)
        expected = scan_contributions(self)
        check.inheriting += bool(expected)
        if list(actual.items()) != list(expected.items()):
            check.mismatches.append(
                [(txn.tid, priority) for txn, priority in actual.items()]
                + ["!="]
                + [(txn.tid, priority)
                   for txn, priority in expected.items()])
        return actual

    monkeypatch.setattr(PriorityCeiling, "_contributions", checked)
    return check
