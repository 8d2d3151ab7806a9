"""Differential test: ``Kernel.run`` against a naive dispatch oracle.

The oracle is a plain list of pending records; each step dispatches
the live record with the smallest ``(time, key, seq)``.  Random
programs mix bare callbacks and process resumes, cancel events before
the run and from inside callbacks, and schedule new events at the
current instant or later; a cancel may also target an event that has
already fired, which must change nothing.  Each program runs as several
bounded ``run(until=h)`` segments and a final unbounded ``run()``.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import Kernel
from repro.kernel.process import Process, ProcessState

_TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.5, 6.0])
_KINDS = st.sampled_from(["call", "resume"])
_KEYS = st.sampled_from([0.0, 0.0, 1.0, 2.0])
_CHILD = st.tuples(st.just("at"), st.sampled_from([0.0, 0.0, 0.5, 3.0]),
                   _KEYS, _KINDS)
_CANCEL = st.tuples(st.just("cancel"), st.integers(0, 60))
_REACTIONS = st.lists(st.one_of(_CHILD, _CANCEL), max_size=3)
_INITIAL = st.lists(st.tuples(_TIMES, _KEYS, _KINDS, _REACTIONS),
                    min_size=1, max_size=24)
_PRE_CANCELS = st.lists(st.integers(0, 60), max_size=6)
_HORIZONS = st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.7, 2.0, 4.0, 9.0]),
                     max_size=4).map(sorted)


class _Driver:
    """The program semantics both sides share.

    Every scheduled event gets the next tag (== its sequence number:
    both sides schedule in the same order).  Firing an event logs
    ``(tag, now)`` and applies its reactions: ``at`` schedules a leaf
    event ``delta`` after now, ``cancel`` cancels any tag scheduled so
    far (a no-op on one that has fired).  Resumes carry key 0, as
    ``schedule_resume`` does.
    """

    def __init__(self):
        self.count = 0
        self.fired = set()
        self.log = []

    def add(self, time, key, kind, reactions):
        tag = self.count
        self.count += 1
        self._enqueue(tag, time, 0.0 if kind == "resume" else key, kind,
                      reactions)

    def cancel(self, index):
        if self.count:
            self._cancel(index % self.count)

    def fire(self, tag, reactions):
        self.fired.add(tag)
        self.log.append((tag, self.now))
        for reaction in reactions:
            if reaction[0] == "at":
                __, delta, key, kind = reaction
                self.add(self.now + delta, key, kind, ())
            else:
                self.cancel(reaction[1])


class _KernelSide(_Driver):
    def __init__(self):
        super().__init__()
        self.kernel = Kernel()
        self.handles = []

    @property
    def now(self):
        return self.kernel.now

    def run(self, until=None):
        return self.kernel.run(until)

    def _enqueue(self, tag, time, key, kind, reactions):
        events = self.kernel.events
        if kind == "call":
            self.handles.append(events.schedule(
                time, lambda: self.fire(tag, reactions), key))
        else:
            process = Process(self._body(tag, reactions), f"p{tag}")
            process.state = ProcessState.READY
            self.handles.append(events.schedule_resume(time, process))

    def _body(self, tag, reactions):
        self.fire(tag, reactions)
        return
        yield  # pragma: no cover - makes this a generator

    def _cancel(self, tag):
        self.handles[tag].cancel()


class _Oracle(_Driver):
    def __init__(self):
        super().__init__()
        self.now = 0.0
        self.pending = []
        self.cancelled = set()
        self.cancelled_total = 0
        self.dispatched = 0

    def _enqueue(self, tag, time, key, kind, reactions):
        self.pending.append((time, key, tag, reactions))

    def _cancel(self, tag):
        if tag not in self.cancelled and tag not in self.fired:
            self.cancelled.add(tag)
            self.cancelled_total += 1

    def live(self):
        return [record for record in self.pending
                if record[2] not in self.cancelled]

    def run(self, until=None):
        while True:
            live = sorted(self.live(), key=lambda record: record[:3])
            if not live or (until is not None and live[0][0] > until):
                break
            record = live[0]
            self.pending.remove(record)
            self.dispatched += 1
            self.now = record[0]
            self.fire(record[2], record[3])
        if until is not None and self.now < until:
            self.now = until
        return self.now


def _play(side, program):
    initial, pre_cancels, horizons = program
    for time, key, kind, reactions in initial:
        side.add(time, key, kind, reactions)
    for index in pre_cancels:
        side.cancel(index)
    # Per segment: the returned clock and how much has fired by then.
    return [(side.run(until=horizon), len(side.log))
            for horizon in horizons + [None]]


@given(_INITIAL, _PRE_CANCELS, _HORIZONS)
@settings(max_examples=250, deadline=None)
def test_run_matches_the_naive_oracle(initial, pre_cancels, horizons):
    program = (initial, pre_cancels, horizons)
    kernel_side = _KernelSide()
    kernel_segments = _play(kernel_side, program)
    oracle = _Oracle()
    oracle_segments = _play(oracle, program)

    assert kernel_side.log == oracle.log
    assert kernel_segments == oracle_segments
    assert kernel_side.kernel.now == oracle.now
    events = kernel_side.kernel.events
    live = len(oracle.live())
    assert len(events) == live
    assert events.queue_stats() == (live, oracle.dispatched,
                                    oracle.cancelled_total)


def test_horizon_stop_while_draining_keeps_order():
    # A backlog stopped mid-drain by the horizon, topped up, then
    # resumed: the survivors still dispatch in (time, key, seq) order.
    kernel = Kernel()
    log = []
    for time in (5.0, 1.0, 4.0, 2.0, 3.0, 6.0):
        kernel.at(time, lambda time=time: log.append(time))
    assert kernel.run(until=2.5) == 2.5
    assert log == [1.0, 2.0]
    kernel.at(2.5, lambda: log.append(2.5))
    kernel.at(4.0, lambda: log.append("4.0 later"))
    kernel.run()
    assert log == [1.0, 2.0, 2.5, 3.0, 4.0, "4.0 later", 5.0, 6.0]
    assert len(kernel.events) == 0
    assert kernel.events.queue_stats() == (0, 8, 0)


def test_cancel_after_dispatch_is_a_noop():
    kernel = Kernel()
    event = kernel.at(1.0, lambda: None)
    kernel.run()
    event.cancel()
    assert len(kernel.events) == 0
    assert not kernel.events
    assert kernel.events.queue_stats() == (0, 1, 0)


def _arrivals(*times):
    return [SimpleNamespace(arrival=time, index=index)
            for index, time in enumerate(times)]


def test_decreasing_schedule_raises():
    kernel = Kernel()
    admitted = []
    kernel.arrivals(_arrivals(1.0, 2.0, 1.5), 3, admitted.append)
    with pytest.raises(ValueError, match="decrease"):
        kernel.run()
    assert [spec.index for spec in admitted] == [0]


def test_simultaneous_arrivals_pop_as_one_tie():
    kernel = Kernel()
    kernel.at(0.5, lambda: None)  # seq 0, before the reserved block
    admitted = []
    kernel.arrivals(_arrivals(1.0, 1.0, 1.0, 2.0), 4, admitted.append)
    events = kernel.events
    # Queued: the timer and the three 1.0 arrivals; the 2.0 arrival's
    # reserved seq is neither live nor dispatched yet.
    assert events.queue_stats() == (4, 0, 0)
    assert events.pop_tied_entries()[0][2] == 0  # the timer alone
    batch = events.pop_tied_entries()
    assert [entry[2] for entry in batch] == [1, 2, 3]
    assert {entry[0] for entry in batch} == {1.0}
    for entry in batch:
        events.push_entry(entry)
    kernel.run()
    assert [spec.index for spec in admitted] == [0, 1, 2, 3]
    assert events.queue_stats() == (0, 5, 0)
