"""Event queue for the discrete-event kernel.

Events are ordered by ``(time, priority_key, sequence)``.  The sequence
number makes ordering *stable*: two events scheduled for the same instant
fire in scheduling order, which keeps every simulation run deterministic
for a given seed.

Hot-path design (this queue is the innermost loop of every run):

- **C-speed ordering** — the heap stores ``(time, key, seq, event)``
  tuples, so every ``heappush``/``heappop`` comparison is a C tuple
  comparison instead of a Python ``__lt__`` call.  At heap depth *d* a
  pop makes ~2·d comparisons; making them C-level is the single largest
  win in raw dispatch throughput.
- **resume slots, not closures** — process wake-ups store the process
  and its resume arguments directly on the :class:`Event`
  (``schedule_resume``), so the kernel never allocates a per-event
  lambda on the spawn/ready/interrupt path.
- **lazy deletion with compaction** — cancellation marks the event and
  is O(1); dead entries are skipped on pop.  When more than half the
  heap is dead (timer-heavy workloads: deadline watchdogs armed per
  transaction and cancelled at commit), the heap is compacted in place,
  bounding both memory and the ``log(heap)`` factor of every push.
- **reserved sequence numbers** — arrivals are queued one instant
  ahead (:meth:`~repro.kernel.Kernel.arrivals`) under sequence numbers
  reserved at build time, so the heap holds only the active set.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterator, Optional

#: Heaps smaller than this are never compacted (rebuild overhead would
#: exceed the scan cost it saves).
_COMPACT_MIN = 64


class Event:
    """A scheduled callback or process resume.

    Created by :class:`EventQueue`'s ``schedule*`` methods.  Exactly one
    of ``callback``
    (bare callable) or ``process`` (resume target, with ``value`` /
    ``exc`` delivered at the yield point) is set.
    """

    __slots__ = ("time", "key", "seq", "callback", "cancelled",
                 "process", "value", "exc", "queue")

    def cancel(self) -> None:
        """Mark the event so it will be skipped when its time comes.

        Goes through the owning queue so live-event accounting (and the
        compaction trigger) stays exact no matter which handle the
        caller held.  A no-op once the event was dispatched: dispatch
        clears ``queue``.
        """
        queue = self.queue
        if queue is not None and not self.cancelled:
            self.cancelled = True
            queue._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time:.6g}, seq={self.seq}{flag})"


class EventQueue:
    """A stable priority queue of :class:`Event` objects.

    Entries are ``(time, key, seq, Event)`` tuples in one heap, so tuple
    order is event order.  Live-count bookkeeping is *inverted*: the
    queue counts dead (cancelled, still-queued) entries, and ``len`` is
    derived as ``entries - dead``.  Scheduling and popping live events —
    the overwhelmingly common operations — therefore touch no counter
    at all; only cancellation and dead-entry reaping do.
    """

    __slots__ = ("_heap", "_seq", "_reserved", "_dead",
                 "_cancelled_total")

    def __init__(self) -> None:
        #: Heap of (time, key, seq, Event) — tuple order == event order.
        self._heap: list = []
        self._seq = 0
        #: Sequence numbers handed out by :meth:`reserve` and not yet
        #: queued: neither live nor dispatched.
        self._reserved = 0
        #: Cancelled entries still in the heap.
        self._dead = 0
        #: Lifetime cancellation count (never decremented); the
        #: telemetry KernelProbe derives timer churn from it.
        self._cancelled_total = 0

    def schedule(self, time: float, callback: Callable[[], None],
                 key: float = 0.0) -> Event:
        """Schedule ``callback`` to fire at ``time``.

        ``key`` breaks ties among events at the same instant: lower keys
        fire first.  Returns the :class:`Event`, which may be cancelled.

        The event is built via ``__new__`` + direct slot stores, with no
        ``__init__`` frame: this is the allocation every simulated
        action pays.
        """
        seq = self._seq
        self._seq = seq + 1
        event = Event.__new__(Event)
        event.time = time
        event.key = key
        event.seq = seq
        event.callback = callback
        event.cancelled = False
        # process/value/exc stay unset: the dispatch loops only read
        # them behind a `callback is None` check, which is never true
        # for events built here.
        event.queue = self
        heappush(self._heap, (time, key, seq, event))
        return event

    def schedule_resume(self, time: float, process: Any,
                        value: Any = None,
                        exc: Optional[BaseException] = None) -> Event:
        """Schedule a process resume without allocating a closure.

        The kernel's dispatch loop reads the resume arguments straight
        off the event (``callback is None`` marks the resume kind).
        """
        seq = self._seq
        self._seq = seq + 1
        event = Event.__new__(Event)
        event.time = time
        event.key = 0.0
        event.seq = seq
        event.callback = None
        event.cancelled = False
        event.process = process
        event.value = value
        event.exc = exc
        event.queue = self
        heappush(self._heap, (time, 0.0, seq, event))
        return event

    def reserve(self, count: int) -> int:
        """Set aside ``count`` sequence numbers; returns the first.
        Events queued at them later (:meth:`schedule_reserved`) order
        exactly as if they had been scheduled now."""
        base = self._seq
        self._seq = base + count
        self._reserved += count
        return base

    def schedule_reserved(self, time: float, callback: Callable[[], None],
                          seq: int) -> Event:
        """Schedule ``callback`` at ``time`` (key 0) under a sequence
        number taken from :meth:`reserve`."""
        self._reserved -= 1
        next_seq, self._seq = self._seq, seq
        event = self.schedule(time, callback)
        self._seq = next_seq
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (idempotent)."""
        event.cancel()

    def _note_cancel(self) -> None:
        """One live event became dead; compact when mostly dead."""
        self._dead += 1
        self._cancelled_total += 1
        size = len(self._heap)
        if size > _COMPACT_MIN and self._dead * 2 > size:
            self.compact()

    def compact(self) -> None:
        """Drop every cancelled entry from the heap, in place.

        In place on purpose: the kernel's dispatch loop holds a direct
        reference to the heap, which must stay valid across a
        compaction triggered from inside an event callback.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[3].cancelled]
        heapify(heap)
        self._dead = 0

    def pop_tied_entries(self) -> list:
        """Remove and return every live entry tied at the earliest
        ``(time, key)`` instant, in ``(time, key, seq)`` order.

        The controlled run loop (:mod:`repro.kernel.controlled`) uses
        this to surface simultaneous-event ties as choice points; entry
        0 is exactly what :meth:`pop` would have returned.  Unchosen
        entries go back via :meth:`push_entry` with their identity
        (and therefore their relative order) intact.
        """
        first = self._pop_live_entry()
        if first is None:
            return []
        batch = [first]
        time, key = first[0], first[1]
        while True:
            entry = self._peek_live_entry()
            if entry is None or entry[0] != time or entry[1] != key:
                break
            batch.append(self._pop_live_entry())
        return batch

    def push_entry(self, entry: tuple) -> None:
        """Reinsert a removed entry: one :meth:`pop_tied_entries` did
        not choose, or the first live entry past a run's horizon."""
        heappush(self._heap, entry)

    def _pop_live_entry(self) -> Optional[tuple]:
        heap = self._heap
        while heap:
            entry = heappop(heap)
            if not entry[3].cancelled:
                return entry
            self._dead -= 1
        return None

    def _peek_live_entry(self) -> Optional[tuple]:
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heappop(heap)
            self._dead -= 1
        return heap[0] if heap else None

    # ------------------------------------------------------------------
    # dispatch API — the only sanctioned way for the kernel's run loop
    # to reach the queue's heap (lint rule RPL015 bans direct
    # ``_heap`` access outside this module)
    # ------------------------------------------------------------------
    def dispatch_heap(self) -> list:
        """The heap itself, for the dispatch loop to pop directly.

        Its identity is stable across compaction, so a run loop may
        hold it for its whole lifetime.  The loop must clear
        ``event.queue`` on every event it dispatches.
        """
        return self._heap

    def note_dead(self, count: int = 1) -> None:
        """A dispatch loop removed ``count`` dead (cancelled) entries."""
        self._dead -= count

    def live_entries(self) -> Iterator[tuple]:
        """Every live queued entry, in heap order (not sorted)."""
        for entry in self._heap:
            if not entry[3].cancelled:
                yield entry

    def queue_stats(self) -> tuple:
        """``(live, dispatched_total, cancelled_total)`` for telemetry.

        A sequence number handed out is reserved but unqueued, queued,
        dispatched, or cancelled and reaped (``cancelled - dead`` of
        those), which is how the dispatch count is derived from it.
        """
        raw = len(self._heap)
        dead = self._dead
        cancelled = self._cancelled_total
        dispatched = self._seq - self._reserved - raw - (cancelled - dead)
        return raw - dead, dispatched, cancelled

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event (now dispatched, so no
        longer cancellable), or None if empty."""
        entry = self._pop_live_entry()
        if entry is None:
            return None
        entry[3].queue = None
        return entry[3]

    def peek_time(self) -> Optional[float]:
        """Time of the next live event without removing it.

        Dead prefix entries are dropped as they are skipped, so a
        peek/pop pair never scans the same dead prefix twice.
        """
        entry = self._peek_live_entry()
        return None if entry is None else entry[0]

    def __len__(self) -> int:
        return len(self._heap) - self._dead
