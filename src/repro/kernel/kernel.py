"""The concurrent kernel: discrete-event engine + process control.

This is the reproduction of the StarLite kernel layer the paper's
prototyping environment stands on: it supports creating, readying,
blocking, interrupting and terminating processes, with deterministic
virtual time.  All model layers (resources, database, concurrency
control, transaction managers, message servers) are ordinary process
code on top of this kernel — exactly the layering the paper argues for,
where swapping a synchronization protocol touches only its own module.
"""

from __future__ import annotations

from heapq import heappop
from typing import (Any, Callable, Dict, Generator, Iterable, List,
                    Optional)

from .clock import Clock
from .errors import (InvalidProcessState, KernelError, ProcessInterrupt,
                     SimulationOver)
from .events import Event, EventQueue
from .process import Process, ProcessState
from .rng import RngStreams
from .syscalls import BLOCKED, Immediate, SysCall


class Kernel:
    """Owns the clock, the event queue, and every live process."""

    def __init__(self, seed: int = 0, trace: Optional[Callable] = None,
                 tracer=None):
        self.clock = Clock()
        self.events = EventQueue()
        self.rng = RngStreams(seed)
        #: Live processes (an insertion-ordered set; see processes).
        self._live: Dict[Process, None] = {}
        #: Legacy callable(time, kind, process, detail) hook, kept for
        #: source compatibility.  It is routed through the structured
        #: Tracer adapter, which *guards* it: a raising callback is
        #: counted (``trace_errors``) instead of corrupting the run.
        self.trace = trace
        # Deferred import: repro.trace is plain data + stdlib, but the
        # package layout keeps the kernel importable first.
        from ..trace.tracer import Tracer, current_tracer
        active = tracer if tracer is not None else current_tracer()
        if trace is not None and active is None:
            # Private adapter so the legacy hook works without an
            # installed tracer (small ring: it only exists to guard).
            active = Tracer(capacity=4096)
        if trace is not None:
            active.attach_callback(trace)
        #: The structured tracer, or None when tracing is off.
        self.tracer = active
        # Same deferral for the metrics layer (plain data + stdlib).
        from ..telemetry.registry import current_metrics
        meter = current_metrics()
        if meter is not None:
            from ..telemetry.probes import KernelProbe, TxnProbe
            #: Queue-depth/dispatch/churn probe, or None when off.
            self.telemetry = KernelProbe(meter, self.events)
            #: Transaction-population probe shared by every manager
            #: running on this kernel, or None when off.
            self.txn_telemetry = TxnProbe(meter)
        else:
            self.telemetry = None
            self.txn_telemetry = None
        #: Optional SchedulerController (repro.kernel.controlled);
        #: when set, :meth:`run` delegates to its controlled loop.
        self.controller = None
        self._dispatching = False

    @property
    def trace_errors(self) -> int:
        """Exceptions swallowed from the legacy trace callback."""
        return 0 if self.tracer is None else self.tracer.callback_errors

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.clock.now

    def at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule a bare callback at an absolute time."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < "
                             f"{self.now}")
        return self.events.schedule(time, callback)

    def after(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule a bare callback ``delay`` units from now."""
        return self.at(self.now + delay, callback)

    def arrivals(self, specs: Iterable[Any], count: int,
                 admit: Callable[[Any], None]) -> None:
        """Call ``admit(spec)`` at each ``spec.arrival``.

        ``specs`` yields ``count`` objects with non-decreasing
        ``arrival`` times.  Their sequence numbers are reserved now, so
        each dispatches with the ``(time, 0.0, seq)`` it would have had
        if scheduled here; but one instant's arrivals are queued at a
        time, together (so they stay one tie), when the last arrival
        of the instant before fires.
        """
        events = self.events
        seq = events.reserve(count)
        end = seq + count
        specs = iter(specs)
        head = next(specs, None)
        pending = 0

        def queue_instant() -> None:
            nonlocal head, seq, pending
            time = head.arrival
            if time < self.clock._now:
                raise ValueError(f"cannot schedule in the past: {time}")
            while head is not None and head.arrival == time:
                if seq == end:
                    raise ValueError(f"more than {count} arrivals")
                events.schedule_reserved(
                    time, lambda spec=head: fire(spec), seq)
                seq += 1
                pending += 1
                head = next(specs, None)
            if head is not None and head.arrival < time:
                raise ValueError(f"arrival times decrease: "
                                 f"{head.arrival} after {time}")

        def fire(spec: Any) -> None:
            nonlocal pending
            admit(spec)
            pending -= 1
            if not pending and head is not None:
                queue_instant()

        if head is not None:
            queue_instant()

    # ------------------------------------------------------------------
    # process control
    # ------------------------------------------------------------------
    @property
    def processes(self) -> List[Process]:
        """The live (not yet terminated) processes, in spawn order."""
        return list(self._live)

    def spawn(self, body: Generator, name: str,
              priority: float = 0.0) -> Process:
        """Create a process and schedule its first step at the current
        time (or at simulation start, if called before :meth:`run`)."""
        if not hasattr(body, "send"):
            raise TypeError(
                f"process body must be a generator (did you forget to call "
                f"the generator function?): got {type(body).__name__}")
        process = Process(body, name, priority)
        self._live[process] = None
        process.state = ProcessState.READY
        process.pending_resume = self.events.schedule_resume(
            self.clock._now, process)
        if self.tracer is not None:
            self.tracer.kernel_event(self.clock._now, "spawn", process,
                                     None)
        return process

    def ready(self, process: Process, value: Any = None,
              exc: Optional[BaseException] = None) -> None:
        """Unblock ``process``; it resumes at the current instant with
        ``value`` as the result of its pending yield (or with ``exc``
        thrown into it).  Called by blockers (semaphores, ports, CPUs,
        lock managers) when the condition a process waited on occurs."""
        process.check_not_terminated()
        if process.state is not ProcessState.BLOCKED:
            raise InvalidProcessState(
                f"ready() on non-blocked process {process}")
        process.blocker = None
        process.state = ProcessState.READY
        process.pending_resume = self.events.schedule_resume(
            self.clock._now, process, value, exc)

    def interrupt(self, process: Process,
                  exc: ProcessInterrupt) -> bool:
        """Throw ``exc`` into ``process`` at the current instant.

        Withdraws the process from whatever it is blocked on (delay, CPU
        burst, lock queue, port), so the structure's state stays
        consistent.  Returns False if the process already terminated
        (the interrupt is then a no-op — e.g. a deadline timer firing
        just as its transaction commits).
        """
        if process.terminated:
            return False
        if process.state is ProcessState.RUNNING:
            raise InvalidProcessState("a process cannot interrupt itself; "
                                      "raise the exception directly instead")
        if process.pending_resume is not None:
            self.events.cancel(process.pending_resume)
            process.pending_resume = None
        if process.blocker is not None:
            process.blocker.withdraw(process)
            process.blocker = None
        process.state = ProcessState.READY
        process.pending_resume = self.events.schedule_resume(
            self.clock._now, process, None, exc)
        if self.tracer is not None:
            self.tracer.kernel_event(self.clock._now, "interrupt",
                                     process, exc)
        return True

    def set_inherited_priority(self, process: Process,
                               priority: Optional[float]) -> None:
        """Apply priority inheritance to ``process``.

        If the effective priority changes while the process is consuming
        a priority-sensitive resource (the CPU), the resource is poked so
        preemption decisions are re-evaluated immediately.
        """
        changed = process.inherit(priority)
        if changed and process.blocker is not None:
            poke = getattr(process.blocker, "on_priority_change", None)
            if poke is not None:
                poke(process)

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Dispatch events until the queue drains or ``until`` is reached.

        Returns the final virtual time.  Re-entrant calls are forbidden
        (model code must not call run from inside a process).

        This is the hottest loop in the repository, so it is one loop
        with everything inlined: the next entry is popped straight off
        the queue's heap, the clock advance is a slot store (the
        queue's tuple order guarantees non-decreasing times, so the
        monotonicity check of ``Clock.advance_to`` is redundant here),
        and process resumes read their arguments off the event instead
        of calling through a per-event closure.  An unbounded run is a
        run to an infinite horizon.
        """
        controller = self.controller
        if controller is not None:
            return controller.run(self, until)
        if self._dispatching:
            raise SimulationOver("Kernel.run is not re-entrant")
        self._dispatching = True
        events = self.events
        # Stable alias: compaction mutates the heap in place.
        heap = events.dispatch_heap()
        clock = self.clock
        resume = self._resume
        horizon = float("inf") if until is None else until
        # Metrics probe: one float comparison per event when on (the
        # probe samples only at window boundaries), literally nothing
        # when off (probe_next stays +inf).
        probe = self.telemetry
        probe_next = probe.next_window if probe is not None else float(
            "inf")
        try:
            while heap:
                entry = heappop(heap)
                event = entry[3]
                if event.cancelled:
                    events.note_dead()
                    continue
                time = entry[0]
                if time > horizon:
                    # The next live event is past the horizon: put it
                    # back and stop.
                    events.push_entry(entry)
                    break
                clock._now = time
                # Dispatched: a later cancel() must not count it dead.
                event.queue = None
                if time >= probe_next:
                    probe_next = probe.sample(time)
                callback = event.callback
                if callback is not None:
                    callback()
                else:
                    resume(event.process, event.value, event.exc)
        finally:
            self._dispatching = False
        if until is not None and clock._now < until:
            clock.advance_to(until)
        return clock._now

    def step(self) -> bool:
        """Dispatch a single event; returns False when the queue is empty.

        Guarded against re-entrant use exactly like :meth:`run` — a
        step from inside a dispatching event callback would corrupt the
        clock/queue invariants the same way a nested run would.
        """
        if self._dispatching:
            raise SimulationOver("Kernel.step is not re-entrant")
        self._dispatching = True
        try:
            event = self.events.pop()
            if event is None:
                return False
            self.clock.advance_to(event.time)
            probe = self.telemetry
            if probe is not None and event.time >= probe.next_window:
                probe.sample(event.time)
            if event.callback is not None:
                event.callback()
            else:
                self._resume(event.process, event.value, event.exc)
            return True
        finally:
            self._dispatching = False

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _resume(self, process: Process, value: Any,
                exc: Optional[BaseException]) -> None:
        """Step the process generator until it blocks or terminates."""
        process.pending_resume = None
        process.state = ProcessState.RUNNING
        while True:
            try:
                if exc is not None:
                    pending, exc = exc, None
                    item = process.generator.throw(pending)
                else:
                    item = process.generator.send(value)
            except StopIteration as stop:
                self._terminate(process, result=stop.value)
                return
            except ProcessInterrupt as interrupt:
                # An interrupt the body chose not to handle terminates
                # the process cleanly, recording the cause.
                self._terminate(process, exception=interrupt)
                return
            if not isinstance(item, SysCall):
                raise TypeError(
                    f"process {process.name} yielded {item!r}; processes "
                    f"must yield SysCall objects")
            try:
                outcome = item.apply(self, process)
            except (ProcessInterrupt, KernelError) as raised:
                # A syscall may fail its own caller — a lock request that
                # makes the requester the deadlock victim, a receive on a
                # closed port.  Deliver the exception at the yield point;
                # if the body does not handle a KernelError it propagates
                # out of the generator and crashes the run loudly.
                exc = raised
                continue
            if outcome is BLOCKED:
                if process.blocker is None:
                    raise InvalidProcessState(
                        f"syscall {type(item).__name__} returned BLOCKED "
                        f"without registering a blocker on {process}")
                process.state = ProcessState.BLOCKED
                return
            if not isinstance(outcome, Immediate):
                raise TypeError(
                    f"syscall {type(item).__name__} returned {outcome!r}")
            value = outcome.value

    def _terminate(self, process: Process, result: Any = None,
                   exception: Optional[BaseException] = None) -> None:
        process.state = ProcessState.TERMINATED
        self._live.pop(process, None)
        process.result = result
        process.exception = exception
        process.generator.close()
        if self.tracer is not None:
            self.tracer.kernel_event(self.clock._now, "terminate",
                                     process, exception)
        joiners, process.joiners = process.joiners, []
        for joiner in joiners:
            if exception is not None:
                self.ready(joiner, exc=exception)
            else:
                self.ready(joiner, value=result)

