"""CPU server with preemptive-priority or non-preemptive FCFS service.

The paper's single-site experiments run transactions on one CPU per site:
"a high priority task will preempt the execution of lower priority tasks
unless it is blocked by the locking protocol at the database".  This
module provides that behaviour as a preemptive-resume priority server.

Priority inheritance integrates here: when a lock manager raises a
transaction's effective priority, the kernel pokes the CPU
(``on_priority_change``) and the dispatch decision is re-evaluated at the
same virtual instant, so an inheriting low-priority transaction starts
running immediately — exactly what bounds blocking in the priority
ceiling protocol.

For the no-priority baseline (protocol L) the CPU runs in ``fifo`` mode:
non-preemptive, first-come-first-served.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

from ..kernel.errors import SchedulingError
from ..kernel.kernel import Kernel
from ..kernel.process import Process
from ..kernel.syscalls import BLOCKED, Call, Immediate
from ..trace.tracer import current_tracer

POLICIES = ("priority", "fifo")


class _Job:
    """One CPU burst being serviced for a process."""

    __slots__ = ("process", "remaining", "seq", "cpu")

    def __init__(self, process: Process, remaining: float, seq: int,
                 cpu: "CPU"):
        self.process = process
        self.remaining = remaining
        self.seq = seq
        self.cpu = cpu

    # Blocker protocol -------------------------------------------------
    def withdraw(self, process: Process) -> None:
        self.cpu._withdraw(self)

    def on_priority_change(self, process: Process) -> None:
        self.cpu._reschedule()


class CPU:
    """A single CPU shared by all processes at one site."""

    def __init__(self, kernel: Kernel, name: str = "cpu",
                 policy: str = "priority"):
        if policy not in POLICIES:
            raise ValueError(f"unknown CPU policy {policy!r}; expected one "
                             f"of {POLICIES}")
        self.kernel = kernel
        self.name = name
        self.policy = policy
        self.tracer = current_tracer()
        self._jobs: Dict[Process, _Job] = {}
        self._running: Optional[_Job] = None
        self._slice_start = 0.0
        self._completion_event = None
        self._seq = itertools.count()
        #: Accumulated busy time, for utilisation statistics.
        self.busy_time = 0.0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def use(self, amount: float) -> Call:
        """Syscall: consume ``amount`` units of CPU time.

        The calling process is blocked until its burst completes; it may
        be preempted (priority policy) and later resumed without losing
        progress (preemptive-resume).
        """
        if amount < 0:
            raise ValueError(f"CPU burst must be >= 0, got {amount}")

        def attempt(kernel: Kernel, process: Process):
            if amount == 0:
                return Immediate(None)
            if process in self._jobs:
                raise SchedulingError(
                    f"process {process.name} already has a job on {self.name}")
            job = _Job(process, amount, next(self._seq), self)
            self._jobs[process] = job
            process.blocker = job
            self._reschedule()
            return BLOCKED

        return Call(attempt)

    @property
    def load(self) -> int:
        """Number of bursts currently queued or running."""
        return len(self._jobs)

    @property
    def running_process(self) -> Optional[Process]:
        return self._running.process if self._running else None

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` the CPU spent busy (includes the
        in-progress slice)."""
        busy = self.busy_time
        if self._running is not None:
            busy += self.kernel.now - self._slice_start
        return busy / elapsed if elapsed > 0 else 0.0

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _select(self) -> Optional[_Job]:
        if not self._jobs:
            return None
        if self.policy == "fifo":
            # Non-preemptive FCFS: the current job always continues.
            if self._running is not None:
                return self._running
            return min(self._jobs.values(), key=lambda job: job.seq)
        return max(self._jobs.values(),
                   key=lambda job: (job.process.effective_priority,
                                    -job.seq))

    def _reschedule(self) -> None:
        best = self._select()
        if best is self._running:
            return
        now = self.kernel.now
        if self._running is not None:
            # Preempt: charge the elapsed slice and cancel the completion.
            elapsed = now - self._slice_start
            self._running.remaining -= elapsed
            self.busy_time += elapsed
            if self._running.remaining < -1e-9:
                raise SchedulingError(
                    f"negative remaining burst on {self.name}")
            if self._completion_event is not None:
                self.kernel.events.cancel(self._completion_event)
                self._completion_event = None
            if self.tracer is not None:
                self.tracer.cpu_preempt(now, self.name,
                                        self._running.process)
        self._running = best
        if best is not None:
            self._slice_start = now
            self._completion_event = self.kernel.at(
                now + best.remaining, self._complete)
            if self.tracer is not None:
                self.tracer.cpu_dispatch(now, self.name, best.process)

    def _complete(self) -> None:
        job = self._running
        if job is None:
            raise SchedulingError(f"completion with no running job on "
                                  f"{self.name}")
        self._completion_event = None
        self.busy_time += self.kernel.now - self._slice_start
        self._running = None
        del self._jobs[job.process]
        self.kernel.ready(job.process)
        self._reschedule()

    def _withdraw(self, job: _Job) -> None:
        """Interrupt cleanup: remove the job, preempting if running."""
        if self._jobs.get(job.process) is not job:
            return
        if job is self._running:
            elapsed = self.kernel.now - self._slice_start
            self.busy_time += elapsed
            if self._completion_event is not None:
                self.kernel.events.cancel(self._completion_event)
                self._completion_event = None
            self._running = None
            del self._jobs[job.process]
            self._reschedule()
        else:
            del self._jobs[job.process]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        running = self._running.process.name if self._running else None
        return (f"CPU({self.name!r}, policy={self.policy}, "
                f"load={self.load}, running={running!r})")
