"""System calls: the objects process coroutines yield to the kernel.

Each syscall implements ``apply(kernel, process)`` and returns either
``Immediate(value)`` — the process continues in the same instant with
``value`` as the result of the ``yield`` — or the ``BLOCKED`` sentinel,
in which case the process has been parked on some structure and will be
resumed later via ``kernel.ready``.

Model code normally uses the convenience wrappers on the structures
themselves (``semaphore.wait()``, ``port.receive()``, ``cpu.use(t)``),
which construct these syscalls.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from .errors import InvalidProcessState
from .process import Process


class Immediate:
    """Result wrapper: the syscall completed without blocking."""

    __slots__ = ("value",)

    def __init__(self, value: Any = None):
        self.value = value


class _Blocked:
    """Sentinel: the process is parked; the kernel must not resume it."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "BLOCKED"


BLOCKED = _Blocked()


class SysCall:
    """Base class for yieldable system calls."""

    __slots__ = ()

    def apply(self, kernel: "Kernel", process: Process):  # noqa: F821
        raise NotImplementedError


class Delay(SysCall):
    """Suspend the process for ``duration`` virtual time units.

    This models *pure elapsed time* that consumes no shared resource —
    the paper's parallel-I/O assumption, think time, and network latency
    all use delays.  For time spent on a contended resource, use the
    resource's ``use`` syscall instead.
    """

    __slots__ = ("duration",)

    def __init__(self, duration: float):
        if duration < 0:
            raise ValueError(f"delay must be non-negative, got {duration}")
        self.duration = duration

    def apply(self, kernel, process):
        if self.duration == 0:
            return Immediate(None)
        blocker = _DelayBlocker()
        blocker.event = kernel.events.schedule(
            kernel.now + self.duration,
            lambda: kernel.ready(process))
        process.blocker = blocker
        return BLOCKED


class _DelayBlocker:
    """Holds the wakeup event so an interrupt can cancel it."""

    __slots__ = ("event",)

    def __init__(self):
        self.event = None

    def withdraw(self, process: Process) -> None:
        if self.event is not None:
            self.event.cancel()
            self.event = None


class Spawn(SysCall):
    """Create a child process; returns the new :class:`Process`."""

    __slots__ = ("body", "name", "priority")

    def __init__(self, body: Generator, name: str, priority: float = 0.0):
        self.body = body
        self.name = name
        self.priority = priority

    def apply(self, kernel, process):
        child = kernel.spawn(self.body, self.name, self.priority)
        return Immediate(child)


class Join(SysCall):
    """Block until ``target`` terminates; returns its result value.

    If the target raised, the exception is re-raised in the joiner.
    """

    __slots__ = ("target",)

    def __init__(self, target: Process):
        self.target = target

    def apply(self, kernel, process):
        if process is self.target:
            raise InvalidProcessState("a process cannot join itself")
        if self.target.terminated:
            if self.target.exception is not None:
                raise self.target.exception
            return Immediate(self.target.result)
        self.target.joiners.append(process)
        process.blocker = _JoinBlocker(self.target)
        return BLOCKED


class _JoinBlocker:
    __slots__ = ("target",)

    def __init__(self, target: Process):
        self.target = target

    def withdraw(self, process: Process) -> None:
        if process in self.target.joiners:
            self.target.joiners.remove(process)


class Call(SysCall):
    """Run an arbitrary kernel-context function ``fn(kernel, process)``.

    The function may return ``Immediate`` or ``BLOCKED`` itself (after
    parking the process); plain return values are wrapped in Immediate.
    This is the extension point structures like semaphores, ports, CPUs
    and lock managers use to implement their own blocking behaviour.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable):
        self.fn = fn

    def apply(self, kernel, process):
        outcome = self.fn(kernel, process)
        if isinstance(outcome, Immediate) or outcome is BLOCKED:
            return outcome
        return Immediate(outcome)


class Now(SysCall):
    """Return the current virtual time (convenience)."""

    __slots__ = ()

    def apply(self, kernel, process):
        return Immediate(kernel.now)
