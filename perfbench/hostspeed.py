"""Host-speed normalisation for wall-clock measurements.

The machines this benchmark runs on share their cores with other
tenants, and a core's speed for interpreted code changes by up to 2x
within seconds.  A raw wall-clock rate therefore measures the
neighbours as much as the simulator.  To compare code rather than
moments, every timed interval is converted into *reference seconds*:

- :class:`SpeedSampler` runs a fixed pure-Python calibration loop (a
  tiny generator-and-heap event loop, the same kind of work the
  simulator does, importing nothing from ``repro``) every
  ``PERIOD_S`` of wall time from a ``SIGALRM`` handler, and records
  how long each run of it took;
- the wall time between two samples, with the calibration time itself
  excluded, is scaled by ``REFERENCE_LOOP_S / c``, where ``c`` is the
  mean duration of the two calibration runs around it.

``REFERENCE_LOOP_S`` is the calibration loop's duration on an
uncontended core of the machine the benchmark was defined on (Intel
Xeon, 2 vCPUs, Python 3.11), so a reference second is roughly a second
of that machine running undisturbed.  The calibration code never
changes with the program, so a change that makes the simulator slower
still lowers its rate in reference seconds by the same factor.
"""

from __future__ import annotations

import heapq
import signal
import time

#: Steps of the calibration loop per sample.
LOOP_STEPS = 1500
#: Duration of one calibration loop on the reference machine's
#: uncontended core.
REFERENCE_LOOP_S = 0.00125
#: Wall time between calibration samples.
PERIOD_S = 0.02


def calibration_loop(steps: int = LOOP_STEPS) -> int:
    """A fixed amount of interpreter work: 50 generator processes
    resumed in virtual-time order off a heap, each updating a dict."""
    def process(ident, table):
        now = 0.0
        while True:
            key = (ident * 7919 + int(now)) % 97
            table[key] = table.get(key, 0) + 1
            now = yield 1.0 + key % 5

    table = {}
    heap = []
    processes = [process(ident, table) for ident in range(50)]
    for ident, body in enumerate(processes):
        next(body)
        heapq.heappush(heap, (0.0, ident))
    for _ in range(steps):
        now, ident = heapq.heappop(heap)
        heapq.heappush(heap, (now + processes[ident].send(now), ident))
    return len(table)


def time_loop() -> tuple:
    """``(start, end)`` of one calibration run."""
    start = time.perf_counter()
    calibration_loop()
    return start, time.perf_counter()


class SpeedSampler:
    """Samples host speed every ``PERIOD_S`` inside a ``with`` block.

    Single-threaded: the samples are taken by a ``SIGALRM`` handler in
    the main thread, between the simulator's bytecodes.
    """

    def __init__(self):
        self.samples = []
        self._previous = None

    def _on_alarm(self, signum, frame):
        self.samples.append(time_loop())

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.samples.append(time_loop())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(time_loop())

    def reference_seconds(self, begin: float, end: float) -> float:
        """Reference seconds of work done in wall interval
        ``[begin, end]``, calibration runs excluded."""
        total = 0.0
        for (start_a, end_a), (start_b, end_b) in zip(self.samples,
                                                      self.samples[1:]):
            low, high = max(begin, end_a), min(end, start_b)
            if high > low:
                loop_s = 0.5 * ((end_a - start_a) + (end_b - start_b))
                total += (high - low) * REFERENCE_LOOP_S / loop_s
        return total
