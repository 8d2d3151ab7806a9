"""Basic priority-inheritance locking (the [Sha87] strawman of §3.1).

Identical to protocol P (strict 2PL, priority queues, preemptive CPU),
plus the basic inheritance rule: "when a transaction T of a task blocks
a higher priority task, it executes at the highest priority of all the
transactions blocked by T".

The paper discusses why this alone is inadequate — blocking is bounded
but a transaction can still be blocked once per lock it needs (*chained
blocking*), and deadlocks remain possible.  The ablation benchmark
``test_ablation_inheritance`` quantifies both effects against the
ceiling protocol.
"""

from __future__ import annotations

from .twopl import TwoPhaseLockingPriority


class PriorityInheritance(TwoPhaseLockingPriority):
    """Protocol PI: 2PL + priority queues + basic priority inheritance."""

    name = "PI"

    def _after_change(self) -> None:
        # Direct lock conflicters inherit from the waiters they block.
        self._inherit(self._conflict_contributions)
