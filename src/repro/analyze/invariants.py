"""Protocol invariant checkers — the sanitizer's double-entry books.

Each checker re-derives a protocol's contract from first principles —
its own active-set registry, its own ceiling computation, its own
compatibility rule, its own wait-for graph — and compares against what
the protocol actually did.  It deliberately does **not** call the
protocol's admission helpers (``_can_acquire``, ``_ceiling_barrier``):
if checker and protocol ever disagree, one of them has a bug, which is
exactly the signal we want (the same double-entry argument Brandenburg
makes for mechanically checking locking-protocol invariants,
arXiv:1909.09600).

This module imports nothing from the model packages (``repro.cc``,
``repro.db``, ``repro.txn``): the concurrency-control base class
imports the sanitizer at module load, so the dependency must point
one way only.  Protocol objects are duck-typed: a checker needs
``cc.locks`` (holders/locks_of), ``cc.kernel.now``, ``cc.name`` and,
for the ceiling checker, ``cc.exclusive_only`` plus transactions with
``tid``/``priority``/``read_set``/``write_set``/``access_set``.

Invariant codes reported (see DESIGN.md for the paper references):

- ``SAN-LOCK-RACE``   — two incompatible grants coexist on one object;
- ``SAN-2PL-PHASE``   — a lock granted after the transaction's first
  release (the two-phase property, all 2PL protocols);
- ``SAN-2PL-STRICT``  — a transaction committed while still holding
  locks (strict 2PL releases everything at commit);
- ``SAN-PCP-CEILING`` — a grant admitted a transaction whose priority
  does not exceed the highest rw-ceiling among locks held by others;
- ``SAN-PCP-BLOCK``   — a transaction blocked with neither a ceiling
  barrier nor a direct conflict justifying it;
- ``SAN-PCP-ONCE``    — a transaction ceiling-blocked by lower-priority
  holders more than once within one stable active set (a request made
  while another of its requests still waits is no new episode);
- ``SAN-PCP-DEADLOCK``— a direct lock-conflict wait cycle under the
  (deadlock-free by construction) priority ceiling protocol; ceiling
  barriers are excluded from the graph because dynamic ceilings can
  dissolve without any cycle member releasing;
- ``SAN-REP-WRITER``  — a secondary site originated an object version
  the primary has never seen (single-writer/multiple-reader, R2);
- ``SAN-CC-LEDGER``   — the protocol's request counters disagree with
  the grants and blocks this checker counted itself, or break
  ``requests = immediate_grants + blocks`` or
  ``blocks = direct_blocks + ceiling_blocks`` (checked at every
  deregister).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple


@dataclasses.dataclass(frozen=True)
class Violation:
    """One invariant breach, with enough context to debug it."""

    code: str
    message: str
    protocol: Optional[str] = None
    txn: Optional[int] = None
    oid: Optional[int] = None
    site: Optional[int] = None
    time: Optional[float] = None

    def __str__(self) -> str:
        context = ", ".join(
            f"{key}={value}"
            for key, value in (("protocol", self.protocol),
                               ("txn", self.txn), ("oid", self.oid),
                               ("site", self.site), ("time", self.time))
            if value is not None)
        suffix = f" [{context}]" if context else ""
        return f"{self.code}: {self.message}{suffix}"

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _is_write(mode: object) -> bool:
    """Duck-typed LockMode test (the enum's value is 'write')."""
    return getattr(mode, "value", mode) == "write"


def _incompatible(held: object, requested: object) -> bool:
    """The checker's own compatibility rule: only read/read coexists."""
    return _is_write(held) or _is_write(requested)


class _WaitForGraph:
    """Waiter -> holders edges with cycle search; rebuilt per check, so
    there is no incremental state to get out of sync."""

    def __init__(self) -> None:
        self._edges: Dict[Any, Set[Any]] = {}

    def add(self, waiter: Any, holders) -> None:
        targets = self._edges.setdefault(waiter, set())
        for holder in holders:
            if holder is not waiter:
                targets.add(holder)

    def cycle_through(self, start: Any) -> Optional[List[Any]]:
        path: List[Any] = []
        on_path: Set[Any] = set()
        done: Set[Any] = set()

        def dfs(node: Any) -> Optional[List[Any]]:
            path.append(node)
            on_path.add(node)
            for successor in self._edges.get(node, ()):
                if successor is start:
                    return list(path)
                if successor in on_path or successor in done:
                    continue
                found = dfs(successor)
                if found is not None:
                    return found
            path.pop()
            on_path.discard(node)
            done.add(node)
            return None

        return dfs(start)


class ProtocolChecker:
    """Shared checks for every lock protocol: grant races and the
    two-phase property of strict 2PL (all shipped protocols hold locks
    to commit, including the ceiling protocol)."""

    def __init__(self, sanitizer, cc):
        self.sanitizer = sanitizer
        self.cc = cc
        #: Transactions that executed their release point and may not
        #: acquire again until they abort/restart or leave.
        self._shrunk: Set[Any] = set()
        #: The checker's own count of immediate grants and blocks,
        #: reconciled against ``cc.stats`` at every deregister.
        self._immediate = 0
        self._blocks = 0
        self._ledger_reported = False
        # Watch the raw lock table too: a grant that bypasses the
        # protocol (state corruption) still gets race-checked.
        if getattr(cc.locks, "observer", None) is None:
            cc.locks.observer = self

    # -- context helpers -----------------------------------------------
    def _now(self) -> Optional[float]:
        kernel = getattr(self.cc, "kernel", None)
        return None if kernel is None else kernel.now

    def _report(self, code: str, message: str, txn=None,
                oid: Optional[int] = None) -> None:
        self.sanitizer.report(Violation(
            code=code, message=message,
            protocol=getattr(self.cc, "name", None),
            txn=getattr(txn, "tid", None), oid=oid, time=self._now()))

    # -- lifecycle hooks (called from repro.cc.base) ---------------------
    def on_register(self, txn) -> None:
        pass

    def on_deregister(self, txn) -> None:
        self._shrunk.discard(txn)
        self._check_ledger(txn)

    def on_block(self, txn, oid: int, mode) -> None:
        self._blocks += 1

    def on_grant(self, txn, oid: int, mode, waited: bool) -> None:
        if not waited:
            self._immediate += 1
        if txn in self._shrunk:
            self._report(
                "SAN-2PL-PHASE",
                f"transaction {txn.tid} acquired {mode} on object {oid} "
                f"after its first release — the two-phase property "
                f"('no lock after unlock') is broken",
                txn=txn, oid=oid)
            self._shrunk.discard(txn)  # report once per offence
        if self.cc.locks.observer is not self:
            # Otherwise on_table_grant already checked this grant.
            self._check_race(oid)

    def on_release_all(self, txn, freed) -> None:
        if freed:
            self._shrunk.add(txn)

    def on_abort(self, txn) -> None:
        # A deadlock victim restarts from scratch: fresh growing phase.
        self._shrunk.discard(txn)

    def on_commit(self, txn) -> None:
        held = self.cc.locks.locks_of(txn)
        if held:
            self._report(
                "SAN-2PL-STRICT",
                f"transaction {txn.tid} committed while still holding "
                f"locks on {sorted(held)} — strict 2PL releases "
                f"everything at commit",
                txn=txn, oid=min(held))
        self._shrunk.discard(txn)

    # -- lock-table observer (called from repro.db.locks) ----------------
    def on_table_grant(self, oid: int, owner, mode) -> None:
        self._check_race(oid)

    def on_table_release(self, oid: int, owner) -> None:
        pass

    # -- shared checks ---------------------------------------------------
    def _check_ledger(self, txn) -> None:
        stats = getattr(self.cc, "stats", None)
        if stats is None or self._ledger_reported:
            return
        entries = (
            ("immediate_grants", stats.immediate_grants, self._immediate,
             "observed"),
            ("blocks", stats.blocks, self._blocks, "observed"),
            ("requests", stats.requests,
             stats.immediate_grants + stats.blocks,
             "immediate_grants + blocks"),
            ("blocks", stats.blocks,
             stats.direct_blocks + stats.ceiling_blocks,
             "direct_blocks + ceiling_blocks"))
        problems = [f"{name} {got} != {want} {source}"
                    for name, got, want, source in entries if got != want]
        if problems:
            self._ledger_reported = True  # one report per checker
            self._report(
                "SAN-CC-LEDGER",
                f"lock-request counters out of balance at the "
                f"deregister of transaction {txn.tid}: "
                f"{'; '.join(problems)}",
                txn=txn)

    def _check_race(self, oid: int) -> None:
        holders = self.cc.locks.holders(oid)
        if len(holders) < 2:
            return
        modes = list(holders.values())
        for index, held in enumerate(modes):
            for other in modes[index + 1:]:
                if _incompatible(held, other):
                    holder_map = {getattr(t, "tid", t): str(m)
                                  for t, m in holders.items()}
                    self._report(
                        "SAN-LOCK-RACE",
                        f"incompatible grants coexist on object "
                        f"{oid}: {holder_map}",
                        oid=oid)
                    return


class TwoPhaseChecker(ProtocolChecker):
    """Protocols L / P / PI: the shared checks are the whole contract
    (deadlocks are legal there — the protocol detects and resolves
    them itself)."""


class CeilingChecker(ProtocolChecker):
    """Protocol C / Cx: everything TwoPhaseChecker does, plus the
    ceiling admission rule, block justification, blocked-at-most-once
    and deadlock freedom — computed from this checker's own registry of
    declared access sets, not the protocol's."""

    def __init__(self, sanitizer, cc):
        super().__init__(sanitizer, cc)
        #: Independent active-set registry (the protocol keeps its own).
        self._active: Set[Any] = set()
        #: Ceiling-blocking episodes per txn within the current epoch.
        self._episodes: Dict[Any, int] = {}
        #: (oid, write-held) -> static rw-ceiling within the current
        #: epoch.  A ceiling depends only on ``_active`` and on
        #: priorities fixed at transaction construction, so the table
        #: is cleared exactly where ``_active`` changes.
        self._ceilings: Dict[Tuple[int, bool], Optional[float]] = {}

    # -- independent ceiling computation ---------------------------------
    def _rw_ceiling(self, oid: int, write_held: bool) -> Optional[float]:
        """Absolute ceiling of a write-held object, else its write
        ceiling: the highest priority among active transactions that
        declared any access (resp. a write) to it.  Under
        ``exclusive_only`` every declared access counts as a write."""
        key = (oid, write_held)
        if key in self._ceilings:
            return self._ceilings[key]
        if write_held or getattr(self.cc, "exclusive_only", False):
            priorities = [txn.priority for txn in self._active
                          if oid in txn.access_set]
        else:
            priorities = [txn.priority for txn in self._active
                          if oid in txn.write_set]
        ceiling = max(priorities) if priorities else None
        self._ceilings[key] = ceiling
        return ceiling

    def _barrier(self, txn):
        """(ceiling, oid, holders) of the highest rw-ceiling among
        objects locked by transactions other than ``txn``."""
        locks = self.cc.locks
        best = best_oid = None
        best_holders: Mapping[Any, Any] = {}
        for oid in locks.locked_oids():
            holders = locks.holder_map(oid)
            if len(holders) == 1 and txn in holders:
                continue  # locked by txn alone
            ceiling = self._rw_ceiling(
                oid, any(_is_write(mode) for mode in holders.values()))
            if ceiling is None:
                continue
            if best is None or ceiling > best:
                best, best_oid, best_holders = ceiling, oid, holders
        blocking = [holder for holder in best_holders if holder is not txn]
        return best, best_oid, blocking

    def _conflicters(self, txn, oid: int, mode) -> List[object]:
        return [holder
                for holder, held in self.cc.locks.holders(oid).items()
                if holder is not txn and _incompatible(held, mode)]

    # -- lifecycle hooks -------------------------------------------------
    def on_register(self, txn) -> None:
        self._active.add(txn)
        # The active set changed, so the static ceilings changed: the
        # blocked-at-most-once bound is only claimed within one epoch.
        self._episodes.clear()
        self._ceilings.clear()

    def on_deregister(self, txn) -> None:
        super().on_deregister(txn)
        self._active.discard(txn)
        self._episodes.clear()
        self._ceilings.clear()

    def on_grant(self, txn, oid: int, mode, waited: bool) -> None:
        super().on_grant(txn, oid, mode, waited)
        barrier, barrier_oid, __ = self._barrier(txn)
        if barrier is not None and txn.priority <= barrier:
            self._report(
                "SAN-PCP-CEILING",
                f"grant of {mode} on object {oid} to transaction "
                f"{txn.tid} (priority {txn.priority:g}) violates the "
                f"ceiling rule: object {barrier_oid} locked by others "
                f"carries rw-ceiling {barrier:g} >= its priority",
                txn=txn, oid=oid)

    def on_block(self, txn, oid: int, mode) -> None:
        super().on_block(txn, oid, mode)
        barrier, barrier_oid, blocking = self._barrier(txn)
        conflicters = self._conflicters(txn, oid, mode)
        ceiling_blocked = barrier is not None and txn.priority <= barrier
        if not ceiling_blocked and not conflicters:
            self._report(
                "SAN-PCP-BLOCK",
                f"transaction {txn.tid} (priority {txn.priority:g}) was "
                f"blocked on object {oid} with no ceiling barrier and "
                f"no conflicting holder — spurious blocking",
                txn=txn, oid=oid)
            return
        blockers = blocking if ceiling_blocked else conflicters
        if (blockers and all(holder.priority < txn.priority
                             for holder in blockers)
                and not self._already_waiting(txn)):
            count = self._episodes.get(txn, 0) + 1
            self._episodes[txn] = count
            if count > 1:
                blocker_tids = sorted(h.tid for h in blockers)
                self._report(
                    "SAN-PCP-ONCE",
                    f"transaction {txn.tid} was blocked by "
                    f"lower-priority holders {blocker_tids} "
                    f"(episode {count}) within one stable active set "
                    f"— PCP bounds blocking to one critical section",
                    txn=txn, oid=oid)
        self._check_deadlock(txn)

    def _already_waiting(self, txn) -> bool:
        """True if another request of ``txn`` still waits.  Only the
        server-mode (async) path can wait on several objects at once;
        such waits overlap the one already under way, so they add no
        blocking episode."""
        return sum(request.txn is txn
                   for request in getattr(self.cc, "waiting", ())) > 1

    # -- deadlock freedom ------------------------------------------------
    def _check_deadlock(self, txn) -> None:
        # Edges are *direct lock conflicts* only.  Ceiling-barrier
        # blocking is deliberately excluded: under this codebase's
        # open-arrival adaptation the ceilings are dynamic, so a
        # barrier can dissolve when an unrelated transaction
        # deregisters — a "cycle" through a barrier edge is not a
        # permanent wait.  Direct-conflict cycles, by contrast, are
        # provably impossible under the ceiling admission test (each
        # later acquirer would have been blocked by the ceiling its
        # own declared access contributes), so one appearing is
        # always an implementation bug.
        graph = _WaitForGraph()
        for request in list(getattr(self.cc, "waiting", ())):
            waiter = request.txn
            graph.add(waiter, self._conflicters(waiter, request.oid,
                                                request.mode))
        cycle = graph.cycle_through(txn)
        if cycle is not None:
            self._report(
                "SAN-PCP-DEADLOCK",
                f"wait-for cycle {[t.tid for t in cycle]} under the "
                f"priority ceiling protocol, which is deadlock-free by "
                f"construction",
                txn=txn)


class ReplicationChecker:
    """The replicated architecture's single-writer invariant (R2).

    Every version of an object is born at its primary site; secondary
    copies only ever install versions the primary already carries.  A
    ``record_write`` at a non-primary site with a timestamp newer than
    the primary's copy means a secondary originated data — the
    single-writer/multiple-reader restriction is broken.
    """

    def __init__(self, sanitizer, catalog):
        self.sanitizer = sanitizer
        self.catalog = catalog

    def on_record_write(self, site: int, oid: int,
                        timestamp: float) -> None:
        primary = self.catalog.primary_site(oid)
        if site == primary:
            return
        primary_ts = self.catalog.copy_timestamp(primary, oid)
        if timestamp > primary_ts:
            self.sanitizer.report(Violation(
                code="SAN-REP-WRITER",
                message=(f"site {site} recorded version "
                         f"{timestamp:g} of object {oid}, newer than "
                         f"its primary copy at site {primary} "
                         f"({primary_ts:g}) — a secondary originated "
                         f"an update (single-writer restriction R2)"),
                oid=oid, site=site, time=timestamp))
