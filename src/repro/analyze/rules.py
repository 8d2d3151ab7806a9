"""The lint rules this codebase actually needs.

Every rule exists because the violation it detects has a concrete
failure mode in this repository:

- **RPL001 — wall-clock in simulation code.**  The simulation runs on
  deterministic *virtual* time; reading the host clock (``time.time``,
  ``datetime.now``) or sleeping on it makes results irreproducible and
  silently poisons the exec-engine's fingerprint cache (two runs with
  the same fingerprint would disagree).  The harness under
  ``repro/exec`` is exempt — measuring real elapsed time for progress
  and retry backoff is its job.
- **RPL002 — global randomness.**  ``random.random()`` and friends draw
  from the process-global RNG, whose state depends on import order and
  other callers; ``os.urandom`` is entropy by definition.  Model code
  must draw from the seeded per-stream RNGs of
  ``repro.kernel.rng.RngStreams`` (``random.Random`` instances are
  fine — the rule only bans the module-global API).
- **RPL003 — syscall constructed but not yielded.**  Kernel blocking
  operations (``port.receive()``, ``cpu.use(t)``, ``sem.wait()``,
  ``cc.acquire(...)``, ``Delay(t)``) *construct* a SysCall that only
  does something when yielded to the kernel.  A bare expression
  statement discards the syscall — the classic forgotten-``yield`` bug,
  which silently skips the block/delay.
- **RPL004 — blocking syscall outside a kernel process.**  The same
  constructors called (and discarded) in a non-generator function can
  never be yielded at all: blocking kernel operations only make sense
  inside process bodies.
- **RPL005 — fingerprint-unsafe config field.**  The exec cache keys on
  a canonical JSON encoding of config dataclasses
  (:mod:`repro.exec.fingerprint`).  Fields typed as ``Any``,
  ``Callable``, ``set``/``frozenset`` (iteration order varies with the
  hash seed) or other unencodable objects fall back to ``repr`` — which
  can embed memory addresses or unstable ordering, so equal configs
  stop hashing equally and the cache silently fragments or, worse,
  collides.
- **RPL006 — mutable default argument.**  The standard Python trap: the
  default is evaluated once and shared across calls.
- **RPL007 — ad-hoc output in protocol/dist modules.**  ``print`` and
  the ``logging`` module are banned from the concurrency-control and
  distributed layers: those layers report through the structured
  :class:`repro.trace.tracer.Tracer` (typed events, deterministic,
  zero-perturbation), and ad-hoc output either corrupts the CLI's
  table contract or depends on process-global logging configuration.
- **RPL009 — re-declared blocking-category literal.**  The blocking
  taxonomy (``direct``/``ceiling``/``network``/``other``) is a
  cross-layer contract shared by the protocols (classification), the
  trace layer (measured decomposition) and the analytic model
  (predicted decomposition); :mod:`repro.constants` is its single
  source of truth.  A re-declared string literal in those layers is a
  drift waiting to happen — one typo and a measured category silently
  stops matching its prediction.
- **RPL013 — hard-coded protocol-name literal.**  The protocol cast is
  a plugin registry (:mod:`repro.protocols`); every spec declares its
  family, model family, sanitizer checker and aliases there.  Code in
  the consuming layers (``cc``, ``dist``, ``model``, ``bench``) that
  compares against protocol-name literals or re-declares a tuple of
  them will silently miss protocols registered later — exactly the bug
  the registry exists to prevent.  Dispatch on the resolved spec's
  fields or derive sets from registry queries instead.

- **RPL014 — host clock outside the sanctioned gateway.**  In ``cc``,
  ``dist``, ``kernel`` and ``telemetry`` even *elapsed* host time
  (``time.perf_counter()``, ``monotonic()`` — allowed elsewhere by
  RPL001) must route through ``repro.telemetry.hostclock.host_clock``
  so every host-time read in the determinism-critical layers is
  auditable in one place.

Each rule reports ``(code, line, col, message)`` findings through the
engine; suppress a deliberate occurrence with ``# noqa: <code>``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set

from ..constants import BLOCKING_CATEGORIES
from .engine import Finding

#: Wall-clock functions of the ``time`` module (monotonic and
#: perf_counter are allowed: they measure elapsed host time for
#: reporting and never leak into simulation state).
_WALL_CLOCK_TIME = {"time", "time_ns", "sleep", "localtime", "gmtime",
                    "ctime", "asctime", "strftime"}
#: Wall-clock constructors on datetime classes.
_WALL_CLOCK_DATETIME = {"now", "utcnow", "today"}
#: Module-global randomness (anything on the random module except the
#: Random class itself).
_GLOBAL_RANDOM = {"random", "randint", "randrange", "choice", "choices",
                  "shuffle", "sample", "uniform", "gauss", "seed",
                  "getrandbits", "betavariate", "expovariate",
                  "normalvariate", "vonmisesvariate", "paretovariate",
                  "triangular"}
#: Methods that construct blocking kernel syscalls.
_SYSCALL_METHODS = {"receive", "wait", "use", "acquire"}
#: Bare-name syscall constructors from repro.kernel.syscalls.
_SYSCALL_NAMES = {"Delay", "Join", "Spawn", "Now"}
#: Annotation heads that make a config field fingerprint-unsafe.
_UNSAFE_ANNOTATIONS = {"Any", "Callable", "object", "set", "Set",
                       "frozenset", "FrozenSet", "MutableSet",
                       "AbstractSet", "Process", "Kernel"}
#: Annotation heads that are always fingerprint-safe.
_SAFE_ANNOTATIONS = {"int", "float", "str", "bool", "bytes", "None",
                     "Optional", "List", "Tuple", "Dict", "Sequence",
                     "Mapping", "list", "tuple", "dict", "Union",
                     "Literal"}


def _module_aliases(tree: ast.Module, module: str) -> Set[str]:
    """Names the module is importable under (``import time as t``)."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == module:
                    aliases.add(item.asname or module)
    return aliases


def _from_imports(tree: ast.Module, module: str) -> Dict[str, str]:
    """{local name: original name} for ``from module import ...``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for item in node.names:
                names[item.asname or item.name] = item.name
    return names


def _is_path_part(path: str, part: str) -> bool:
    normalized = path.replace("\\", "/")
    return f"/{part}/" in normalized or normalized.startswith(f"{part}/")


class Rule:
    """Base: applies everywhere unless a subclass narrows the scope."""

    code = "RPL000"
    name = "base"

    def applies_to(self, path: str) -> bool:
        return True

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, path: str, node: ast.AST,
                message: str) -> Finding:
        return Finding(self.code, path, node.lineno, node.col_offset,
                       message)


class WallClockRule(Rule):
    """RPL001: wall-clock reads/sleeps in simulation code."""

    code = "RPL001"
    name = "wall-clock-in-sim"
    #: Directory names exempt from this rule (the execution harness
    #: legitimately measures host time).
    exempt_parts = ("exec",)

    def applies_to(self, path: str) -> bool:
        return not any(_is_path_part(path, part)
                       for part in self.exempt_parts)

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        time_aliases = _module_aliases(tree, "time")
        datetime_aliases = _module_aliases(tree, "datetime")
        datetime_classes = {
            local for local, orig in _from_imports(tree, "datetime").items()
            if orig in ("datetime", "date")}
        for local, orig in _from_imports(tree, "time").items():
            if orig in _WALL_CLOCK_TIME:
                node = self._import_node(tree, "time")
                yield self.finding(
                    path, node,
                    f"wall-clock import 'from time import {orig}' in "
                    f"simulation code; use virtual time (kernel.now)")
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            base = func.value
            if (isinstance(base, ast.Name)
                    and base.id in time_aliases
                    and func.attr in _WALL_CLOCK_TIME):
                yield self.finding(
                    path, node,
                    f"wall-clock call time.{func.attr}() in simulation "
                    f"code; use virtual time (kernel.now) or "
                    f"time.perf_counter() for harness timing")
            elif func.attr in _WALL_CLOCK_DATETIME and isinstance(
                    base, (ast.Name, ast.Attribute)):
                root = base
                while isinstance(root, ast.Attribute):
                    root = root.value
                if (isinstance(root, ast.Name)
                        and (root.id in datetime_aliases
                             or root.id in datetime_classes)):
                    yield self.finding(
                        path, node,
                        f"wall-clock call {ast.unparse(func)}() in "
                        f"simulation code; use virtual time")

    @staticmethod
    def _import_node(tree: ast.Module, module: str) -> ast.AST:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == module:
                return node
        return tree.body[0] if tree.body else tree


class GlobalRandomRule(Rule):
    """RPL002: process-global randomness instead of seeded streams."""

    code = "RPL002"
    name = "global-randomness"

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        random_aliases = _module_aliases(tree, "random")
        os_aliases = _module_aliases(tree, "os")
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    for item in node.names:
                        if item.name != "Random":
                            yield self.finding(
                                path, node,
                                f"'from random import {item.name}' uses "
                                f"the global RNG; draw from a seeded "
                                f"random.Random stream (kernel.rng)")
                elif node.module == "secrets":
                    yield self.finding(
                        path, node,
                        "'secrets' is entropy by definition; simulation "
                        "code must be deterministic")
                continue
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            base = func.value
            if not isinstance(base, ast.Name):
                continue
            if (base.id in random_aliases
                    and func.attr in _GLOBAL_RANDOM):
                yield self.finding(
                    path, node,
                    f"global-RNG call random.{func.attr}() is "
                    f"nondeterministic across runs; draw from a seeded "
                    f"random.Random stream (kernel.rng)")
            elif base.id in os_aliases and func.attr == "urandom":
                yield self.finding(
                    path, node,
                    "os.urandom() is entropy; simulation code must be "
                    "deterministic")


def _own_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Descendants whose nearest enclosing function is ``func`` (the
    walk does not descend into nested function definitions)."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue  # nested scope: its body belongs to it
        stack.extend(ast.iter_child_nodes(node))


def _is_generator(func: ast.AST) -> bool:
    """Does this function contain a yield of its own?"""
    return any(isinstance(node, (ast.Yield, ast.YieldFrom))
               for node in _own_nodes(func))


class DiscardedSyscallRule(Rule):
    """RPL003/RPL004: a blocking syscall constructed then thrown away."""

    code = "RPL003"
    name = "discarded-syscall"
    sibling_code = "RPL004"

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            is_gen = _is_generator(func)
            for stmt in _own_nodes(func):
                if not isinstance(stmt, ast.Expr):
                    continue
                call = stmt.value
                if not isinstance(call, ast.Call):
                    continue
                label = self._syscall_label(call)
                if label is None:
                    continue
                if is_gen:
                    yield Finding(
                        self.code, path, stmt.lineno, stmt.col_offset,
                        f"syscall {label} constructed but never yielded "
                        f"(forgotten 'yield'? the block/delay silently "
                        f"does not happen)")
                else:
                    yield Finding(
                        self.sibling_code, path, stmt.lineno,
                        stmt.col_offset,
                        f"blocking syscall {label} in a non-generator "
                        f"function; kernel blocking operations belong "
                        f"in process bodies (generators)")

    @staticmethod
    def _syscall_label(call: ast.Call):
        func = call.func
        if isinstance(func, ast.Attribute):
            if func.attr in _SYSCALL_METHODS:
                return f".{func.attr}(...)"
        elif isinstance(func, ast.Name):
            if func.id in _SYSCALL_NAMES:
                return f"{func.id}(...)"
        return None


class BlockingSyscallRule(DiscardedSyscallRule):
    """RPL004 registration stub: findings are produced by RPL003's
    visitor (one pass classifies by generator-ness); this class exists
    so ``--select RPL004`` and the rule listing know the code."""

    code = "RPL004"
    name = "syscall-outside-process"

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        return iter(())


class FingerprintSafetyRule(Rule):
    """RPL005: config-dataclass fields the fingerprint cannot encode
    stably."""

    code = "RPL005"
    name = "fingerprint-unsafe-config-field"

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        local_dataclasses = {
            node.name for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and self._is_dataclass(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not node.name.endswith("Config"):
                continue
            if not self._is_dataclass(node):
                continue
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign):
                    continue
                if not isinstance(stmt.target, ast.Name):
                    continue
                reason = self._unsafe_reason(stmt.annotation,
                                             local_dataclasses)
                if reason is not None:
                    yield self.finding(
                        path, stmt,
                        f"field '{stmt.target.id}' of {node.name} is "
                        f"{reason}; the exec-cache fingerprint falls "
                        f"back to repr() for it, so equal configs may "
                        f"stop hashing equally "
                        f"(see repro.exec.fingerprint)")

    @staticmethod
    def _is_dataclass(node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            target = decorator
            if isinstance(target, ast.Call):
                target = target.func
            name = None
            if isinstance(target, ast.Attribute):
                name = target.attr
            elif isinstance(target, ast.Name):
                name = target.id
            if name == "dataclass":
                return True
        return False

    def _unsafe_reason(self, annotation: ast.AST,
                       local_dataclasses: Set[str]):
        head = self._head_name(annotation)
        if head is None:
            return None  # unrecognizable: give the benefit of the doubt
        if head in _UNSAFE_ANNOTATIONS:
            return (f"typed '{head}' (unordered or unencodable)")
        if head in _SAFE_ANNOTATIONS:
            if isinstance(annotation, ast.Subscript):
                for inner in self._subscript_args(annotation):
                    reason = self._unsafe_reason(inner, local_dataclasses)
                    if reason is not None:
                        return reason
            return None
        if head in local_dataclasses or head.endswith(("Config",
                                                       "Model",
                                                       "Plan")):
            return None  # nested config dataclass: encoded recursively
        return (f"typed '{head}', which the canonical encoder does not "
                f"know (not a primitive, container, or config "
                f"dataclass)")

    @staticmethod
    def _head_name(annotation: ast.AST):
        node = annotation
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Constant):
            if node.value is None:
                return "None"
            if isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    return None
                return FingerprintSafetyRule._head_name(parsed.body)
        return None

    @staticmethod
    def _subscript_args(node: ast.Subscript) -> List[ast.AST]:
        inner = node.slice
        if isinstance(inner, ast.Tuple):
            return list(inner.elts)
        return [inner]


class MutableDefaultRule(Rule):
    """RPL006: mutable default argument values."""

    code = "RPL006"
    name = "mutable-default-argument"

    _MUTABLE_CALLS = {"list", "dict", "set", "defaultdict",
                      "OrderedDict", "Counter", "deque", "bytearray"}

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            defaults = list(func.args.defaults) + [
                default for default in func.args.kw_defaults
                if default is not None]
            for default in defaults:
                label = self._mutable_label(default)
                if label is not None:
                    yield self.finding(
                        path, default,
                        f"mutable default argument {label} is evaluated "
                        f"once and shared across calls; default to None "
                        f"and create inside the function")

    def _mutable_label(self, node: ast.AST):
        if isinstance(node, (ast.List, ast.ListComp)):
            return "[...]"
        if isinstance(node, (ast.Dict, ast.DictComp)):
            return "{...}"
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "{...} (set)"
        if isinstance(node, ast.Call):
            func = node.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name in self._MUTABLE_CALLS:
                return f"{name}(...)"
        return None


class AdHocTraceOutputRule(Rule):
    """RPL007: print()/logging in protocol or distributed modules.

    Those layers have a structured observability channel — the
    :class:`repro.trace.tracer.Tracer` — and ad-hoc output breaks it
    twice over: ``print`` corrupts the CLI's machine-readable tables,
    and the ``logging`` module consults process-global mutable
    configuration (handlers, levels), so two runs of one fingerprint
    can behave differently.  Emit typed Tracer events instead.
    """

    code = "RPL007"
    name = "ad-hoc-trace-output"
    #: Directory names this rule patrols (the protocol + dist layers).
    scoped_parts = ("cc", "dist")

    def applies_to(self, path: str) -> bool:
        if _is_path_part(path, "tests"):
            return False
        return any(_is_path_part(path, part)
                   for part in self.scoped_parts)

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    if (item.name == "logging"
                            or item.name.startswith("logging.")):
                        yield self.finding(
                            path, node,
                            "protocol/dist modules must not use the "
                            "logging module (process-global mutable "
                            "state); emit structured Tracer events "
                            "(repro.trace)")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "logging" or (
                        node.module is not None
                        and node.module.startswith("logging.")):
                    yield self.finding(
                        path, node,
                        "protocol/dist modules must not import from "
                        "logging; emit structured Tracer events "
                        "(repro.trace)")
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id == "print":
                    yield self.finding(
                        path, node,
                        "print() in a protocol/dist module corrupts "
                        "the CLI's output contract; emit structured "
                        "Tracer events (repro.trace)")


def _not_none_guards(test: ast.AST) -> Set[str]:
    """Expressions proven non-None when ``test`` is true."""
    guards: Set[str] = set()
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        for value in test.values:
            guards |= _not_none_guards(value)
    elif (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], ast.IsNot)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None):
        guards.add(ast.unparse(test.left))
    return guards


def _none_guards(test: ast.AST) -> Set[str]:
    """Expressions proven non-None when ``test`` is FALSE (``X is
    None`` tests: the else branch / fallthrough has X non-None)."""
    guards: Set[str] = set()
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
        for value in test.values:
            guards |= _none_guards(value)
    elif (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Is)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None):
        guards.add(ast.unparse(test.left))
    return guards


class UnguardedTracerRule(Rule):
    """RPL008: tracer event emitted without an ``is not None`` guard.

    The observability contract of the hot layers is *zero cost when
    tracing is off*: components store the ambient tracer (or None) at
    construction and every hook site must be a single ``is not None``
    test before any event-argument construction.  An unguarded
    ``<x>.tracer.<event>(...)`` either crashes on None or — worse —
    forces a tracer to exist, making every run pay event-building cost.
    The rule tracks guard scopes lexically: ``if t is not None:``
    bodies, ``and``-chains, ternaries, and early-return ``if t is
    None:`` blocks all count.
    """

    code = "RPL008"
    name = "unguarded-tracer-call"
    #: Directory names this rule patrols (the hot simulation layers).
    scoped_parts = ("cc", "dist", "kernel")

    def applies_to(self, path: str) -> bool:
        if _is_path_part(path, "tests"):
            return False
        return any(_is_path_part(path, part)
                   for part in self.scoped_parts)

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        findings: List[Finding] = []
        self._scan_block(tree.body, set(), path, findings)
        return iter(findings)

    # -- statement walk, threading the guarded-expression set ----------
    def _scan_block(self, stmts, guarded: Set[str], path: str,
                    findings: List[Finding]) -> None:
        guarded = set(guarded)
        for stmt in stmts:
            self._scan_stmt(stmt, guarded, path, findings)
            if (isinstance(stmt, ast.If) and not stmt.orelse
                    and stmt.body
                    and isinstance(stmt.body[-1],
                                   (ast.Return, ast.Raise,
                                    ast.Continue, ast.Break))):
                # `if x is None: return` — x is non-None below.
                guarded |= _none_guards(stmt.test)

    def _scan_stmt(self, stmt, guarded: Set[str], path: str,
                   findings: List[Finding]) -> None:
        if isinstance(stmt, ast.If):
            self._scan_expr(stmt.test, guarded, path, findings)
            self._scan_block(stmt.body,
                             guarded | _not_none_guards(stmt.test),
                             path, findings)
            self._scan_block(stmt.orelse,
                             guarded | _none_guards(stmt.test),
                             path, findings)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            # Deferred (or new) scope: outer guards do not hold inside.
            self._scan_block(stmt.body, set(), path, findings)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(stmt.iter, guarded, path, findings)
            self._scan_block(stmt.body, guarded, path, findings)
            self._scan_block(stmt.orelse, guarded, path, findings)
        elif isinstance(stmt, ast.While):
            self._scan_expr(stmt.test, guarded, path, findings)
            self._scan_block(stmt.body,
                             guarded | _not_none_guards(stmt.test),
                             path, findings)
            self._scan_block(stmt.orelse, guarded, path, findings)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan_expr(item.context_expr, guarded, path,
                                findings)
            self._scan_block(stmt.body, guarded, path, findings)
        elif isinstance(stmt, ast.Try):
            self._scan_block(stmt.body, guarded, path, findings)
            for handler in stmt.handlers:
                self._scan_block(handler.body, guarded, path, findings)
            self._scan_block(stmt.orelse, guarded, path, findings)
            self._scan_block(stmt.finalbody, guarded, path, findings)
        else:
            self._scan_expr(stmt, guarded, path, findings)

    # -- expression walk (guard-aware for `and` chains and ternaries) --
    def _scan_expr(self, node, guarded: Set[str], path: str,
                   findings: List[Finding]) -> None:
        if node is None:
            return
        if isinstance(node, ast.IfExp):
            self._scan_expr(node.test, guarded, path, findings)
            self._scan_expr(node.body,
                            guarded | _not_none_guards(node.test),
                            path, findings)
            self._scan_expr(node.orelse,
                            guarded | _none_guards(node.test),
                            path, findings)
            return
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            accumulated = set(guarded)
            for value in node.values:
                self._scan_expr(value, accumulated, path, findings)
                accumulated |= _not_none_guards(value)
            return
        if isinstance(node, ast.Call) and isinstance(node.func,
                                                     ast.Attribute):
            key = self._tracer_key(node.func.value)
            if key is not None and key not in guarded:
                findings.append(self.finding(
                    path, node,
                    f"tracer call {key}.{node.func.attr}(...) outside "
                    f"an 'if {key} is not None:' guard; trace hooks in "
                    f"hot layers must be zero-cost when tracing is off"))
        for child in ast.iter_child_nodes(node):
            self._scan_expr(child, guarded, path, findings)

    @staticmethod
    def _tracer_key(base: ast.AST):
        """Canonical key if ``base`` looks like a tracer reference."""
        if isinstance(base, ast.Name):
            if base.id == "tracer" or base.id.endswith("_tracer"):
                return base.id
        elif isinstance(base, ast.Attribute):
            if base.attr == "tracer" or base.attr.endswith("_tracer"):
                return ast.unparse(base)
        return None


class BlockingTaxonomyRule(Rule):
    """RPL009: blocking-category string literal re-declared in a layer
    that must source the taxonomy from :mod:`repro.constants`.

    Flags any string constant spelled exactly like one of the
    :data:`repro.constants.BLOCKING_CATEGORIES` names inside the
    protocol, trace or model layers.  Those layers classify, measure
    and predict the *same* categories; the only way the three stay
    interchangeable is if every occurrence references the shared
    constant instead of respelling it.
    """

    code = "RPL009"
    name = "blocking-category-literal"
    #: Directory names this rule patrols (the layers sharing the
    #: blocking taxonomy).
    scoped_parts = ("model", "trace", "cc")

    def applies_to(self, path: str) -> bool:
        if _is_path_part(path, "tests"):
            return False
        return any(_is_path_part(path, part)
                   for part in self.scoped_parts)

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Constant):
                continue
            if not isinstance(node.value, str):
                continue
            if node.value not in BLOCKING_CATEGORIES:
                continue
            yield self.finding(
                path, node,
                f"blocking-category literal {node.value!r} re-declared; "
                f"use the shared constant BLOCKING_"
                f"{node.value.upper()} from repro.constants so the "
                f"protocol, trace and model layers cannot drift")


class ProtocolLiteralRule(Rule):
    """RPL013: hard-coded protocol-name literal outside the registry.

    The protocol set lives in :mod:`repro.protocols`; each plugin spec
    declares its family, model family, checker and aliases, so any
    module that branches on — or re-declares a set of — protocol name
    literals will silently miss protocols registered later.  Two
    shapes are flagged, the ones drift historically came from:

    - a comparison or membership test against protocol-name literals
      (``if protocol == "C"``, ``protocol in ("L", "P")``) — dispatch
      belongs on the registered spec's fields;
    - a module-level tuple/list made entirely of protocol names
      (``MY_PROTOCOLS = ("C", "Cx")``) — protocol sets must be
      registry queries (``REGISTRY.model_family_names(...)`` etc.).

    Only canonical registry names are matched (aliases like
    ``ceiling`` double as ordinary words).  A class-level ``name``
    attribute (a protocol implementation identifying itself) and
    per-figure cast defaults in function signatures are deliberate
    and not flagged.
    """

    code = "RPL013"
    name = "protocol-name-literal"
    #: Directory names this rule patrols: every layer that consumes
    #: protocols (their home package, repro/protocols, is the one
    #: place allowed to spell the names).
    scoped_parts = ("cc", "dist", "model", "bench")

    def applies_to(self, path: str) -> bool:
        if _is_path_part(path, "tests"):
            return False
        if _is_path_part(path, "protocols"):
            return False
        return any(_is_path_part(path, part)
                   for part in self.scoped_parts)

    @staticmethod
    def _protocol_names() -> set:
        # Imported lazily: the registry pulls in the cc package, which
        # this module must not need just to be importable.
        from ..protocols import REGISTRY
        return set(REGISTRY.names())

    @staticmethod
    def _name_literals(node: ast.AST, names: set) -> list:
        """Protocol-name constants in ``node``: the node itself, or
        every element of a homogeneous tuple/list/set of them (a
        mixed container is not a protocol set)."""
        if isinstance(node, ast.Constant):
            if isinstance(node.value, str) and node.value in names:
                return [node]
            return []
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            elements = node.elts
            if not elements:
                return []
            for element in elements:
                if not (isinstance(element, ast.Constant)
                        and isinstance(element.value, str)
                        and element.value in names):
                    return []
            return list(elements)
        return []

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        names = self._protocol_names()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            for side in [node.left] + list(node.comparators):
                for literal in self._name_literals(side, names):
                    yield self.finding(
                        path, literal,
                        f"protocol name {literal.value!r} tested "
                        f"against a literal; dispatch on the "
                        f"registered spec's fields "
                        f"(repro.protocols.REGISTRY) instead")
        for statement in tree.body:
            value = None
            if isinstance(statement, ast.Assign):
                value = statement.value
            elif isinstance(statement, ast.AnnAssign):
                value = statement.value
            if not isinstance(value, (ast.Tuple, ast.List, ast.Set)):
                continue
            literals = self._name_literals(value, names)
            if literals:
                yield self.finding(
                    path, value,
                    "protocol set re-declared as literals; derive it "
                    "from a repro.protocols.REGISTRY query so newly "
                    "registered protocols are never missed")


class HostClockGatewayRule(Rule):
    """RPL014: direct host-clock call outside the sanctioned gateway.

    RPL001 already bans wall-clock *absolute* time in simulation code
    but deliberately allows ``time.perf_counter()`` / ``monotonic()``
    for harness timing.  In the determinism-critical layers — ``cc``,
    ``dist``, ``kernel`` and ``telemetry`` — even elapsed host time
    must flow through one audited helper,
    :func:`repro.telemetry.hostclock.host_clock`, so a reviewer can
    find every host-time read in those layers with a single grep and
    the metrics artifacts can never silently mix host and simulated
    timestamps.  Both the call forms (``time.perf_counter()``) and the
    from-imports (``from time import perf_counter``) are flagged; the
    gateway module itself is exempt.
    """

    code = "RPL014"
    name = "host-clock-outside-gateway"
    #: Directory names this rule patrols.
    scoped_parts = ("cc", "dist", "kernel", "telemetry")
    #: Module basenames allowed to touch the host clock directly.
    gateway_modules = ("hostclock.py",)
    #: Everything on the ``time`` module that reads a host clock.
    banned = (_WALL_CLOCK_TIME
              | {"perf_counter", "perf_counter_ns", "monotonic",
                 "monotonic_ns", "process_time", "process_time_ns"})

    def applies_to(self, path: str) -> bool:
        if _is_path_part(path, "tests"):
            return False
        normalized = path.replace("\\", "/")
        if normalized.rsplit("/", 1)[-1] in self.gateway_modules:
            return False
        return any(_is_path_part(path, part)
                   for part in self.scoped_parts)

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        time_aliases = _module_aliases(tree, "time")
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for item in node.names:
                    if item.name in self.banned:
                        yield self.finding(
                            path, node,
                            f"'from time import {item.name}' in a "
                            f"determinism-critical layer; route host "
                            f"timing through repro.telemetry.hostclock"
                            f".host_clock()")
                continue
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in time_aliases
                    and func.attr in self.banned):
                yield self.finding(
                    path, node,
                    f"direct host-clock call time.{func.attr}() in a "
                    f"determinism-critical layer; route host timing "
                    f"through repro.telemetry.hostclock.host_clock()")


class EventQueueInternalsRule(Rule):
    """RPL015: event-queue internals reached outside ``kernel/events.py``.

    The event queue's representation — a tuple heap with an inverted
    dead-entry count and reserved sequence numbers — is the queue
    module's private business: the kernel's run loop, the controlled
    scheduler and the telemetry probe reach it only through its
    methods (``dispatch_heap``, ``note_dead``, ``queue_stats``, ...).
    Code that reads the heap or counters directly silently breaks the
    queue's invariants (the live count, compaction, the reserved
    block) and pins a representation the queue must stay free to
    change.

    Flagged: an attribute read of a queue-internal name whose base
    expression looks like an event queue — a name or attribute spelled
    ``events``/``_events``/``queue`` (``events._heap``,
    ``self._events._dead``, ``kernel.events._seq``).  Unrelated
    objects with fields like ``_seq`` (the wait-queue's arrival
    counter, transaction ids) are not flagged because their base is
    not queue-shaped.  ``kernel/events.py`` itself is exempt, as are
    tests.
    """

    code = "RPL015"
    name = "event-queue-internals"
    #: Internal attributes of the event queue.
    banned = frozenset({"_heap", "_dead", "_seq", "_reserved",
                        "_cancelled_total"})
    #: Base-expression spellings that identify an event queue.
    queue_names = frozenset({"events", "_events", "queue"})
    #: Module basenames allowed to touch the queue's internals.
    queue_modules = ("events.py",)

    def applies_to(self, path: str) -> bool:
        if _is_path_part(path, "tests"):
            return False
        normalized = path.replace("\\", "/")
        return normalized.rsplit("/", 1)[-1] not in self.queue_modules

    def _queue_shaped(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.queue_names
        if isinstance(node, ast.Attribute):
            return node.attr in self.queue_names
        return False

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr in self.banned
                    and self._queue_shaped(node.value)):
                yield self.finding(
                    path, node,
                    f"event-queue internal '.{node.attr}' accessed "
                    f"outside kernel/events.py; use the queue API "
                    f"(dispatch_heap/note_dead/live_entries/"
                    f"queue_stats/...) so the queue stays "
                    f"encapsulated")


#: The syntactic rule set, in code order.  The flow-aware rules
#: (RPL010-RPL012) live in :mod:`repro.analyze.flow_rules`; they are
#: appended below so the shipped registry stays one tuple.
_SYNTACTIC_RULES = (
    WallClockRule(),
    GlobalRandomRule(),
    DiscardedSyscallRule(),
    BlockingSyscallRule(),
    FingerprintSafetyRule(),
    MutableDefaultRule(),
    AdHocTraceOutputRule(),
    UnguardedTracerRule(),
    BlockingTaxonomyRule(),
    ProtocolLiteralRule(),
    HostClockGatewayRule(),
    EventQueueInternalsRule(),
)

#: code -> one-line description, for ``repro lint --list-rules``.
RULE_INDEX = {
    "RPL001": "wall-clock read or sleep in simulation code",
    "RPL002": "process-global randomness (random.*, os.urandom)",
    "RPL003": "kernel syscall constructed but never yielded",
    "RPL004": "blocking kernel syscall outside a process body",
    "RPL005": "fingerprint-unsafe config dataclass field",
    "RPL006": "mutable default argument",
    "RPL007": "print()/logging in protocol or dist modules",
    "RPL008": "tracer event call outside an 'is not None' guard",
    "RPL009": "re-declared blocking-category string literal",
    "RPL013": "hard-coded protocol-name literal outside the registry",
    "RPL014": "host-clock call outside the hostclock gateway",
    "RPL015": "event-queue internals accessed outside kernel/events.py",
}

# Imported at the bottom on purpose: flow_rules subclasses Rule from
# this module, so the import must run after the class definitions.
from .flow_rules import FLOW_RULES, FLOW_RULE_INDEX  # noqa: E402

DEFAULT_RULES = _SYNTACTIC_RULES + FLOW_RULES
RULE_INDEX.update(FLOW_RULE_INDEX)
