"""Layer spans recorded from outside the program.

:func:`instrument` wraps the public entry points of every ``repro``
package on the simulation path in spans, for the duration of a
``with`` block, and restores the originals afterwards.  Nothing in
``src/`` changes; the spans sit around the calls into each layer.

A span is ``(name, start, end, parent)``: ``name`` indexes
:attr:`SpanRecorder.labels`, ``parent`` is the index of the enclosing
span (``-1`` for a root).  Spans live in flat in-memory arrays and are
written out once, by :meth:`SpanRecorder.write`.

Besides the listed methods, three kinds of deferred work get spans of
the layer that defines them:

- the syscall bodies that ``acquire`` and ``use`` return, which the
  kernel runs later;
- every process body passed to ``Kernel.spawn`` (each resume is one
  span);
- every callback passed to ``EventQueue.schedule``.

A layer's self time is the duration of its spans minus the part
covered by their direct children; the kernel's self time is therefore
the time inside ``Kernel.run`` (and the queue methods) that no other
layer's span covers.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import sys
import time
from array import array
from typing import Dict, List, Optional

#: The ``repro`` packages on the simulation path, in report order.
LAYERS = ("kernel", "cc", "db", "txn", "resources", "dist", "faults",
          "core", "exec", "trace", "telemetry", "analyze", "protocols")

#: The concurrency-control lock API, wrapped on every
#: ``ConcurrencyControl`` subclass that defines it.
LOCK_API = ("acquire", "acquire_async", "cancel_async", "release_all",
            "abort", "register", "deregister")

#: ``(module, class or None, method names or None for every public
#: function the class defines)``.  ``None`` as the class means the
#: names are module-level functions; they are replaced in every
#: ``repro`` module that imported them by name.
ENTRY_POINTS = (
    ("repro.kernel.kernel", "Kernel",
     ("__init__", "run", "spawn", "ready", "interrupt",
      "set_inherited_priority", "at", "after")),
    ("repro.kernel.events", "EventQueue",
     ("schedule", "schedule_resume", "cancel")),
    ("repro.kernel.events", "Event", ("cancel",)),
    ("repro.kernel.ports", "Port", None),
    ("repro.kernel.semaphore", "Semaphore", None),
    ("repro.db.locks", "LockTable", None),
    ("repro.db.replication", "ReplicaCatalog", None),
    ("repro.db.objects", "Database", None),
    ("repro.db.objects", "DataObject", None),
    ("repro.resources.cpu", "CPU", None),
    ("repro.resources.io", "ParallelIO", None),
    ("repro.resources.io", "DiskArray", None),
    ("repro.txn.generator", "WorkloadGenerator", ("generate",)),
    ("repro.txn.manager", None, ("spawn_transaction",)),
    ("repro.dist.network", "Network", None),
    ("repro.dist.comms", "DirectComms", None),
    ("repro.dist.comms", "ReliableComms", None),
    ("repro.dist.site", "Site", None),
    ("repro.dist.site", "ReplyPort", None),
    ("repro.dist.message_server", "MessageServer", None),
    ("repro.dist.system", "DistributedSystem",
     ("__init__", "run", "summary", "max_staleness")),
    ("repro.faults.injector", "FaultInjector", None),
    ("repro.core.builder", "SingleSiteSystem",
     ("__init__", "run", "summary")),
    ("repro.core.monitor", "PerformanceMonitor", None),
    ("repro.core.experiment", None,
     ("run_single_site", "run_distributed")),
    ("repro.exec.engine", None, ("run_units",)),
    ("repro.exec.worker", None, ("execute_config",)),
    ("repro.protocols.registry", "ProtocolSpec", None),
    ("repro.protocols.registry", "ProtocolRegistry", None),
    ("repro.trace.tracer", "Tracer", None),
    ("repro.trace.tracer", None, ("current_tracer",)),
    ("repro.trace.export", None, ("export_jsonl", "export_chrome")),
    ("repro.telemetry.registry", "MetricsRegistry", None),
    ("repro.telemetry.registry", None, ("current_metrics",)),
    ("repro.telemetry.probes", "KernelProbe", None),
    ("repro.telemetry.probes", "CCProbe", None),
    ("repro.telemetry.probes", "TxnProbe", None),
    ("repro.telemetry.probes", "NetworkProbe", None),
    ("repro.telemetry.probes", "CommsProbe", None),
    ("repro.telemetry.probes", "TwoPCProbe", None),
    ("repro.telemetry.export", None, ("write_metrics_jsonl",)),
    ("repro.analyze.sanitizer", "Sanitizer", None),
    ("repro.analyze.sanitizer", None, ("current_sanitizer",)),
    ("repro.analyze.invariants", "ProtocolChecker", None),
    ("repro.analyze.invariants", "TwoPhaseChecker", None),
    ("repro.analyze.invariants", "CeilingChecker", None),
    ("repro.analyze.invariants", "ReplicationChecker", None),
)

#: Entry points whose return value is a ``Call`` syscall; its deferred
#: body gets a span of its own when the kernel runs it.
DEFERRED = {"acquire", "use"}

#: The activation checks every component makes at construction; they
#: are the only trace/telemetry/analyze work when those are off.
GUARDS = {"current_tracer", "current_metrics", "current_sanitizer"}


class SpanRecorder:
    """Flat in-memory span store plus the name table."""

    def __init__(self, package_root: str):
        self._root = package_root.rstrip(os.sep) + os.sep
        self.labels: List[str] = []
        self.layer: List[str] = []
        self._ids: Dict[tuple, int] = {}
        self._code_ids: Dict[object, Optional[int]] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        #: Event-queue length at each ``Kernel.run`` entry.
        self.backlogs: List[int] = []
        #: Specs returned by ``WorkloadGenerator.generate``.
        self.generated = 0

    def clear(self) -> None:
        """Drop recorded spans (the name table is kept)."""
        for store in (self.name, self.parent, self.start, self.end):
            del store[:]
        del self._stack[1:]
        self.backlogs.clear()
        self.generated = 0

    def __len__(self) -> int:
        return len(self.name)

    # ------------------------------------------------------------------
    def name_id(self, layer: str, label: str) -> int:
        key = (layer, label)
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.labels)
            self.labels.append(label)
            self.layer.append(layer)
        return nid

    def layer_of_file(self, filename: str) -> Optional[str]:
        """The ``repro`` package defining ``filename``, if any."""
        if not filename.startswith(self._root):
            return None
        head = filename[len(self._root):].split(os.sep, 1)
        return head[0] if len(head) == 2 else "repro"

    def code_id(self, code, kind: str) -> Optional[int]:
        """Span name for deferred code, attributed to its package."""
        key = (code, kind)
        if key not in self._code_ids:
            layer = self.layer_of_file(code.co_filename)
            self._code_ids[key] = (
                None if layer is None
                else self.name_id(layer, f"{kind} {code.co_name}"))
        return self._code_ids[key]

    def wrap(self, fn, nid: int):
        """``fn`` recording one span named ``nid`` per call."""
        names, parents, starts, ends = (self.name, self.parent,
                                        self.start, self.end)
        stack = self._stack
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            index = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return spanned

    # ------------------------------------------------------------------
    def write(self, path_stem: str, meta: dict) -> None:
        """Write the spans as ``<stem>.bin`` (four native-order arrays
        back to back: name int32, parent int32, start float64, end
        float64) plus ``<stem>.json`` (name table, layers, count,
        meta)."""
        os.makedirs(os.path.dirname(path_stem), exist_ok=True)
        with open(path_stem + ".bin", "wb") as handle:
            for store in (self.name, self.parent, self.start, self.end):
                store.tofile(handle)
        header = dict(meta, count=len(self), labels=self.labels,
                      layers=self.layer,
                      arrays=["name:i4", "parent:i4", "start:f8",
                              "end:f8"],
                      byteorder=sys.byteorder)
        with open(path_stem + ".json", "w", encoding="utf-8") as handle:
            json.dump(header, handle, indent=1)

    # ------------------------------------------------------------------
    def totals(self) -> dict:
        """Aggregate the recorded spans.

        Returns per-name ``count``, ``entries`` (spans whose parent is
        another layer's, i.e. calls *into* the layer), inclusive
        ``incl_s`` and ``self_s``, plus ``root_s``, the summed duration
        of root spans.
        """
        size = len(self.labels)
        count = [0] * size
        entries = [0] * size
        incl = [0.0] * size
        self_s = [0.0] * size
        layer = self.layer
        names = self.name
        root_s = 0.0
        for nid, parent, start, end in zip(names, self.parent,
                                           self.start, self.end):
            duration = end - start
            count[nid] += 1
            incl[nid] += duration
            self_s[nid] += duration
            if parent >= 0:
                parent_nid = names[parent]
                self_s[parent_nid] -= duration
                if layer[parent_nid] != layer[nid]:
                    entries[nid] += 1
            else:
                entries[nid] += 1
                root_s += duration
        return {"count": count, "entries": entries, "incl_s": incl,
                "self_s": self_s, "root_s": root_s}


class _Body:
    """A process body whose every resume is a span."""

    __slots__ = ("send", "throw", "close")

    def __init__(self, body, send, throw):
        self.send = send
        self.throw = throw
        self.close = body.close


def _code_of(callback):
    target = callback
    while isinstance(target, functools.partial):
        target = target.func
    target = getattr(target, "__func__", target)
    target = inspect.unwrap(target)
    return getattr(target, "__code__", None)


def _special(recorder: SpanRecorder, layer: str, owner: str, name: str,
             spanned):
    """Wrap ``spanned`` for entry points that hand out deferred work."""
    if name in DEFERRED:
        syscall_nid = recorder.name_id(layer, f"{owner}.{name} syscall")

        def deferred(*args, **kwargs):
            call = spanned(*args, **kwargs)
            if hasattr(call, "fn"):
                call.fn = recorder.wrap(call.fn, syscall_nid)
            return call
        return deferred
    if (owner, name) == ("Kernel", "spawn"):
        def spawn(kernel, body, *args, **kwargs):
            code = getattr(body, "gi_code", None)
            nid = (recorder.code_id(code, "body")
                   if code is not None else None)
            if nid is not None:
                body = _Body(body, recorder.wrap(body.send, nid),
                             recorder.wrap(body.throw, nid))
            return spanned(kernel, body, *args, **kwargs)
        return spawn
    if (owner, name) == ("Kernel", "run"):
        def run(kernel, *args, **kwargs):
            recorder.backlogs.append(len(kernel.events))
            return spanned(kernel, *args, **kwargs)
        return run
    if (owner, name) == ("EventQueue", "schedule"):
        def schedule(queue, time_, callback, *args, **kwargs):
            code = _code_of(callback)
            nid = (recorder.code_id(code, "callback")
                   if code is not None else None)
            if nid is not None:
                callback = recorder.wrap(callback, nid)
            return spanned(queue, time_, callback, *args, **kwargs)
        return schedule
    if (owner, name) == ("WorkloadGenerator", "generate"):
        def generate(*args, **kwargs):
            specs = spanned(*args, **kwargs)
            recorder.generated += len(specs)
            return specs
        return generate
    return spanned


def _public_functions(cls, names):
    if names is None:
        names = [name for name in vars(cls) if not name.startswith("_")]
    return [name for name in names
            if inspect.isfunction(vars(cls).get(name))]


@contextlib.contextmanager
def instrument(recorder: SpanRecorder):
    """Wrap every entry point in spans for the ``with`` block."""
    import importlib

    from repro.cc.base import ConcurrencyControl

    undo = []
    replaced = {}

    def patch_class(cls, names, layer):
        for name in _public_functions(cls, names):
            original = vars(cls)[name]
            nid = recorder.name_id(layer, f"{cls.__name__}.{name}")
            wrapper = _special(recorder, layer, cls.__name__, name,
                               recorder.wrap(original, nid))
            functools.update_wrapper(wrapper, original)
            undo.append((cls, name, original))
            setattr(cls, name, wrapper)

    for module_name, class_name, names in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        layer = module_name.split(".")[1]
        if class_name is not None:
            patch_class(getattr(module, class_name), names, layer)
            continue
        for name in names:
            original = getattr(module, name)
            wrapper = recorder.wrap(original,
                                    recorder.name_id(layer, name))
            replaced[id(original)] = (original,
                                      functools.update_wrapper(wrapper,
                                                               original))

    pending = [ConcurrencyControl]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        layer = recorder.layer_of_file(inspect.getfile(cls)) or "cc"
        patch_class(cls, LOCK_API, layer)

    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                undo.append((module, attr, value))
                setattr(module, attr, hit[1])
    try:
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
