"""Trace exporters: JSONL and Chrome ``trace_event`` format.

- **JSONL** — one meta header line plus one JSON object per event;
  lossless round trip through :func:`load_jsonl` (the ``repro trace``
  subcommands operate on these artifacts).
- **Chrome trace_event** — the JSON array format Perfetto and
  ``about:tracing`` load directly: one *process* lane per site, one
  *thread* lane per transaction, complete (``"X"``) events for
  transaction lifetimes, lock-blocking spans and RPC spans, instant
  (``"i"``) events for messages, ceilings, 2PC phases and crashes.
  Timestamps map one virtual time unit to one microsecond.

:func:`validate_chrome_document` is the schema check CI runs against
every exported artifact.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Optional, Tuple

from .events import EVENT_KINDS, TraceEvent
from .timeline import reconstruct

TRACE_VERSION = 1

#: Chrome events encoded per write: small enough that the encoded
#: slice never shows in peak RSS, large enough to amortise the call.
CHROME_CHUNK = 256

#: Event kinds surfaced as Chrome instant events (the rest are either
#: span-reconstructed or too chatty for a visual timeline).
_INSTANT_KINDS = ("msg_send", "msg_deliver", "msg_drop", "msg_retry",
                  "msg_undeliverable", "ceiling_raise", "ceiling_lower",
                  "priority_inherit", "priority_restore", "2pc_prepare",
                  "2pc_decide", "2pc_done", "site_crash",
                  "site_recover", "txn_restart")


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def export_jsonl(tracer, destination: str) -> Dict[str, int]:
    """Write ``tracer``'s ring buffer as JSONL; returns the meta row."""
    meta = {"trace_version": TRACE_VERSION,
            "events": len(tracer.events), "emitted": tracer.emitted,
            "dropped": tracer.dropped,
            "callback_errors": tracer.callback_errors}
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(destination, "w", encoding="utf-8") as sink:
        sink.write(encode({"meta": meta}) + "\n")
        for event in tracer.events:
            sink.write(encode(event.as_dict()) + "\n")
    return meta


def load_jsonl(source: str) -> Tuple[Dict[str, int], List[TraceEvent]]:
    """Read a JSONL artifact back into ``(meta, events)``."""
    meta: Dict[str, int] = {}
    events: List[TraceEvent] = []
    with open(source, "r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if "meta" in record and "kind" not in record:
                meta = record["meta"]
            else:
                events.append(TraceEvent.from_dict(record))
    return meta, events


# ----------------------------------------------------------------------
# Chrome trace_event
# ----------------------------------------------------------------------
def _finite(value):
    """Perfetto's JSON parser rejects Infinity/NaN literals."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def _safe_args(data: Optional[Dict]) -> Dict:
    return {key: _finite(value) for key, value in (data or {}).items()}


def _pid(site: Optional[int]) -> int:
    return site if isinstance(site, int) else 0


def chrome_document(events: Iterable[TraceEvent],
                    dropped: int = 0) -> Dict:
    """Build a Chrome ``trace_event`` document from an event stream."""
    events = list(events)
    run = reconstruct(events, dropped=dropped)
    out: List[Dict] = []
    lanes: Dict[Tuple[int, int], None] = {}
    pids: Dict[int, None] = {}

    def lane(site: Optional[int], tid: Optional[int]) -> Tuple[int, int]:
        key = (_pid(site), tid if isinstance(tid, int) else 0)
        pids.setdefault(key[0], None)
        lanes.setdefault(key, None)
        return key

    for timeline in run.transactions.values():
        if timeline.start is None or timeline.finish is None:
            continue
        pid, tid = lane(timeline.site, timeline.tid)
        out.append({"ph": "X", "name": f"txn-{timeline.tid}",
                    "cat": "txn", "pid": pid, "tid": tid,
                    "ts": timeline.start,
                    "dur": timeline.finish - timeline.start,
                    "args": _safe_args({
                        "priority": timeline.priority,
                        "deadline": timeline.deadline,
                        "outcome": timeline.outcome,
                        "restarts": timeline.restarts,
                        "applier": timeline.applier})})
        for span in timeline.block_spans:
            out.append({"ph": "X",
                        "name": f"{span.cause}-block oid={span.oid}",
                        "cat": "lock", "pid": pid, "tid": tid,
                        "ts": span.start, "dur": span.duration,
                        "args": {"oid": span.oid,
                                 "inverted": span.inverted,
                                 "closed_by": span.closed_by}})
        for begin, end, label in timeline.rpc_spans:
            out.append({"ph": "X", "name": label or "rpc",
                        "cat": "rpc", "pid": pid, "tid": tid,
                        "ts": begin, "dur": end - begin, "args": {}})
    for event in events:
        if event.kind not in _INSTANT_KINDS:
            continue
        pid, tid = lane(event.site, event.tid)
        out.append({"ph": "i", "name": event.kind, "cat": "event",
                    "pid": pid, "tid": tid, "ts": event.t, "s": "t",
                    "args": _safe_args(event.data)})
    metadata: List[Dict] = []
    for pid in sorted(pids):
        metadata.append({"ph": "M", "name": "process_name",
                         "pid": pid, "tid": 0,
                         "args": {"name": f"site-{pid}"}})
    for pid, tid in sorted(lanes):
        metadata.append({"ph": "M", "name": "thread_name",
                         "pid": pid, "tid": tid,
                         "args": {"name": (f"txn-{tid}" if tid
                                           else "infrastructure")}})
    return {"traceEvents": metadata + out,
            "displayTimeUnit": "ms",
            "otherData": {"trace_version": TRACE_VERSION,
                          "dropped": dropped}}


def export_chrome(events: Iterable[TraceEvent], destination: str,
                  dropped: int = 0) -> Dict:
    """Write a Perfetto-loadable Chrome trace JSON file.

    The bytes equal ``json.dump(document, sink, sort_keys=True)``, but
    ``traceEvents`` goes through the C encoder (``json.dump`` always
    takes the pure-Python path) in slices of :data:`CHROME_CHUNK`, so
    the encoded text is never held whole in memory.
    """
    document = chrome_document(events, dropped=dropped)
    encode = json.JSONEncoder(sort_keys=True).encode
    shell = dict(document)
    trace_events = shell.pop("traceEvents")
    with open(destination, "w", encoding="utf-8") as sink:
        # "traceEvents" sorts after every other key, so it closes the
        # object: open it in place of the shell's closing brace.
        sink.write(encode(shell)[:-1] + ', "traceEvents": [')
        for start in range(0, len(trace_events), CHROME_CHUNK):
            if start:
                sink.write(", ")
            # A list encodes as "[" + ", ".join(items) + "]".
            sink.write(encode(
                trace_events[start:start + CHROME_CHUNK])[1:-1])
        sink.write("]}")
    return document


# ----------------------------------------------------------------------
# schema validation
# ----------------------------------------------------------------------
def validate_chrome_document(document) -> List[str]:
    """Schema-check a Chrome trace document; [] means valid."""
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["document is not a JSON object"]
    trace_events = document.get("traceEvents")
    if not isinstance(trace_events, list):
        return ["missing or non-list 'traceEvents'"]
    for index, event in enumerate(trace_events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in ("X", "i", "M"):
            problems.append(f"{where}: unknown phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing name")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                problems.append(f"{where}: non-integer {field}")
        if phase in ("X", "i"):
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or not math.isfinite(ts):
                problems.append(f"{where}: bad ts {ts!r}")
        if phase == "X":
            dur = event.get("dur")
            if (not isinstance(dur, (int, float))
                    or not math.isfinite(dur) or dur < 0):
                problems.append(f"{where}: bad dur {dur!r}")
        if phase == "i" and event.get("s") not in ("g", "p", "t"):
            problems.append(f"{where}: bad instant scope")
        if phase == "M":
            args = event.get("args")
            if not (isinstance(args, dict)
                    and isinstance(args.get("name"), str)):
                problems.append(f"{where}: metadata without args.name")
        args = event.get("args")
        if args is not None and not isinstance(args, dict):
            problems.append(f"{where}: non-object args")
    return problems


def validate_event_kinds(events: Iterable[TraceEvent]) -> List[str]:
    """Every emitted kind must be registered in the schema table."""
    unknown = sorted({event.kind for event in events
                      if event.kind not in EVENT_KINDS})
    return [f"unregistered event kind {kind!r}" for kind in unknown]
