"""Exporters: JSONL round trip, Chrome trace_event schema, validation."""

import json
import math

import pytest

from repro.trace import (TraceEvent, Tracer, chrome_document,
                         export_chrome, export_jsonl, load_jsonl,
                         tracing, validate_chrome_document,
                         validate_event_kinds)
from repro.trace.export import CHROME_CHUNK, TRACE_VERSION


def _small_tracer():
    tracer = Tracer()
    tracer.emit(0.0, "txn_start", site=1, tid=4,
                priority=-2.0, deadline=50.0)
    tracer.emit(1.0, "lock_block", site=1, tid=4, oid=7,
                cause="direct", waiter_priority=-2.0,
                holders=[[9, -8.0]])
    tracer.emit(3.0, "lock_grant", site=1, tid=4, oid=7, waited=True)
    tracer.emit(4.0, "msg_send", site=1, tid=4, dst=2,
                msg="DataRequest", copies=1)
    tracer.emit(6.0, "txn_commit", site=1, tid=4)
    return tracer


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def test_jsonl_round_trip(tmp_path):
    tracer = _small_tracer()
    path = str(tmp_path / "run.trace.jsonl")
    meta = export_jsonl(tracer, path)
    assert meta["events"] == 5
    assert meta["dropped"] == 0
    loaded_meta, events = load_jsonl(path)
    assert loaded_meta == meta
    assert events == list(tracer.events)


def test_jsonl_meta_reports_ring_overflow(tmp_path):
    tracer = Tracer(capacity=2)
    for k in range(5):
        tracer.emit(float(k), "txn_start", tid=k)
    path = str(tmp_path / "overflow.trace.jsonl")
    meta = export_jsonl(tracer, path)
    assert meta == {"trace_version": 1, "events": 2, "emitted": 5,
                    "dropped": 3, "callback_errors": 0}
    loaded_meta, events = load_jsonl(path)
    assert loaded_meta["dropped"] == 3
    assert len(events) == 2


# ----------------------------------------------------------------------
# Chrome trace_event
# ----------------------------------------------------------------------
def test_chrome_document_structure():
    tracer = _small_tracer()
    document = chrome_document(list(tracer.events))
    assert validate_chrome_document(document) == []
    events = document["traceEvents"]
    phases = {event["ph"] for event in events}
    assert phases == {"M", "X", "i"}
    # One txn lifetime X span, one lock-block X span, one msg instant.
    txn = [e for e in events if e["ph"] == "X" and e["cat"] == "txn"]
    assert len(txn) == 1
    assert txn[0]["ts"] == 0.0 and txn[0]["dur"] == 6.0
    assert txn[0]["pid"] == 1 and txn[0]["tid"] == 4
    blocks = [e for e in events if e["ph"] == "X" and e["cat"] == "lock"]
    assert len(blocks) == 1
    assert blocks[0]["dur"] == 2.0
    instants = [e for e in events if e["ph"] == "i"]
    assert [e["name"] for e in instants] == ["msg_send"]
    # Process/thread naming metadata is present.
    names = {(e["name"], e["args"]["name"]) for e in events
             if e["ph"] == "M"}
    assert ("process_name", "site-1") in names
    assert ("thread_name", "txn-4") in names


def test_chrome_export_sanitizes_non_finite_values(tmp_path):
    tracer = Tracer()
    tracer.emit(0.0, "txn_start", site=0, tid=1,
                priority=-float("inf"), deadline=float("inf"))
    tracer.emit(2.0, "txn_commit", site=0, tid=1)
    path = str(tmp_path / "inf.trace.json")
    document = export_chrome(list(tracer.events), path)
    assert validate_chrome_document(document) == []
    # The file is strict JSON (no Infinity literals)...
    with open(path, "r", encoding="utf-8") as stream:
        raw = stream.read()
    assert "Infinity" not in raw.replace("'inf'", "").replace(
        '"inf"', "")
    parsed = json.loads(raw)
    # ...and every numeric field is finite.
    for event in parsed["traceEvents"]:
        for field in ("ts", "dur"):
            if field in event:
                assert math.isfinite(event[field])


def test_validate_chrome_document_flags_problems():
    assert validate_chrome_document([]) == [
        "document is not a JSON object"]
    assert validate_chrome_document({}) == [
        "missing or non-list 'traceEvents'"]
    bad = {"traceEvents": [
        {"ph": "Z", "name": "x", "pid": 0, "tid": 0, "ts": 0},
        {"ph": "X", "name": "x", "pid": 0, "tid": 0,
         "ts": float("nan"), "dur": -1.0},
        {"ph": "i", "name": "x", "pid": "zero", "tid": 0,
         "ts": 0.0, "s": "q"},
        {"ph": "M", "name": "process_name", "pid": 0, "tid": 0,
         "args": {}},
    ]}
    problems = validate_chrome_document(bad)
    assert any("unknown phase" in p for p in problems)
    assert any("bad ts" in p for p in problems)
    assert any("bad dur" in p for p in problems)
    assert any("non-integer pid" in p for p in problems)
    assert any("bad instant scope" in p for p in problems)
    assert any("metadata without args.name" in p for p in problems)


def test_validate_event_kinds():
    good = [TraceEvent(0.0, "txn_start", 0, 1, None)]
    assert validate_event_kinds(good) == []
    bad = good + [TraceEvent(1.0, "made_up_kind", 0, 1, None)]
    assert validate_event_kinds(bad) == [
        "unregistered event kind 'made_up_kind'"]


# ----------------------------------------------------------------------
# Byte identity: the streamed writers against one-shot reference copies
# ----------------------------------------------------------------------
def _reference_jsonl(tracer, destination):
    """The one-``json.dumps``-per-line writer the streamed one replaced."""
    meta = {"trace_version": TRACE_VERSION,
            "events": len(tracer.events), "emitted": tracer.emitted,
            "dropped": tracer.dropped,
            "callback_errors": tracer.callback_errors}
    with open(destination, "w", encoding="utf-8") as sink:
        sink.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")
        for event in tracer.events:
            sink.write(json.dumps(event.as_dict(), sort_keys=True)
                       + "\n")
    return meta


def _reference_chrome(events, destination, dropped=0):
    """The pure-Python ``json.dump`` writer the streamed one replaced."""
    document = chrome_document(events, dropped=dropped)
    with open(destination, "w", encoding="utf-8") as sink:
        json.dump(document, sink, sort_keys=True)
    return document


def _read_bytes(path):
    with open(path, "rb") as stream:
        return stream.read()


def _assert_identical_artifacts(tracer, tmp_path):
    jsonl, reference_jsonl = (str(tmp_path / "new.trace.jsonl"),
                              str(tmp_path / "ref.trace.jsonl"))
    assert export_jsonl(tracer, jsonl) == _reference_jsonl(
        tracer, reference_jsonl)
    assert _read_bytes(jsonl) == _read_bytes(reference_jsonl)
    chrome, reference_chrome = (str(tmp_path / "new.trace.json"),
                                str(tmp_path / "ref.trace.json"))
    events = list(tracer.events)
    assert export_chrome(events, chrome, dropped=tracer.dropped) == \
        _reference_chrome(events, reference_chrome,
                          dropped=tracer.dropped)
    assert _read_bytes(chrome) == _read_bytes(reference_chrome)


def _traced(scenario):
    from tests.core.golden_scenarios import _reset_counters
    tracer = Tracer()
    _reset_counters()
    with tracing(tracer):
        scenario()
    return tracer


def test_streamed_artifacts_match_on_the_golden_ceiling_run(tmp_path):
    from tests.core.golden_scenarios import SCENARIOS
    tracer = _traced(SCENARIOS["single_site_pcp"])
    assert len(tracer.events) > CHROME_CHUNK
    _assert_identical_artifacts(tracer, tmp_path)


def test_streamed_artifacts_match_on_a_faulted_global_run(tmp_path):
    from tests.core.golden_scenarios import _distributed
    tracer = _traced(lambda: _distributed("global", faulted=True))
    kinds = {event.kind for event in tracer.events}
    assert {"msg_drop", "site_crash"} <= kinds
    _assert_identical_artifacts(tracer, tmp_path)


def test_streamed_artifacts_match_with_non_finite_payloads(tmp_path):
    tracer = Tracer()
    tracer.emit(0.0, "txn_start", site=0, tid=1,
                priority=-float("inf"), deadline=float("inf"))
    tracer.emit(1.0, "ceiling_raise", site=0, tid=1,
                ceiling=float("nan"), floor=-float("inf"))
    tracer.emit(2.0, "txn_commit", site=0, tid=1)
    _assert_identical_artifacts(tracer, tmp_path)


def test_streamed_artifacts_match_with_non_ascii_text(tmp_path):
    tracer = Tracer()
    tracer.emit(0.0, "txn_start", site=0, tid=1, priority=1.0,
                deadline=9.0)
    tracer.emit(1.0, "txn_restart", site=0, tid=1,
                reason=repr(ValueError("naïve — Zürich ✓ \u2603")))
    tracer.emit(2.0, "txn_commit", site=0, tid=1)
    _assert_identical_artifacts(tracer, tmp_path)


def test_streamed_artifacts_match_after_ring_overflow(tmp_path):
    tracer = Tracer(capacity=3)
    for k in range(7):
        tracer.emit(float(k), "msg_send", site=0, tid=k, dst=1,
                    msg="DataRequest", copies=1)
    assert tracer.dropped == 4
    _assert_identical_artifacts(tracer, tmp_path)


def test_streamed_artifacts_match_for_an_empty_tracer(tmp_path):
    _assert_identical_artifacts(Tracer(), tmp_path)


def _instants(count):
    """A tracer whose Chrome document holds exactly ``count`` events:
    one process and one thread name, then ``count - 2`` instants."""
    tracer = Tracer()
    for k in range(count - 2):
        tracer.emit(float(k), "msg_send", site=0, tid=1, dst=1,
                    msg="DataRequest", copies=1)
    assert len(chrome_document(list(tracer.events))["traceEvents"]) \
        == count
    return tracer


@pytest.mark.parametrize("count", [CHROME_CHUNK, CHROME_CHUNK + 1,
                                   3 * CHROME_CHUNK])
def test_streamed_chrome_matches_at_chunk_boundaries(tmp_path, count):
    _assert_identical_artifacts(_instants(count), tmp_path)
