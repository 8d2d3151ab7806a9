"""RPL015: event-queue internals must stay behind the queue API.

The queue in ``kernel/events.py`` keeps its heap (``_heap``) and
counters (``_dead``, ``_seq``, ``_reserved``) private; code that
reaches into them would break the queue's invariants, so the rule
bans those attribute reads everywhere except the queue module itself.
"""
import textwrap
from pathlib import Path

from repro.analyze.engine import LintEngine, iter_python_files
from repro.analyze.rules import DEFAULT_RULES, RULE_INDEX


def lint(source, path="src/repro/cc/base.py"):
    engine = LintEngine(DEFAULT_RULES, select=["RPL015"])
    return engine.check_source(textwrap.dedent(source), path)


def codes(source, path="src/repro/cc/base.py"):
    return [finding.code for finding in lint(source, path)]


def test_rule_is_registered():
    assert "RPL015" in RULE_INDEX


def test_fires_on_heap_access_through_events_name():
    source = """
    def drain(events):
        while events._heap:
            events._heap.pop()
    """
    assert codes(source) == ["RPL015", "RPL015"]


def test_fires_on_attribute_chained_queue_base():
    source = """
    class Probe:
        def snapshot(self, kernel):
            return kernel.events._reserved + kernel.events._dead
    """
    assert codes(source) == ["RPL015", "RPL015"]


def test_fires_on_private_events_attribute_base():
    source = """
    class Harness:
        def peek(self):
            return self._events._heap
    """
    assert codes(source) == ["RPL015"]


def test_silent_on_unrelated_seq_counter():
    # Wait queues and transaction managers keep their own ``_seq``
    # arrival counters on ``self`` — not a queue-shaped base.
    source = """
    class WaitQueue:
        def push(self, item):
            self._seq += 1
            return (self._seq, item)
    """
    assert codes(source) == []


def test_silent_on_sanctioned_queue_api():
    source = """
    def pump(events):
        heap = events.dispatch_heap()
        events.note_dead(1)
        return events.queue_stats(), list(events.live_entries())
    """
    assert codes(source) == []


def test_silent_inside_reference_engine_module():
    source = """
    def compact(events):
        events._heap.sort()
    """
    assert codes(source, path="src/repro/kernel/events.py") == []


def test_silent_in_tests():
    source = """
    def test_heap_shape(events):
        assert events._heap == []
    """
    assert codes(source, path="tests/kernel/test_events.py") == []


def test_honours_noqa():
    source = """
    def snapshot(events):
        return list(events._heap)  # noqa: RPL015
    """
    assert codes(source) == []


def test_shipped_package_is_clean():
    import repro

    engine = LintEngine(DEFAULT_RULES, select=["RPL015"])
    package_root = Path(repro.__file__).parent
    for module_path in iter_python_files([package_root]):
        assert engine.check_file(module_path) == []
