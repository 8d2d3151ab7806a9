"""Protocol C's closed-form inheritance pass against the per-waiter scan.

``PriorityCeiling._contributions`` derives each inheritance pass from
the barrier head and runner-up.  The ``closed_form_check`` fixture
(tests/cc/conftest.py) compares every pass with the scan it replaced,
values and key order, here over the golden scenarios that run protocol
C: the single-site C and Cx runs and the distributed local, global and
faulted runs.  ``test_ceiling_spec.py`` runs the same check under
random interleavings.
"""

import pytest

from repro.cc import DistributedPriorityCeiling
from repro.db.locks import LockMode
from repro.kernel import Kernel, Port
from tests.conftest import make_txn
from tests.core.golden_scenarios import load_golden, run_scenario


@pytest.mark.parametrize("name", ["single_site_pcp", "single_site_pcpx",
                                  "dist_local", "dist_global",
                                  "dist_faulted"])
def test_closed_form_matches_scan_on_golden_run(name, closed_form_check):
    assert run_scenario(name) == load_golden(name)
    assert not closed_form_check.mismatches, (
        closed_form_check.mismatches[:5])
    assert closed_form_check.inheriting > 0


def test_dpcp_agent_sees_priority_inherited_at_another_agent():
    """DPCP agents share the transactions' processes, which breaks the
    closed form's second invariant: here ``mid`` waits at agent B while
    carrying the priority it inherited at agent A, above the first
    waiter in B's grant queue.  B's holder must inherit that priority,
    as the per-waiter scan gives it."""
    kernel = Kernel(seed=1)
    agent_a = DistributedPriorityCeiling(kernel)
    agent_b = DistributedPriorityCeiling(kernel)
    mid = make_txn([(0, "w"), (1, "w")], priority=1.0)
    urgent = make_txn([(0, "w")], priority=5.0)
    holder = make_txn([(1, "w")], priority=2.0)
    other = make_txn([(1, "w")], priority=3.0)

    def idle(port):
        yield port.receive()

    for txn in (mid, urgent, holder, other):
        txn.process = kernel.spawn(idle(Port(kernel, f"inbox-{txn.tid}")),
                                   f"txn-{txn.tid}", priority=txn.priority)
    kernel.run()
    agent_a.register(mid)
    agent_a.register(urgent)
    assert agent_a.acquire_async(mid, 0, LockMode.WRITE, lambda: None)
    assert not agent_a.acquire_async(urgent, 0, LockMode.WRITE,
                                     lambda: None)
    assert mid.process.inherited_priority == 5.0
    for txn in (holder, other, mid):
        agent_b.register(txn)
    assert agent_b.acquire_async(holder, 1, LockMode.WRITE, lambda: None)
    assert not agent_b.acquire_async(other, 1, LockMode.WRITE,
                                     lambda: None)
    assert not agent_b.acquire_async(mid, 1, LockMode.WRITE, lambda: None)
    assert holder.process.inherited_priority == 5.0
