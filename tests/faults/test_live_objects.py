"""A crash-and-recover run frees finished work like a fault-free one.

Site crashes interrupt a site's residents; terminated residents must
still be pruned, so the retained ``Transaction``/``Process`` count
stays bounded by the active set (see
``tests/integration/test_live_objects.py``).
"""

from repro.faults import FaultPlan, SiteCrash

from ..integration.test_live_objects import assert_bounded, distributed

CRASH = FaultPlan(crashes=(SiteCrash(site=1, at=40.0, down_for=30.0),))


def test_local_crash_run_frees_finished_transactions():
    assert_bounded(lambda n: distributed("local", n, CRASH))
