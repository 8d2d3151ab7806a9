"""Finished work is freed: a run keeps only its active set alive.

Arrivals are drawn one instant ahead, the kernel forgets terminated
processes and sites prune terminated residents, so the ``Transaction``
and ``Process`` objects a finished run retains are bounded by its
peak concurrency, not by its length.  Keeping finished work would
retain at least one of each per transaction: at least ``4 * N`` after
the longer run.
"""

import pytest

from repro.core import (DistributedConfig, SingleSiteConfig,
                        SingleSiteSystem, TimingConfig, WorkloadConfig)
from repro.dist import DistributedSystem
from repro.txn import CostModel

from ..conftest import retained_after_run

N = 200


def single_site(protocol, n):
    return SingleSiteSystem(SingleSiteConfig(
        protocol=protocol, db_size=100, seed=5,
        workload=WorkloadConfig(n_transactions=n, mean_interarrival=18.0,
                                transaction_size=6, size_jitter=2),
        timing=TimingConfig(slack_factor=8.0),
        costs=CostModel(cpu_per_object=1.0, io_per_object=2.0)))


def distributed(mode, n, faults=None):
    return DistributedSystem(DistributedConfig(
        mode=mode, comm_delay=1.0, db_size=60, seed=11,
        workload=WorkloadConfig(n_transactions=n, mean_interarrival=3.0,
                                transaction_size=4, size_jitter=1,
                                read_only_fraction=0.5),
        timing=TimingConfig(slack_factor=10.0),
        costs=CostModel(cpu_per_object=1.0, io_per_object=0.0),
        faults=faults))


def assert_bounded(make):
    small = retained_after_run(lambda: make(N))
    large = retained_after_run(lambda: make(4 * N))
    assert small < N
    assert large < N


@pytest.mark.parametrize("protocol", ["C", "L"])
def test_single_site_run_frees_finished_transactions(protocol):
    assert_bounded(lambda n: single_site(protocol, n))


@pytest.mark.parametrize("mode", ["local", "global"])
def test_distributed_run_frees_finished_transactions(mode):
    assert_bounded(lambda n: distributed(mode, n))
