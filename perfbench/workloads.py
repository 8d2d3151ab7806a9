"""The benchmark's workloads, spelled out as repro configurations.

Each workload is a list of configurations expanded into seeded run
units with :func:`repro.exec.plan_batch`, the planner ``repro fig2``
uses.  The configurations are written out here rather than imported
from ``repro.bench`` so the benchmark keeps measuring the same
simulated work while the program's own benchmark helpers change.

The calibrated parameters are the ones the figure sweeps run:

- Figures 2/3 (single site): a 200-object database, mean
  interarrival 25, size jitter ``max(1, size // 3)``, slack factor 8,
  one CPU time unit and two I/O time units per object.
- Figures 4-6 (three sites): a 300-object database, mean interarrival
  2.5, six objects per transaction (jitter 2), slack factor 8, one CPU
  time unit per object and no I/O.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Tuple

from repro.core.config import (DistributedConfig, SingleSiteConfig,
                               TimingConfig, WorkloadConfig)
from repro.exec import plan_batch
from repro.faults.plan import FaultPlan
from repro.txn.manager import CostModel

def single_site(protocol: str, size: int,
                n_transactions: int) -> SingleSiteConfig:
    """The Figure-2/3 configuration at one transaction size."""
    return SingleSiteConfig(
        protocol=protocol, db_size=200,
        workload=WorkloadConfig(n_transactions=n_transactions,
                                mean_interarrival=25.0,
                                transaction_size=size,
                                size_jitter=max(1, size // 3)),
        timing=TimingConfig(slack_factor=8.0),
        costs=CostModel(cpu_per_object=1.0, io_per_object=2.0))


def distributed(mode: str, n_transactions: int,
                faults: FaultPlan = None) -> DistributedConfig:
    """The Figure-4-6 configuration at comm delay 2, half read-only."""
    return DistributedConfig(
        mode=mode, comm_delay=2.0, db_size=300,
        workload=WorkloadConfig(n_transactions=n_transactions,
                                mean_interarrival=2.5,
                                transaction_size=6, size_jitter=2,
                                read_only_fraction=0.5),
        timing=TimingConfig(slack_factor=8.0),
        costs=CostModel(cpu_per_object=1.0, io_per_object=0.0),
        faults=faults)


#: Transactions per pcp_knee unit: enough that each unit's arrival
#: backlog exceeds the 2048 events from which the kernel sorts its
#: queue once instead of sifting a heap (``repro.kernel.events``).
KNEE_TRANSACTIONS = 2200


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    configs: Callable[[], List[object]]
    replications: int
    #: Run with the sanitizer, tracer and metrics switched on through
    #: the environment (REPRO_SANITIZE, REPRO_TRACE_DIR,
    #: REPRO_METRICS_DIR), the way users turn them on.
    instrumented: bool


WORKLOADS = {
    workload.name: workload for workload in (
        # PCP at the knee and overload sizes, in long units.
        Workload(
            name="pcp_knee",
            configs=lambda: [single_site("C", size, KNEE_TRANSACTIONS)
                             for size in (11, 14, 17)],
            replications=1, instrumented=False),
        # 2PL at the light sizes, in many figure-sized units.
        Workload(
            name="twopl_light",
            configs=lambda: [single_site(protocol, size, 200)
                             for protocol in ("L", "P")
                             for size in (2, 5)],
            replications=10, instrumented=False),
        # Local ceilings, the global ceiling manager, and the global
        # manager under 5% message loss.
        Workload(
            name="dist_mix",
            configs=lambda: [
                distributed("local", 500),
                distributed("global", 500),
                distributed("global", 500,
                            FaultPlan(loss_rate=0.05))],
            replications=3, instrumented=False),
        # The pcp_knee size-11 unit with every observer switched on.
        Workload(
            name="instrumented",
            configs=lambda: [single_site("C", 11, KNEE_TRANSACTIONS)],
            replications=1, instrumented=True),
    )
}


def plan(name: str, seed: int) -> Tuple[Workload, list]:
    """Build, validate and plan ``name``'s units under ``seed``."""
    workload = WORKLOADS[name]
    configs = workload.configs()
    for config in configs:
        config.validate()
    return workload, plan_batch(configs,
                                replications=workload.replications,
                                base_seed=seed)
