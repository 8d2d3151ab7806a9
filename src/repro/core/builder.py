"""Configuration Manager: build runnable system instances from configs.

"UI initiates the Configuration Manager (CM) which initializes necessary
data structures for transaction processing based on user specification.
CM invokes the Transaction Generator at an appropriate time interval to
generate the next transaction."

:class:`SingleSiteSystem` assembles the single-site stack of §3
(kernel + CPU + parallel I/O + database + protocol + monitor) and
:func:`build_distributed` (in :mod:`repro.dist.system`) the distributed
stack of §4; both schedule arrivals from the deterministic workload
schedule so every protocol sees the identical transaction stream.
"""

from __future__ import annotations

from typing import List, Optional

from ..cc import make_protocol
from ..db.objects import Database
from ..kernel import Kernel
from ..resources.cpu import CPU
from ..resources.io import DiskArray, ParallelIO
from ..txn.generator import TransactionSpec, WorkloadGenerator
from ..txn.manager import spawn_transaction
from ..txn.priority import PriorityAssigner, proportional_deadline
from ..txn.transaction import Transaction
from .config import SingleSiteConfig
from .monitor import PerformanceMonitor


class SingleSiteSystem:
    """A fully wired single-site real-time database instance."""

    def __init__(self, config: SingleSiteConfig,
                 schedule: Optional[List[TransactionSpec]] = None):
        """With ``schedule`` given, the provided arrival schedule is
        replayed (common random numbers across protocols); otherwise a
        fresh one is generated from the config's workload and seed."""
        config.validate()
        self.config = config
        self.kernel = Kernel(seed=config.seed)
        self.cc = make_protocol(config.protocol, self.kernel,
                                config.protocol_options)
        self.cpu = CPU(self.kernel, name="cpu-0",
                       policy=self.cc.cpu_policy)
        if config.io_servers is None:
            # The paper's assumption: "concurrency is fully achieved
            # with an assumption of parallel I/O processing".
            self.io = ParallelIO(self.kernel, name="io-0")
        else:
            self.io = DiskArray(self.kernel, servers=config.io_servers,
                                name="disks-0",
                                policy=self.cc.cpu_policy)
        self.database = Database(config.db_size, site_id=0)
        self.monitor = PerformanceMonitor()
        self.assigner = PriorityAssigner(config.timing.priority_policy)
        self._active = 0
        if schedule is None:
            workload = config.workload
            generator = WorkloadGenerator(
                self.kernel.rng, config.db_size,
                workload.mean_interarrival, workload.transaction_size,
                workload.n_transactions,
                read_only_fraction=workload.read_only_fraction,
                write_fraction=workload.write_fraction,
                size_jitter=workload.size_jitter)
            schedule = generator.generate()
        self.schedule = schedule
        for spec in schedule:
            self.kernel.at(spec.arrival,
                           lambda spec=spec: self._admit(spec))

    # ------------------------------------------------------------------
    def _admit(self, spec: TransactionSpec) -> None:
        """Turn a spec into a live transaction at its arrival instant."""
        now = self.kernel.now
        deadline = proportional_deadline(
            now, spec.size, self.config.costs.per_object_time,
            self.config.timing.slack_factor,
            load=self._active,
            load_factor=self.config.timing.load_factor)
        priority = self.assigner.priority(now, deadline)
        txn = Transaction(spec.operations, now, deadline, priority,
                          site=spec.site, txn_type=spec.txn_type,
                          periodic=spec.periodic)
        self._active += 1
        spawn_transaction(self.kernel, txn, self.cc, self.cpu, self.io,
                          self.database, self.config.costs,
                          self._on_done)

    def _on_done(self, txn: Transaction) -> None:
        self._active -= 1
        self.monitor.record(txn)

    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> PerformanceMonitor:
        """Run to completion (or ``until``); returns the monitor."""
        self.kernel.run(until=until)
        return self.monitor

    def summary(self) -> dict:
        row = self.monitor.summary()
        row.update({f"cc_{key}": value
                    for key, value in self.cc.stats.as_dict().items()})
        row["cpu_utilization"] = self.cpu.utilization(
            max(self.kernel.now, 1e-12))
        return row
