"""Configuration Manager: build runnable system instances from configs.

"UI initiates the Configuration Manager (CM) which initializes necessary
data structures for transaction processing based on user specification.
CM invokes the Transaction Generator at an appropriate time interval to
generate the next transaction."

:class:`SingleSiteSystem` assembles the single-site stack of §3
(kernel + CPU + parallel I/O + database + protocol + monitor) and
:class:`~repro.dist.system.DistributedSystem` the distributed stack of
§4; both draw arrivals lazily from the deterministic workload
generator, so every protocol sees the identical transaction stream.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..cc import make_protocol
from ..db.objects import Database
from ..db.replication import ReplicaCatalog
from ..kernel import Kernel
from ..resources.cpu import CPU
from ..resources.io import DiskArray, ParallelIO
from ..txn.generator import TransactionSpec, WorkloadGenerator
from ..txn.manager import spawn_transaction
from ..txn.priority import PriorityAssigner, proportional_deadline
from ..txn.transaction import Transaction
from .config import SingleSiteConfig
from .monitor import PerformanceMonitor


def stream_arrivals(kernel: Kernel, config,
                    schedule: Optional[List[TransactionSpec]],
                    admit: Callable[[TransactionSpec], None],
                    catalog: Optional[ReplicaCatalog] = None) -> None:
    """Feed ``admit`` the replayed ``schedule`` or, without one, the
    config's generated workload, one arrival instant at a time."""
    if schedule is None:
        generator = WorkloadGenerator.from_config(kernel.rng, config,
                                                  catalog)
        kernel.arrivals(generator.iter_specs(), generator.n_transactions,
                        admit)
    else:
        kernel.arrivals(schedule, len(schedule), admit)


class SingleSiteSystem:
    """A fully wired single-site real-time database instance."""

    def __init__(self, config: SingleSiteConfig,
                 schedule: Optional[List[TransactionSpec]] = None):
        """With ``schedule`` given, the provided arrival schedule is
        replayed (common random numbers across protocols) and kept;
        otherwise one is generated lazily from the config's workload
        and seed, and ``self.schedule`` is None."""
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
        self.schedule = schedule
        stream_arrivals(self.kernel, config, schedule, self._admit)

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
