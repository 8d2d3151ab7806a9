"""Workload generation.

Reproduces the paper's load model: "Transactions are generated with
exponentially distributed interarrival times, and the data objects
updated by a transaction are chosen uniformly from the database.  The
total processing time of a transaction is directly related to the number
of data objects accessed."  Transaction types cover read-only/update and
periodic/aperiodic, with user-set mix fractions — the knobs the paper's
User Interface exposes ("load characteristics: number of transactions to
be executed, size of their read-sets and write-sets, transaction types
(read-only/update and periodic/aperiodic) and their priorities, and the
mean interarrival time of aperiodic transactions").

The generator emits :class:`TransactionSpec` values — pure data, no
kernel state — so the *same* workload can be replayed against every
protocol (common random numbers), which is how the figure benchmarks
compare C, P and L fairly.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, List, Optional, Sequence, Tuple

from ..db.locks import LockMode
from ..db.replication import ReplicaCatalog
from ..kernel.rng import RngStreams
from .transaction import TransactionType


@dataclasses.dataclass(frozen=True)
class TransactionSpec:
    """A not-yet-instantiated transaction: everything known at arrival."""

    arrival: float
    operations: Tuple[Tuple[int, LockMode], ...]
    site: int = 0
    txn_type: TransactionType = TransactionType.UPDATE
    periodic: bool = False

    @property
    def size(self) -> int:
        return len(self.operations)


class WorkloadGenerator:
    """Aperiodic open-arrival workload over a uniform database."""

    def __init__(self, rng: RngStreams, db_size: int,
                 mean_interarrival: float, transaction_size: int,
                 n_transactions: int,
                 read_only_fraction: float = 0.0,
                 write_fraction: float = 1.0,
                 size_jitter: int = 0,
                 n_sites: int = 1,
                 catalog: Optional[ReplicaCatalog] = None,
                 stream_prefix: str = "workload"):
        """
        ``transaction_size`` is the mean number of objects accessed;
        with ``size_jitter`` > 0 actual sizes are uniform in
        [size - jitter, size + jitter] (clamped to >= 1).

        ``read_only_fraction`` is the transaction mix (Figures 4–6 sweep
        this).  ``write_fraction`` is the share of an *update*
        transaction's operations that are writes (1.0 reproduces the
        paper's "objects updated by a transaction"; lower values add
        read-write conflicts inside update transactions).

        With ``catalog`` set (distributed runs), update transactions are
        assigned to a home site and their write sets drawn from that
        site's primary partition (restriction R2); read-only
        transactions are distributed randomly across sites with reads
        drawn uniformly from the whole database.
        """
        if not 0.0 <= read_only_fraction <= 1.0:
            raise ValueError("read_only_fraction must be in [0, 1], got "
                             f"{read_only_fraction}")
        if not 0.0 < write_fraction <= 1.0:
            raise ValueError("write_fraction must be in (0, 1], got "
                             f"{write_fraction}")
        if transaction_size < 1:
            raise ValueError(f"transaction_size must be >= 1, got "
                             f"{transaction_size}")
        if transaction_size + size_jitter > db_size:
            raise ValueError(
                f"transaction_size + jitter ({transaction_size} + "
                f"{size_jitter}) exceeds database size {db_size}")
        self.rng = rng
        self.db_size = db_size
        self.mean_interarrival = mean_interarrival
        self.transaction_size = transaction_size
        self.size_jitter = size_jitter
        self.n_transactions = n_transactions
        self.read_only_fraction = read_only_fraction
        self.write_fraction = write_fraction
        self.n_sites = n_sites
        self.catalog = catalog
        self._prefix = stream_prefix
        #: Every oid, in order: the single-site write pool and the
        #: list each update's read pool is copied from.
        self._all_oids = list(range(db_size))
        if catalog is not None and catalog.n_sites != n_sites:
            raise ValueError(
                f"catalog has {catalog.n_sites} sites, generator expects "
                f"{n_sites}")

    @classmethod
    def from_config(cls, rng: RngStreams, config,
                    catalog: Optional[ReplicaCatalog] = None
                    ) -> "WorkloadGenerator":
        """The generator a system config's workload describes, over
        ``catalog``'s sites when given."""
        workload = config.workload
        return cls(rng, config.db_size, workload.mean_interarrival,
                   workload.transaction_size, workload.n_transactions,
                   read_only_fraction=workload.read_only_fraction,
                   write_fraction=workload.write_fraction,
                   size_jitter=workload.size_jitter,
                   n_sites=catalog.n_sites if catalog is not None else 1,
                   catalog=catalog)

    # ------------------------------------------------------------------
    def iter_specs(self) -> Iterator[TransactionSpec]:
        """The arrival schedule, lazily: every draw comes from a named
        stream, so the specs equal :meth:`generate`'s."""
        clock = 0.0
        for index in range(self.n_transactions):
            clock += self.rng.exponential(f"{self._prefix}.arrivals",
                                          self.mean_interarrival)
            yield self._one(index, clock)

    def generate(self) -> List[TransactionSpec]:
        """Produce the full arrival schedule, deterministically."""
        return list(self.iter_specs())

    def _one(self, index: int, arrival: float) -> TransactionSpec:
        read_only = (self.rng.random(f"{self._prefix}.mix")
                     < self.read_only_fraction)
        size = self._draw_size()
        if read_only:
            site = (self.rng.randint(f"{self._prefix}.site", 0,
                                     self.n_sites - 1)
                    if self.n_sites > 1 else 0)
            oids = self.rng.sample(f"{self._prefix}.objects",
                                   range(self.db_size), size)
            operations = tuple((oid, LockMode.READ) for oid in oids)
            return TransactionSpec(arrival, operations, site,
                                   TransactionType.READ_ONLY)
        # Update transaction: written objects come from the home site's
        # primary partition (restriction R2 in distributed runs); any
        # read operations are drawn from the whole database, so in the
        # global (partitioned) mode they may be remote.
        if self.catalog is not None:
            site = self.rng.randint(f"{self._prefix}.site", 0,
                                    self.n_sites - 1)
            write_pool = self.catalog.primaries_at(site)
        else:
            site = 0
            write_pool = self._all_oids
        n_writes = max(1, round(self.write_fraction * size))
        n_writes = min(n_writes, size, len(write_pool))
        n_reads = size - n_writes
        write_oids = self.rng.sample(f"{self._prefix}.objects",
                                     write_pool, n_writes)
        read_oids = []
        if n_reads > 0:
            # The oids not written, in order: entry i of _all_oids is i,
            # so deleting written oids from the back keeps the indexes
            # valid.
            read_pool = self._all_oids.copy()
            for oid in sorted(write_oids, reverse=True):
                del read_pool[oid]
            read_oids = self.rng.sample(f"{self._prefix}.objects",
                                        read_pool, n_reads)
        operations = ([(oid, LockMode.WRITE) for oid in write_oids] +
                      [(oid, LockMode.READ) for oid in read_oids])
        # Access order is random (sample order is already random for the
        # writes; shuffle the merged list): ordered access would prevent
        # 2PL deadlocks entirely and mask the paper's Figure 3 effect.
        self.rng.stream(f"{self._prefix}.order").shuffle(operations)
        return TransactionSpec(arrival, tuple(operations), site,
                               TransactionType.UPDATE)

    def _draw_size(self) -> int:
        if self.size_jitter == 0:
            return self.transaction_size
        low = max(1, self.transaction_size - self.size_jitter)
        high = self.transaction_size + self.size_jitter
        return self.rng.randint(f"{self._prefix}.size", low, high)


class PeriodicStream:
    """A periodic transaction stream: the same access set, released every
    ``period`` time units — the paper's tracking scenario, where "a local
    track would be updated periodically in conjunction with repetitive
    scanning"."""

    def __init__(self, operations: Sequence[Tuple[int, LockMode]],
                 period: float, site: int = 0,
                 first_release: float = 0.0,
                 txn_type: TransactionType = TransactionType.UPDATE):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if not operations:
            raise ValueError("a periodic stream needs operations")
        self.operations = tuple(operations)
        self.period = period
        self.site = site
        self.first_release = first_release
        self.txn_type = txn_type

    def releases(self, horizon: float) -> List[TransactionSpec]:
        """All instances released strictly before ``horizon``."""
        specs = []
        release = self.first_release
        while release < horizon:
            specs.append(TransactionSpec(
                release, self.operations, self.site, self.txn_type,
                periodic=True))
            release += self.period
        return specs


def merge_schedules(*schedules: Sequence[TransactionSpec]
                    ) -> List[TransactionSpec]:
    """Merge spec lists into one arrival-ordered schedule."""
    merged = [spec for schedule in schedules for spec in schedule]
    merged.sort(key=lambda spec: spec.arrival)
    return merged
