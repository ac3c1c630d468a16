"""Lightweight statistics counters used by caches, DRAM and the simulator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(slots=True)
class CacheStats:
    """Hit/miss accounting for one cache.

    The ``prefetch_*`` counters track prefetcher effectiveness: a prefetched
    line counts as *useful* the first time a demand access hits it before it
    is evicted.  Slotted: the counters are incremented on every cache
    operation in the simulator's innermost loop.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    prefetch_issued: int = 0
    prefetch_useful: int = 0
    prefetch_evicted_unused: int = 0

    @property
    def accesses(self) -> int:
        """Total demand accesses observed."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Demand miss rate in [0, 1]; 0.0 when no accesses were made."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    @property
    def hit_rate(self) -> float:
        """Demand hit rate in [0, 1]; 0.0 when no accesses were made."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    @property
    def prefetch_accuracy(self) -> float:
        """Fraction of issued prefetches that were hit before eviction."""
        if self.prefetch_issued == 0:
            return 0.0
        return self.prefetch_useful / self.prefetch_issued

    def reset(self) -> None:
        """Zero every counter in place."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.prefetch_issued = 0
        self.prefetch_useful = 0
        self.prefetch_evicted_unused = 0


@dataclass(slots=True)
class TrafficStats:
    """DRAM traffic broken down by cause, in 64B-request units.

    Mirrors the categories in the paper's Figure 2: plain data reads and
    writes, Merkle-tree (MT) node reads, counter (CTR) reads/writes, MAC
    accesses and re-encryption traffic.
    """

    data_reads: int = 0
    data_writes: int = 0
    ctr_reads: int = 0
    ctr_writes: int = 0
    mt_reads: int = 0
    mac_accesses: int = 0
    reencryption_requests: int = 0

    @property
    def total(self) -> int:
        """Total DRAM requests across all categories."""
        return (
            self.data_reads
            + self.data_writes
            + self.ctr_reads
            + self.ctr_writes
            + self.mt_reads
            + self.mac_accesses
            + self.reencryption_requests
        )

    @property
    def security_overhead(self) -> int:
        """Requests caused purely by the secure-memory machinery."""
        return self.total - self.data_reads - self.data_writes

    def as_dict(self) -> Dict[str, int]:
        """Return the breakdown as a plain dictionary (for reports)."""
        return {
            "data_reads": self.data_reads,
            "data_writes": self.data_writes,
            "ctr_reads": self.ctr_reads,
            "ctr_writes": self.ctr_writes,
            "mt_reads": self.mt_reads,
            "mac_accesses": self.mac_accesses,
            "reencryption_requests": self.reencryption_requests,
            "total": self.total,
        }

    def reset(self) -> None:
        """Zero every counter in place."""
        self.data_reads = 0
        self.data_writes = 0
        self.ctr_reads = 0
        self.ctr_writes = 0
        self.mt_reads = 0
        self.mac_accesses = 0
        self.reencryption_requests = 0
