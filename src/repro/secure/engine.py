"""Secure-memory engine: the memory-controller side of the system.

Owns the counter scheme, CTR cache, integrity-tree model, MAC traffic model
and the DRAM channel, and exposes the two operations the designs need:

* :meth:`ctr_access` — look up the counter line for a data block; a miss
  costs a CTR DRAM read plus the Merkle-tree authentication walk (traffic;
  the verification latency overlaps OTP generation per the paper, Sec. 5).
* :meth:`read_data` / :meth:`secure_write` — the data-side DRAM traffic,
  MAC accounting and, for writes, the counter increment with re-encryption
  handling (background 64B requests, per the paper's Sec. 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..mem.dram import DramModel
from ..mem.prefetchers import Prefetcher, make_prefetcher
from ..mem.replacement import ReplacementPolicy, make_policy
from ..mem.stats import TrafficStats
from .aes import AES_LATENCY_CYCLES, AUTH_LATENCY_CYCLES
from .counters import CounterScheme, MorphCtrCounters
from .ctr_cache import CtrCache
from .layout import SecureLayout
from .mac import MACS_PER_LINE
from .merkle import IntegrityTreeModel


@dataclass
class EngineConfig:
    """Sizing and latency knobs for the secure-memory engine.

    Defaults follow the paper's Table 3: 512KB LRU CTR cache, 40-cycle AES
    and authentication, 1-cycle CTR combination (MorphCtr major+minor).

    ``ctr_policy_name``/``ctr_prefetcher_name`` select the CTR-cache
    replacement policy and prefetcher by name (Figure 5's design space);
    an explicit policy object passed to the engine wins over the name.
    """

    ctr_cache_bytes: int = 512 * 1024
    ctr_cache_assoc: int = 16
    mt_cache_bytes: int = 128 * 1024
    aes_latency: int = AES_LATENCY_CYCLES
    auth_latency: int = AUTH_LATENCY_CYCLES
    ctr_lookup_latency: int = 3
    ctr_combine_latency: int = 1
    ctr_policy_name: Optional[str] = None
    ctr_prefetcher_name: Optional[str] = None
    #: Synergy-style MAC placement (Saileshwar et al., HPCA'18): the MAC
    #: rides in the ECC chip alongside the data, so authentication costs no
    #: separate DRAM accesses.  Used by the ``synergy``/``cosmos-synergy``
    #: designs — the paper's footnote notes COSMOS composes with such
    #: MT/MAC optimisations.
    mac_in_ecc: bool = False


@dataclass
class EngineCounters:
    """Event counters specific to the secure engine."""

    ctr_overflows: int = 0
    writes_seen: int = 0
    reads_seen: int = 0


class SecureMemoryEngine:
    """Memory-controller model for an AES-CTR + MT protected memory."""

    def __init__(
        self,
        layout: SecureLayout,
        scheme: Optional[CounterScheme] = None,
        config: Optional[EngineConfig] = None,
        dram: Optional[DramModel] = None,
        ctr_policy: Optional[ReplacementPolicy] = None,
    ) -> None:
        self.layout = layout
        self.scheme = scheme if scheme is not None else MorphCtrCounters()
        self.config = config if config is not None else EngineConfig()
        self.dram = dram if dram is not None else DramModel()
        self.traffic = TrafficStats()
        self.events = EngineCounters()
        if ctr_policy is None and self.config.ctr_policy_name is not None:
            ctr_policy = make_policy(self.config.ctr_policy_name)
        self.prefetcher: Optional[Prefetcher] = None
        if self.config.ctr_prefetcher_name not in (None, "none"):
            self.prefetcher = make_prefetcher(self.config.ctr_prefetcher_name)
        self.ctr_cache = CtrCache(
            layout,
            self.scheme,
            size_bytes=self.config.ctr_cache_bytes,
            assoc=self.config.ctr_cache_assoc,
            policy=ctr_policy,
        )
        # Dirty counter lines evicted from the CTR cache are DRAM writes.
        self.ctr_cache.cache.writeback_sink = self._ctr_writeback
        self.integrity = IntegrityTreeModel(layout, cache_size_bytes=self.config.mt_cache_bytes)
        self._mac_pending = 0
        # Issue-time cursor for the current operation: the public entry
        # points stash their ``now`` here so internally-triggered requests
        # (CTR writebacks from cache fills, MT walks, MAC lines) are issued
        # at the same cycle and contend for banks/bus accordingly.
        self._now = 0
        # Optional hook set by COSMOS designs: maps a counter-line index to
        # the (locality_flag, locality_score) tag of every CTR access.
        self.ctr_classifier = None
        # Optional observability event ring (repro.obs).  None keeps the
        # write path free of any recording; when attached, only the rare
        # counter-overflow branch records an event.
        self.obs_events = None
        # Optional verification hook (repro.verify): called after every MT
        # authentication walk as on_authenticate(ctr_index, nodes_fetched).
        # The differential oracle uses it to cross-check, live, that every
        # counter-line DRAM fetch is authenticated exactly once.  None (the
        # default) keeps the counter path callback-free.
        self.on_authenticate = None

    # ------------------------------------------------------------------
    # Internal traffic helpers
    # ------------------------------------------------------------------
    def _ctr_writeback(self, ctr_block_address: int) -> None:
        self.traffic.ctr_writes += 1
        self.dram.request(ctr_block_address, is_write=True, now=self._now)

    def _charge_mac(self, data_block: int) -> None:
        """One MAC line access per 8 protected data accesses (paper Sec. 5).

        With Synergy-style MAC-in-ECC the MAC travels with the data burst,
        so no separate DRAM request is issued.
        """
        if self.config.mac_in_ecc:
            return
        self._mac_pending += 1
        if self._mac_pending >= MACS_PER_LINE:
            self._mac_pending = 0
            self.traffic.mac_accesses += 1
            self.dram.request(self.layout.mac_block_address(data_block), now=self._now)

    # ------------------------------------------------------------------
    # Counter path
    # ------------------------------------------------------------------
    def ctr_access(
        self, data_block: int, is_write: bool = False, now: int = 0
    ) -> Tuple[bool, int]:
        """Access the counter line covering ``data_block`` at cycle ``now``.

        With a :attr:`ctr_classifier` set (COSMOS's CTR locality
        predictor), the access is classified first and the resident line
        tagged with the result.

        Returns:
            ``(hit, latency)`` where latency covers the CTR-cache lookup
            plus, on a miss, the counter-line DRAM fetch (including any
            bank/bus queueing at ``now``).  The integrity walk's DRAM
            reads are charged as traffic and channel occupancy only — its
            latency overlaps OTP generation (paper Sec. 5).
        """
        self._now = now
        config = self.config
        latency = config.ctr_lookup_latency + config.ctr_combine_latency
        ctr_index = self.scheme.ctr_index(data_block)
        flag = score = None
        if self.ctr_classifier is not None:
            flag, score = self.ctr_classifier(ctr_index)
        hit = self.ctr_cache.access_index(ctr_index, is_write, flag, score)
        if not hit:
            ctr_address = self.layout.ctr_block_address(ctr_index)
            latency += self.dram.request(ctr_address, now=now)
            self.traffic.ctr_reads += 1
            self._authenticate(ctr_index)
        if self.prefetcher is not None:
            self._prefetch_counters(ctr_index)
        return hit, latency

    def _authenticate(self, ctr_index: int) -> None:
        """MT walk for a counter line fetched from DRAM (traffic only)."""
        fetched, addresses = self.integrity.traverse(ctr_index)
        self.traffic.mt_reads += fetched
        # One call for the walk's reads, looked up per call and never at
        # construction: a wrapper installed on the instance afterwards must
        # still see every read.
        self.dram.reads_at(addresses, self._now)
        if self.on_authenticate is not None:
            self.on_authenticate(ctr_index, fetched)

    def _prefetch_counters(self, ctr_index: int) -> None:
        """Run the CTR-cache prefetcher (Figure 5's design space).

        Prefetched counter lines that miss are fetched from DRAM and must
        be authenticated like any other CTR fetch — the paper's point that
        "incorrect prefetches still trigger unnecessary integrity checks".
        """
        for candidate in self.prefetcher.observe(ctr_index):
            if not 0 <= candidate < self.layout.ctr_blocks:
                continue
            address = self.layout.ctr_block_address(candidate)
            if self.ctr_cache.cache.lookup(address):
                continue
            self.ctr_cache.cache.stats.prefetch_issued += 1
            self.ctr_cache.cache.fill(address, prefetched=True)
            self.dram.request(address, now=self._now)
            self.traffic.ctr_reads += 1
            self._authenticate(candidate)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def read_data(self, data_block: int, now: int = 0) -> int:
        """Fetch a 64B data block from DRAM at ``now``; returns its latency."""
        self._now = now
        self.events.reads_seen += 1
        latency = self.dram.request(data_block, now=now)
        self.traffic.data_reads += 1
        self._charge_mac(data_block)
        return latency

    def secure_write(self, data_block: int, now: int = 0) -> None:
        """Write a dirty block back to protected DRAM (background).

        Increments the block's counter (re-encrypting the covered page on
        minor overflow), touches the CTR cache, updates the MAC and issues
        the data write.  All of this happens off the critical path — the
        memory controller queues it — so no latency is returned, but every
        request is issued at ``now`` and occupies real bank/bus time that
        later demand reads queue behind.
        """
        self._now = now
        self.events.writes_seen += 1
        event = self.scheme.increment(data_block)
        if event is not None:
            self.events.ctr_overflows += 1
            self.traffic.reencryption_requests += event.dram_requests
            self.dram.add_background_occupancy(event.dram_requests)
            if self.obs_events is not None:
                self.obs_events.record(
                    "ctr_overflow",
                    ctr_index=self.scheme.ctr_index(data_block),
                    dram_requests=event.dram_requests,
                    writes_seen=self.events.writes_seen,
                )
        self.ctr_access(data_block, is_write=True, now=now)
        self.traffic.data_writes += 1
        self.dram.request(data_block, is_write=True, now=now)
        self._charge_mac(data_block)

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def ctr_miss_rate(self) -> float:
        """CTR-cache miss rate observed so far."""
        return self.ctr_cache.miss_rate

    def decrypt_ready_latency(self, ctr_latency: int) -> int:
        """Cycles until the OTP is ready, given when the CTR arrived."""
        return ctr_latency + self.config.aes_latency
