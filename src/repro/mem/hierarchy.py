"""Multi-core cache hierarchy: per-core L1/L2 plus a shared LLC.

Geometry and latencies follow the paper's Table 3: per-core 32KB 2-way L1
(2 cycles) and 1MB 8-way L2 (20 cycles), and an 8MB 16-way shared LLC (128
cycles).  Dirty evictions out of the LLC are surfaced through a writeback
sink so the secure-memory engine can charge CTR-increment/MAC/re-encryption
work for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional

from .access import MemoryAccess
from .cache import Cache
from .prefetchers import make_prefetcher
from .replacement import CacheLine


@dataclass
class LevelConfig:
    """Geometry + access latency for one cache level."""

    size_bytes: int
    assoc: int
    latency: int


@dataclass
class HierarchyConfig:
    """Per-core and shared cache level configuration (paper Table 3).

    ``l2_prefetcher`` names a per-core hardware prefetcher fed by the L1
    miss stream ("none"/"stride"/"next_line"/"berti").  A stride prefetcher
    is on by default, matching the Gem5 baseline the paper simulates:
    without one, a trace-driven model overstates how much a streaming
    workload suffers from sequential cache lookups — and therefore how
    much COSMOS's bypass helps it.
    """

    num_cores: int = 4
    l1: LevelConfig = field(default_factory=lambda: LevelConfig(32 * 1024, 2, 2))
    l2: LevelConfig = field(default_factory=lambda: LevelConfig(1024 * 1024, 8, 20))
    llc: LevelConfig = field(default_factory=lambda: LevelConfig(8 * 1024 * 1024, 16, 128))
    l2_prefetcher: str = "stride"

    def scaled_llc_for_cores(self) -> "HierarchyConfig":
        """Return a copy whose LLC holds an absolute 2MB per core (Fig. 15).

        The paper's 8-core experiment uses a 16MB shared LLC.  The rule
        sets the capacity to ``2MB * num_cores`` whatever LLC the base had,
        keeping only its associativity and latency, so on a capacity-scaled
        configuration it is not the paper's 2x: the 8-core copy of
        ``scaled_paper_config(16)`` gets 16MB, 32x its 4-core 512KB.
        """
        return replace(self, llc=replace(self.llc, size_bytes=2 * 1024 * 1024 * self.num_cores))


@dataclass(frozen=True)
class HierarchyResult:
    """Outcome of walking the hierarchy for one access.

    For a fixed configuration only four outcomes exist, so the hierarchy
    hands back one of four pre-built frozen instances — the per-access
    walk allocates nothing.

    Attributes:
        hit_level: ``"L1"``, ``"L2"``, ``"LLC"`` or ``"MEM"``.
        lookup_latency: Cycles spent probing caches up to (and including)
            the level that hit, or through the LLC on a full miss.
        l1_miss: True when the access missed the (core-private) L1.
        needs_memory: True when the block must come from DRAM.
    """

    hit_level: str
    lookup_latency: int
    l1_miss: bool
    needs_memory: bool


class MemoryHierarchy:
    """Three-level multi-core hierarchy with inclusive fills.

    Every level is an exact-LRU :class:`Cache` by construction:
    :class:`HierarchyConfig` has no policy field and nothing assigns a
    level's ``policy``, so :meth:`access_block` works on the levels' set
    dicts directly.  The levels stay :class:`Cache` objects for their
    statistics, ``set_contents``, ``flush`` and ``occupancy``.

    Args:
        config: Level geometry and latencies.
        memory_write_sink: Called with the block address of every dirty line
            evicted from the LLC (i.e. every DRAM write the hierarchy
            generates).
    """

    def __init__(
        self,
        config: Optional[HierarchyConfig] = None,
        memory_write_sink: Optional[Callable[[int], None]] = None,
        prefetch_fill_sink: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.config = config if config is not None else HierarchyConfig()
        cores = self.config.num_cores
        if cores < 1:
            raise ValueError("num_cores must be >= 1")
        self.prefetch_fill_sink = prefetch_fill_sink
        self._prefetchers = None
        if self.config.l2_prefetcher and self.config.l2_prefetcher != "none":
            self._prefetchers = [
                make_prefetcher(self.config.l2_prefetcher) for _ in range(cores)
            ]
        self.memory_write_sink = memory_write_sink
        self.l1: List[Cache] = []
        self.l2: List[Cache] = []
        self.llc = Cache(
            self.config.llc.size_bytes,
            self.config.llc.assoc,
            name="LLC",
            writeback_sink=self._llc_writeback,
        )
        # Dirty evictions cascade down: L1 -> L2 -> LLC -> memory, so a
        # store eventually reaches the secure-memory write path no matter
        # which level it is evicted from.
        for core in range(cores):
            l2 = Cache(
                self.config.l2.size_bytes,
                self.config.l2.assoc,
                name=f"L2[{core}]",
                writeback_sink=lambda block: self.llc.fill(block, dirty=True),
            )
            l1 = Cache(
                self.config.l1.size_bytes,
                self.config.l1.assoc,
                name=f"L1[{core}]",
                writeback_sink=(lambda l2cache: lambda block: l2cache.fill(block, dirty=True))(l2),
            )
            self.l1.append(l1)
            self.l2.append(l2)
        l1_latency = self.config.l1.latency
        l2_latency = l1_latency + self.config.l2.latency
        llc_latency = l2_latency + self.config.llc.latency
        self._result_l1 = HierarchyResult("L1", l1_latency, False, False)
        self._result_l2 = HierarchyResult("L2", l2_latency, True, False)
        self._result_llc = HierarchyResult("LLC", llc_latency, True, False)
        self._result_mem = HierarchyResult("MEM", llc_latency, True, True)
        self._num_cores = cores

    def _llc_writeback(self, block_address: int) -> None:
        if self.memory_write_sink is not None:
            self.memory_write_sink(block_address)

    # ------------------------------------------------------------------
    # Lookup / fill
    # ------------------------------------------------------------------
    def access(self, access: MemoryAccess) -> HierarchyResult:
        """Walk the hierarchy for one access record (object-API adapter)."""
        return self.access_block(access.block_address, access.is_write, access.core)

    def access_block(self, block: int, is_write: bool, core: int) -> HierarchyResult:
        """Walk the hierarchy for one access, filling caches on the way back.

        This is the scalar fast path: block address, write flag and core
        arrive as plain scalars and the returned :class:`HierarchyResult`
        is one of four shared frozen instances, so the common L1-hit case
        touches no heap allocation.

        Every design runs this walk on every access, so it is one frame:
        the L1, L2 and LLC probes, the L1 and L2 demand fills and the L2
        prefetch fills work directly on each level's set dicts, in the LRU
        set layout that :mod:`repro.mem.cache` defines.  Still called out:
        the prefetcher's ``observe`` (once per L1 miss, whatever the
        prefetcher kind) and the rarer events: LLC fills, a dirty victim's
        writeback into the next level's :meth:`Cache.fill`, and the
        design's sinks.  The side effects keep the method-based walk's
        order, which ``tests/test_hierarchy.py`` keeps as the reference:
        prefetches before the L2 probe, fills LLC -> L2 -> L1, and a dirty
        victim's writeback before the incoming line is inserted.

        The walk is sequential (L1 -> L2 -> LLC) as in the baseline secure
        memory design; early/parallel CTR access is modelled by the secure
        designs on top of the returned :class:`HierarchyResult`.
        """
        if not 0 <= core < self._num_cores:
            raise ValueError(
                f"access from core {core} but hierarchy has {self._num_cores} cores"
            )
        l1 = self.l1[core]
        l1_set = l1._sets[block & l1._set_mask]
        line = l1_set.pop(block, None)
        if line is not None:
            stats = l1.stats
            stats.hits += 1
            if line.prefetched and not line.referenced:
                stats.prefetch_useful += 1
            line.referenced = True
            if is_write:
                line.dirty = True
            l1_set[block] = line
            return self._result_l1
        l1.stats.misses += 1
        l2 = self.l2[core]
        l2_sets = l2._sets
        l2_mask = l2._set_mask
        llc = self.llc
        # Feed the per-core L2 prefetcher with the L1-miss stream.
        # Prefetched blocks fill L2 (and LLC when they come from memory);
        # fills from memory are reported through ``prefetch_fill_sink`` so
        # the owning design can charge DRAM traffic — and, for protected
        # designs, the counter fetch the decryption needs.
        prefetchers = self._prefetchers
        candidates = prefetchers[core].observe(block) if prefetchers is not None else ()
        if candidates:
            llc_sets = llc._sets
            llc_mask = llc._set_mask
            l2_assoc = l2.assoc
            for candidate in candidates:
                if candidate < 0:
                    continue
                target_set = l2_sets[candidate & l2_mask]
                if candidate in target_set:
                    continue
                if candidate not in llc_sets[candidate & llc_mask]:
                    if self.prefetch_fill_sink is not None:
                        self.prefetch_fill_sink(candidate)
                    llc.fill(candidate, prefetched=True)
                # l2.fill(candidate, prefetched=True); the candidate is absent.
                if len(target_set) < l2_assoc:
                    line = CacheLine(candidate)
                else:
                    victim = next(iter(target_set))
                    line = target_set.pop(victim)
                    stats = l2.stats
                    stats.evictions += 1
                    if line.prefetched and not line.referenced:
                        stats.prefetch_evicted_unused += 1
                    if line.dirty:
                        stats.writebacks += 1
                        llc.fill(victim, dirty=True)
                    line.tag = candidate
                    line.referenced = False
                    line.locality_flag = 1
                    line.locality_score = 0
                    line.dirty = False
                line.prefetched = True
                target_set[candidate] = line
        l2_set = l2_sets[block & l2_mask]
        line = l2_set.pop(block, None)
        if line is not None:
            stats = l2.stats
            stats.hits += 1
            if line.prefetched and not line.referenced:
                stats.prefetch_useful += 1
            line.referenced = True
            if is_write:
                line.dirty = True
            l2_set[block] = line
            result = self._result_l2
        else:
            l2.stats.misses += 1
            llc_set = llc._sets[block & llc._set_mask]
            line = llc_set.pop(block, None)
            if line is not None:
                stats = llc.stats
                stats.hits += 1
                if line.prefetched and not line.referenced:
                    stats.prefetch_useful += 1
                line.referenced = True
                if is_write:
                    line.dirty = True
                llc_set[block] = line
                result = self._result_llc
            else:
                llc.stats.misses += 1
                llc.fill(block)
                result = self._result_mem
            # l2.fill(block); the block missed L2 above.
            if len(l2_set) < l2.assoc:
                line = CacheLine(block)
            else:
                victim = next(iter(l2_set))
                line = l2_set.pop(victim)
                stats = l2.stats
                stats.evictions += 1
                if line.prefetched and not line.referenced:
                    stats.prefetch_evicted_unused += 1
                if line.dirty:
                    stats.writebacks += 1
                    llc.fill(victim, dirty=True)
                line.tag = block
                line.referenced = False
                line.locality_flag = 1
                line.locality_score = 0
                line.dirty = False
                line.prefetched = False
            l2_set[block] = line
        # l1.fill(block, dirty=is_write); the block missed L1 above.
        if len(l1_set) < l1.assoc:
            line = CacheLine(block)
        else:
            victim = next(iter(l1_set))
            line = l1_set.pop(victim)
            stats = l1.stats
            stats.evictions += 1
            if line.prefetched and not line.referenced:
                stats.prefetch_evicted_unused += 1
            if line.dirty:
                stats.writebacks += 1
                l2.fill(victim, dirty=True)
            line.tag = block
            line.referenced = False
            line.locality_flag = 1
            line.locality_score = 0
            line.prefetched = False
        line.dirty = is_write
        l1_set[block] = line
        return result

    def flush(self) -> None:
        """Flush every level (dirty LLC lines reach the writeback sink)."""
        for cache in self.l1:
            cache.flush()
        for cache in self.l2:
            cache.flush()
        self.llc.flush()

    # ------------------------------------------------------------------
    # Aggregate statistics
    # ------------------------------------------------------------------
    def l1_miss_rate(self) -> float:
        """Demand miss rate aggregated over all core-private L1s."""
        hits = sum(cache.stats.hits for cache in self.l1)
        misses = sum(cache.stats.misses for cache in self.l1)
        total = hits + misses
        return misses / total if total else 0.0

    def l2_miss_rate(self) -> float:
        """Demand miss rate aggregated over all core-private L2s."""
        hits = sum(cache.stats.hits for cache in self.l2)
        misses = sum(cache.stats.misses for cache in self.l2)
        total = hits + misses
        return misses / total if total else 0.0

    def llc_miss_rate(self) -> float:
        """Demand miss rate of the shared LLC."""
        return self.llc.stats.miss_rate
