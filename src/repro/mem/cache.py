"""Set-associative cache model.

This is the building block for every cache in the system: the per-core L1s
and L2s, the shared LLC, the CTR cache in the memory controller, the
Merkle-tree node cache, and (via a custom policy) COSMOS's LCR-CTR cache.

The model is functional + statistical: it tracks residency, dirtiness and
policy metadata per line and reports hits/misses/evictions, but does not
model ports or MSHRs — consistent with the trace-driven methodology in
DESIGN.md.

:meth:`Cache.access` and :meth:`Cache.fill` are among the innermost frames
of the simulator, and :meth:`Cache.access_and_fill` is the CTR cache's one
call per counter access.  Under the default :class:`LRUPolicy` they bypass
the policy object, and this is the one definition of the LRU set layout:
each set's dict is kept in recency order (a hit moves the line to the end,
a fill appends), so the victim is the set's first key, and the evicted
:class:`CacheLine` is recycled for the incoming block instead of allocating
a new one.  :meth:`repro.mem.hierarchy.MemoryHierarchy.access_block` and
:meth:`repro.secure.merkle.IntegrityTreeModel.traverse` work on their
caches' set dicts directly under this layout.  Other policies are
dispatched through their callbacks and get a fresh line per fill; their
sets keep insertion order (a hit reorders nothing, a fill appends).
:meth:`repro.secure.ctr_cache.CtrCache.access_index` works on the
LCR-CTR cache's set dicts directly under that order when the cache holds
the literal LCR policy, instead of calling :meth:`Cache.access_and_fill`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .access import BLOCK_SHIFT, BLOCK_SIZE
from .replacement import CacheLine, LRUPolicy, ReplacementPolicy
from .stats import CacheStats


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


class Cache:
    """A set-associative cache addressed by block address.

    Args:
        size_bytes: Total capacity in bytes.
        assoc: Number of ways per set.
        block_size: Line size in bytes (default 64, matching the system).
        policy: Replacement policy instance; defaults to a fresh LRU.
        name: Label used in reports.
        writeback_sink: Optional callable invoked with the victim's block
            address whenever a dirty line is evicted.
    """

    def __init__(
        self,
        size_bytes: int,
        assoc: int,
        block_size: int = BLOCK_SIZE,
        policy: Optional[ReplacementPolicy] = None,
        name: str = "cache",
        writeback_sink: Optional[Callable[[int], None]] = None,
    ) -> None:
        if block_size != (1 << BLOCK_SHIFT) and not _is_power_of_two(block_size):
            raise ValueError("block_size must be a power of two")
        if size_bytes % (assoc * block_size) != 0:
            raise ValueError(
                f"{name}: size {size_bytes} not divisible by assoc*block "
                f"({assoc}*{block_size})"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.block_size = block_size
        self.num_sets = size_bytes // (assoc * block_size)
        if not _is_power_of_two(self.num_sets):
            raise ValueError(f"{name}: number of sets ({self.num_sets}) must be a power of two")
        self.policy = policy if policy is not None else LRUPolicy()
        self.stats = CacheStats()
        self.writeback_sink = writeback_sink
        self._sets: List[Dict[int, CacheLine]] = [dict() for _ in range(self.num_sets)]
        self._set_mask = self.num_sets - 1

    # ------------------------------------------------------------------
    # Replacement policy
    # ------------------------------------------------------------------
    @property
    def policy(self) -> ReplacementPolicy:
        """The replacement policy; assignable (experiments swap it)."""
        return self._policy

    @policy.setter
    def policy(self, policy: ReplacementPolicy) -> None:
        self._policy = policy
        # LRU fast path: access()/fill() keep each set's dict in recency
        # order instead of dispatching to the policy's tick callbacks.
        # Exact-type check — subclasses may override any hook.  The order
        # is only recency order if the cache was LRU since its first fill,
        # so swap policies before any access lands.
        self._lru = type(policy) is LRUPolicy

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def set_index(self, block_address: int) -> int:
        """Set index for ``block_address`` (a block, not byte, address)."""
        return block_address & self._set_mask

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def lookup(self, block_address: int) -> bool:
        """Return True if the block is resident, without touching state."""
        return block_address in self._sets[block_address & self._set_mask]

    def access(self, block_address: int, is_write: bool = False) -> bool:
        """Perform a demand access; returns True on hit.

        On a miss the block is *not* inserted automatically — callers decide
        whether/when to fill (e.g. after modelling the fill latency) via
        :meth:`fill`.
        """
        index = block_address & self._set_mask
        target_set = self._sets[index]
        lru = self._lru
        # LRU pops the line so the re-insert below moves it to the end.
        line = target_set.pop(block_address, None) if lru else target_set.get(block_address)
        if line is None:
            self.stats.misses += 1
            return False
        stats = self.stats
        stats.hits += 1
        if line.prefetched and not line.referenced:
            stats.prefetch_useful += 1
        line.referenced = True
        if is_write:
            line.dirty = True
        if lru:
            target_set[block_address] = line
        else:
            self._policy.on_hit(index, line, block_address << BLOCK_SHIFT)
        return True

    def access_and_fill(self, block_address: int, is_write: bool = False) -> bool:
        """Demand access that fills the block on a miss; returns True on hit.

        Under LRU this is one pass over the set: a single ``pop`` finds
        the line, and a miss evicts and recycles the set's first line
        inline (the same steps as :meth:`access` then :meth:`fill`).
        """
        if not self._lru:
            if self.access(block_address, is_write):
                return True
            self.fill(block_address, dirty=is_write)
            return False
        target_set = self._sets[block_address & self._set_mask]
        stats = self.stats
        line = target_set.pop(block_address, None)
        if line is not None:
            stats.hits += 1
            if line.prefetched and not line.referenced:
                stats.prefetch_useful += 1
            line.referenced = True
            if is_write:
                line.dirty = True
            target_set[block_address] = line
            return True
        stats.misses += 1
        if len(target_set) < self.assoc:
            line = CacheLine(block_address)
        else:
            evicted_address = next(iter(target_set))
            line = target_set.pop(evicted_address)
            stats.evictions += 1
            if line.prefetched and not line.referenced:
                stats.prefetch_evicted_unused += 1
            if line.dirty:
                stats.writebacks += 1
                if self.writeback_sink is not None:
                    self.writeback_sink(evicted_address)
            # Recycled as in fill().
            line.tag = block_address
            line.referenced = False
            line.locality_flag = 1
            line.locality_score = 0
        line.dirty = is_write
        line.prefetched = False
        target_set[block_address] = line
        return False

    def fill(self, block_address: int, dirty: bool = False, prefetched: bool = False) -> Optional[int]:
        """Insert a block, evicting a victim if the set is full.

        Returns:
            The evicted block address, or None when no eviction occurred.
        """
        index = block_address & self._set_mask
        target_set = self._sets[index]
        line = target_set.get(block_address)
        if line is not None:
            if dirty:
                line.dirty = True
            return None
        lru = self._lru
        evicted_address: Optional[int] = None
        if len(target_set) < self.assoc:
            line = CacheLine(block_address)
        else:
            # The eviction is inlined (see _evict_line) — this is the
            # second-hottest frame in the simulator.
            if lru:
                evicted_address = next(iter(target_set))
                line = target_set.pop(evicted_address)
            else:
                # The live dict view is handed to the policy directly;
                # policies may iterate it repeatedly but must not mutate
                # residency.
                line = self._policy.victim(index, target_set.values())
                evicted_address = line.tag
                del target_set[evicted_address]
            stats = self.stats
            stats.evictions += 1
            if line.prefetched and not line.referenced:
                stats.prefetch_evicted_unused += 1
            if line.dirty:
                stats.writebacks += 1
                if self.writeback_sink is not None:
                    self.writeback_sink(evicted_address)
            if lru:
                # Recycle the victim for the incoming block.  Reset what a
                # resident line can change: the flags and the locality tags
                # CtrCache writes.  Nothing writes the other slots while
                # the cache is LRU, so they still hold CacheLine's defaults.
                line.tag = block_address
                line.referenced = False
                line.locality_flag = 1
                line.locality_score = 0
            else:
                self._policy.on_evict(index, line)
                line = CacheLine(block_address)
        line.dirty = dirty
        line.prefetched = prefetched
        target_set[block_address] = line
        if not lru:
            self._policy.on_insert(index, line, block_address << BLOCK_SHIFT)
        return evicted_address

    def _evict_line(self, index: int, line: CacheLine) -> None:
        # Kept for flush(); fill() inlines this sequence on its hot path.
        del self._sets[index][line.tag]
        self.stats.evictions += 1
        if line.prefetched and not line.referenced:
            self.stats.prefetch_evicted_unused += 1
        if line.dirty:
            self.stats.writebacks += 1
            if self.writeback_sink is not None:
                self.writeback_sink(line.tag)
        self._policy.on_evict(index, line)

    def invalidate(self, block_address: int) -> bool:
        """Drop a block if resident (no writeback); returns True if dropped.

        The replacement policy observes the drop through ``on_evict`` so
        per-line learning state (SHiP outcomes, LRU bookkeeping, LCR tags)
        does not leak for invalidated lines.
        """
        index = block_address & self._set_mask
        line = self._sets[index].pop(block_address, None)
        if line is None:
            return False
        self._policy.on_evict(index, line)
        return True

    def get_line(self, block_address: int) -> Optional[CacheLine]:
        """Return the resident line's metadata, or None."""
        return self._sets[block_address & self._set_mask].get(block_address)

    def flush(self) -> int:
        """Evict every resident line (issuing writebacks); returns count.

        Sets are flushed in index order, each in its dict order (recency
        order under LRU, least recent first).
        """
        flushed = 0
        for index, target_set in enumerate(self._sets):
            for line in list(target_set.values()):
                self._evict_line(index, line)
                flushed += 1
        return flushed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Number of resident lines."""
        return sum(len(target_set) for target_set in self._sets)

    @property
    def capacity_lines(self) -> int:
        """Maximum number of resident lines."""
        return self.num_sets * self.assoc

    def resident_blocks(self) -> List[int]:
        """All resident block addresses, set by set in dict order (recency
        order under LRU, least recent first)."""
        blocks: List[int] = []
        for target_set in self._sets:
            blocks.extend(target_set.keys())
        return blocks

    def set_contents(self, index: int) -> Tuple[CacheLine, ...]:
        """Lines currently resident in set ``index``, in dict order (recency
        order under LRU, least recent first)."""
        return tuple(self._sets[index].values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cache(name={self.name!r}, size={self.size_bytes}, assoc={self.assoc}, "
            f"sets={self.num_sets}, policy={self.policy.name})"
        )
