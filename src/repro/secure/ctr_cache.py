"""Counter (CTR) cache in the memory controller.

Maps a data block to its counter line (via the counter scheme + layout) and
caches counter lines on-chip.  The replacement policy is pluggable: LRU for
the MorphCtr baseline (paper Table 3) and COSMOS's locality-centric LCR
policy for the LCR-CTR cache (Algorithm 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Optional

from ..core.lcr_cache import FLAG_BAD, LcrReplacementPolicy
from ..mem.cache import Cache
from ..mem.replacement import CacheLine, ReplacementPolicy
from .counters import CounterScheme
from .layout import SecureLayout

_by_score = attrgetter("locality_score")


@dataclass(slots=True)
class CtrCacheStats:
    """CTR-cache accounting, including locality tagging for COSMOS."""

    hits: int = 0
    misses: int = 0
    good_locality_tags: int = 0
    bad_locality_tags: int = 0

    @property
    def accesses(self) -> int:
        """Total CTR-cache lookups."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """CTR-cache miss rate in [0, 1]."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    @property
    def hit_rate(self) -> float:
        """CTR-cache hit rate in [0, 1] — the obs layer's headline signal."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def as_dict(self) -> dict:
        """JSON-safe snapshot for obs artifacts and reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "good_locality_tags": self.good_locality_tags,
            "bad_locality_tags": self.bad_locality_tags,
        }

    @property
    def good_locality_fraction(self) -> float:
        """Fraction of accesses tagged good-locality (paper Fig. 13)."""
        tagged = self.good_locality_tags + self.bad_locality_tags
        if tagged == 0:
            return 0.0
        return self.good_locality_tags / tagged


class CtrCache:
    """On-chip cache of counter lines.

    Args:
        layout: Address-space map (counter line -> DRAM block address).
        scheme: Counter organisation (data block -> counter line).
        size_bytes: Capacity (baseline 512KB, LCR-CTR 128KB; Table 3).
        assoc: Ways per set.
        policy: Replacement policy; None selects the cache's default LRU.
    """

    def __init__(
        self,
        layout: SecureLayout,
        scheme: CounterScheme,
        size_bytes: int = 512 * 1024,
        assoc: int = 16,
        policy: Optional[ReplacementPolicy] = None,
        name: str = "ctr_cache",
    ) -> None:
        self.layout = layout
        self.scheme = scheme
        self.cache = Cache(size_bytes, assoc, policy=policy, name=name)
        self.stats = CtrCacheStats()

    def ctr_block_address(self, data_block: int) -> int:
        """DRAM block address of the counter line covering ``data_block``."""
        return self.layout.ctr_block_address(self.scheme.ctr_index(data_block))

    def access(
        self,
        data_block: int,
        is_write: bool = False,
        locality_flag: Optional[int] = None,
        locality_score: Optional[int] = None,
    ) -> bool:
        """Look up the counter line for ``data_block``; True on hit.

        On a miss the line is filled (the caller charges the DRAM fetch and
        MT traversal).  When COSMOS supplies a locality prediction, the
        resident line is tagged with the 1-bit flag and 8-bit score that the
        LCR replacement policy consumes (paper Sec. 4.3).
        """
        return self.access_index(
            self.scheme.ctr_index(data_block), is_write, locality_flag, locality_score
        )

    def access_index(
        self,
        ctr_index: int,
        is_write: bool = False,
        locality_flag: Optional[int] = None,
        locality_score: Optional[int] = None,
    ) -> bool:
        """Like :meth:`access` but keyed by an already-computed counter-line
        index — the engine's hot path resolves the index once and shares it
        between the classifier, the cache lookup and the integrity walk.

        Under the literal Algorithm 2 policy that every COSMOS design
        builds (:class:`~repro.core.lcr_cache.LcrReplacementPolicy` with
        ``aging=0`` and ``bad_selection="score"``) the access runs in this
        frame, on the cache's set dict in insertion order: a ``get``
        probe that reorders nothing; on a miss in a full set, one scan
        for the first bad line with the highest score, else the set's
        first line with the lowest score; the dirty victim's writeback;
        then a fresh line.  Every other policy (LRU, the LCR variants,
        Fig. 5's policies) takes one
        :meth:`~repro.mem.cache.Cache.access_and_fill` call.  The path is
        chosen on every call, because experiments assign a built design's
        policy.  The line is resident afterwards and is tagged directly.
        ``tests/test_ctr_cache.py`` keeps the access-fill-tag sequence as
        the reference for both paths."""
        ctr_address = self.layout.ctr_block_address(ctr_index)
        cache = self.cache
        stats = self.stats
        policy = cache._policy
        if (type(policy) is not LcrReplacementPolicy or policy.aging
                or policy.bad_selection != "score"):
            hit = cache.access_and_fill(ctr_address, is_write)
            line = None
            if locality_flag is not None:
                line = cache._sets[ctr_address & cache._set_mask][ctr_address]
        else:
            target_set = cache._sets[ctr_address & cache._set_mask]
            cache_stats = cache.stats
            line = target_set.get(ctr_address)
            hit = line is not None
            if hit:
                cache_stats.hits += 1
                if line.prefetched and not line.referenced:
                    cache_stats.prefetch_useful += 1
                line.referenced = True
                if is_write:
                    line.dirty = True
            else:
                cache_stats.misses += 1
                if len(target_set) >= cache.assoc:
                    victim = None
                    for resident in target_set.values():
                        if resident.locality_flag == FLAG_BAD and (
                                victim is None
                                or resident.locality_score > victim.locality_score):
                            victim = resident
                    if victim is None:
                        victim = min(target_set.values(), key=_by_score)
                    del target_set[victim.tag]
                    cache_stats.evictions += 1
                    if victim.prefetched and not victim.referenced:
                        cache_stats.prefetch_evicted_unused += 1
                    if victim.dirty:
                        cache_stats.writebacks += 1
                        if cache.writeback_sink is not None:
                            cache.writeback_sink(victim.tag)
                line = target_set[ctr_address] = CacheLine(ctr_address)
                line.dirty = is_write
        if hit:
            stats.hits += 1
        else:
            stats.misses += 1
        if locality_flag is not None:
            line.locality_flag = locality_flag
            if locality_score is not None:
                line.locality_score = locality_score
            if locality_flag:
                stats.good_locality_tags += 1
            else:
                stats.bad_locality_tags += 1
        return hit

    def contains(self, data_block: int) -> bool:
        """Non-destructive residency probe for the covering counter line."""
        return self.cache.lookup(self.ctr_block_address(data_block))

    @property
    def miss_rate(self) -> float:
        """Shortcut for ``stats.miss_rate``."""
        return self.stats.miss_rate
