"""Memory-hierarchy substrate: caches, replacement, prefetchers, DRAM."""

from .access import BLOCK_SHIFT, BLOCK_SIZE, AccessType, MemoryAccess, block_base, block_of
from .cache import Cache
from .dram import DramModel, DramStats, DramTimings
from .hierarchy import HierarchyConfig, HierarchyResult, LevelConfig, MemoryHierarchy
from .paging import (
    PAGE_SHIFT,
    PAGE_SIZE,
    FirstTouchPageMapper,
    IdentityPageMapper,
    PageMapper,
    RandomizedPageMapper,
    remap_accesses,
)
from .prefetchers import (
    BertiPrefetcher,
    NextLinePrefetcher,
    NoPrefetcher,
    Prefetcher,
    StridePrefetcher,
    make_prefetcher,
)
from .replacement import (
    CacheLine,
    LRUPolicy,
    MockingjayPolicy,
    RandomPolicy,
    ReplacementPolicy,
    RRIPPolicy,
    SHiPPolicy,
    make_policy,
)
from .stats import CacheStats, TrafficStats

__all__ = [
    "AccessType",
    "BLOCK_SHIFT",
    "BLOCK_SIZE",
    "BertiPrefetcher",
    "Cache",
    "CacheLine",
    "CacheStats",
    "DramModel",
    "DramStats",
    "DramTimings",
    "FirstTouchPageMapper",
    "HierarchyConfig",
    "HierarchyResult",
    "IdentityPageMapper",
    "LRUPolicy",
    "LevelConfig",
    "MemoryAccess",
    "MemoryHierarchy",
    "MockingjayPolicy",
    "NextLinePrefetcher",
    "NoPrefetcher",
    "PAGE_SHIFT",
    "PAGE_SIZE",
    "PageMapper",
    "Prefetcher",
    "RRIPPolicy",
    "RandomPolicy",
    "RandomizedPageMapper",
    "ReplacementPolicy",
    "SHiPPolicy",
    "StridePrefetcher",
    "TrafficStats",
    "block_base",
    "block_of",
    "make_policy",
    "make_prefetcher",
    "remap_accesses",
]
