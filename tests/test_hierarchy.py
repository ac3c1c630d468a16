"""Unit tests for the multi-core cache hierarchy."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.mem.access import AccessType, MemoryAccess
from repro.mem.hierarchy import HierarchyConfig, LevelConfig, MemoryHierarchy


def small_hierarchy(cores=1, sink=None):
    config = HierarchyConfig(
        num_cores=cores,
        l1=LevelConfig(2 * 1024, 2, 2),
        l2=LevelConfig(8 * 1024, 4, 20),
        llc=LevelConfig(32 * 1024, 8, 128),
    )
    return MemoryHierarchy(config, memory_write_sink=sink)


def test_default_config_matches_table3():
    config = HierarchyConfig()
    assert config.num_cores == 4
    assert config.l1.size_bytes == 32 * 1024 and config.l1.assoc == 2 and config.l1.latency == 2
    assert config.l2.size_bytes == 1024 * 1024 and config.l2.assoc == 8 and config.l2.latency == 20
    assert config.llc.size_bytes == 8 * 1024 * 1024 and config.llc.assoc == 16
    assert config.llc.latency == 128


def test_cold_access_goes_to_memory():
    hierarchy = small_hierarchy()
    result = hierarchy.access(MemoryAccess(0))
    assert result.hit_level == "MEM"
    assert result.needs_memory
    assert result.l1_miss
    assert result.lookup_latency == 2 + 20 + 128


def test_second_access_hits_l1():
    hierarchy = small_hierarchy()
    hierarchy.access(MemoryAccess(0))
    result = hierarchy.access(MemoryAccess(0))
    assert result.hit_level == "L1"
    assert result.lookup_latency == 2
    assert not result.l1_miss


def test_l1_capacity_spill_hits_l2():
    hierarchy = small_hierarchy()
    l1_lines = hierarchy.l1[0].capacity_lines
    for block in range(l1_lines * 2):
        hierarchy.access(MemoryAccess(block * 64))
    result = hierarchy.access(MemoryAccess(0))
    assert result.hit_level in ("L2", "L1")  # evicted from L1 but still in L2
    if result.hit_level == "L2":
        assert result.lookup_latency == 22


def test_llc_shared_across_cores():
    hierarchy = small_hierarchy(cores=2)
    hierarchy.access(MemoryAccess(0, core=0))
    result = hierarchy.access(MemoryAccess(0, core=1))
    # Core 1's private caches miss, but the shared LLC hits.
    assert result.hit_level == "LLC"


def test_core_out_of_range_rejected():
    hierarchy = small_hierarchy(cores=1)
    with pytest.raises(ValueError):
        hierarchy.access(MemoryAccess(0, core=5))
    # A negative core must not wrap around to another core's caches.
    with pytest.raises(ValueError):
        hierarchy.access_block(0, False, -1)


def test_dirty_llc_eviction_reaches_sink():
    written = []
    hierarchy = small_hierarchy(sink=written.append)
    llc_lines = hierarchy.llc.capacity_lines
    hierarchy.access(MemoryAccess(0, AccessType.WRITE))
    # Fill well past every level so block 0 is evicted from all of them.
    for block in range(1, llc_lines * 3):
        hierarchy.access(MemoryAccess(block * 64))
    assert 0 in written


def test_flush_writes_back_dirty_lines():
    written = []
    hierarchy = small_hierarchy(sink=written.append)
    hierarchy.access(MemoryAccess(0, AccessType.WRITE))
    hierarchy.flush()
    assert written.count(0) >= 1


def test_miss_rates_aggregate():
    hierarchy = small_hierarchy(cores=2)
    for core in range(2):
        for block in range(10):
            hierarchy.access(MemoryAccess(block * 64, core=core))
    assert 0.0 < hierarchy.l1_miss_rate() <= 1.0
    assert hierarchy.llc_miss_rate() <= 1.0


def test_scaled_llc_for_cores():
    config = HierarchyConfig(num_cores=8)
    scaled = config.scaled_llc_for_cores()
    assert scaled.llc.size_bytes == 16 * 1024 * 1024  # paper Fig. 15: 8 cores, 16MB
    assert scaled.num_cores == 8


def test_zero_cores_rejected():
    with pytest.raises(ValueError):
        MemoryHierarchy(HierarchyConfig(num_cores=0))


# ----------------------------------------------------------------------
# The one-frame walk against the method-based reference
# ----------------------------------------------------------------------
def _reference_access_block(self, block, is_write, core):
    """The method-based walk that ``MemoryHierarchy.access_block`` inlines.

    Verbatim apart from ``fill_from_memory``, whose three fills are written
    out in its place; ``self`` is the hierarchy it walks.
    """
    if core >= self._num_cores:
        raise ValueError(
            f"access from core {core} but hierarchy has {self._num_cores} cores"
        )
    l1 = self.l1[core]
    if l1.access(block, is_write):
        return self._result_l1
    l2 = self.l2[core]
    llc = self.llc
    prefetchers = self._prefetchers
    if prefetchers is not None:
        for candidate in prefetchers[core].observe(block):
            if candidate < 0 or l2.lookup(candidate):
                continue
            if not llc.lookup(candidate):
                if self.prefetch_fill_sink is not None:
                    self.prefetch_fill_sink(candidate)
                llc.fill(candidate, prefetched=True)
            l2.fill(candidate, prefetched=True)
    if l2.access(block, is_write):
        l1.fill(block, dirty=is_write)
        return self._result_l2
    if llc.access(block, is_write):
        l2.fill(block)
        l1.fill(block, dirty=is_write)
        return self._result_llc
    self.llc.fill(block)
    self.l2[core].fill(block)
    self.l1[core].fill(block, dirty=is_write)
    return self._result_mem


_WALK_CORES = 2

# Random accesses mixed with strided runs: a run of three or more accesses
# at one stride puts the stride prefetcher into its steady state, and a
# negative stride near block 0 yields negative candidates, which are
# skipped.  Blocks stay within a few prefetcher regions so runs interleave.
_WALK_STREAMS = st.lists(
    st.one_of(
        st.tuples(
            st.integers(min_value=0, max_value=255),  # block
            st.just(0),  # stride: a single access
            st.just(1),
            st.booleans(),  # is_write
            st.integers(min_value=0, max_value=_WALK_CORES - 1),
        ),
        st.tuples(
            st.integers(min_value=0, max_value=255),
            st.sampled_from([-3, -2, -1, 1, 2, 3, 5]),
            st.integers(min_value=3, max_value=8),  # run length
            st.booleans(),
            st.integers(min_value=0, max_value=_WALK_CORES - 1),
        ),
    ),
    min_size=20,
    max_size=80,
)


def _expand(runs):
    for start, stride, length, is_write, core in runs:
        for step in range(length):
            yield max(0, start + stride * step), is_write, core


def _walk_hierarchy(prefetcher, log):
    # Tiny levels: L1 2 sets x 2 ways, L2 4 x 2, LLC 4 x 4, so sets fill
    # within a few accesses and dirty victims cascade down to memory.
    config = HierarchyConfig(
        num_cores=_WALK_CORES,
        l1=LevelConfig(4 * 64, 2, 2),
        l2=LevelConfig(8 * 64, 2, 20),
        llc=LevelConfig(16 * 64, 4, 128),
        l2_prefetcher=prefetcher,
    )
    return MemoryHierarchy(
        config,
        memory_write_sink=lambda block: log.append(("memory_write", block)),
        prefetch_fill_sink=lambda block: log.append(("prefetch_fill", block)),
    )


def _levels(hierarchy):
    return [*hierarchy.l1, *hierarchy.l2, hierarchy.llc]


@pytest.mark.parametrize("prefetcher", ["stride", "none", "next_line"])
@settings(max_examples=60, deadline=None)
@given(runs=_WALK_STREAMS)
def test_one_frame_walk_matches_method_reference(prefetcher, runs):
    fast_log, ref_log = [], []
    fast = _walk_hierarchy(prefetcher, fast_log)
    ref = _walk_hierarchy(prefetcher, ref_log)
    for block, is_write, core in _expand(runs):
        assert fast.access_block(block, is_write, core) == _reference_access_block(
            ref, block, is_write, core
        )
    assert fast_log == ref_log
    flags = ("tag", "dirty", "prefetched", "referenced")
    for level, ref_level in zip(_levels(fast), _levels(ref)):
        assert level.stats == ref_level.stats, level.name
        for index in range(level.num_sets):
            assert [[getattr(line, slot) for slot in flags]
                    for line in level.set_contents(index)] == [
                [getattr(line, slot) for slot in flags]
                for line in ref_level.set_contents(index)
            ], (level.name, index)
    if prefetcher == "none":
        assert fast._prefetchers is None and ref._prefetchers is None
    else:
        for mine, theirs in zip(fast._prefetchers, ref._prefetchers):
            assert vars(mine) == vars(theirs)
