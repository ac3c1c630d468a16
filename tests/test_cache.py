"""Unit tests for the set-associative cache model."""

import pytest

from repro.mem.cache import Cache
from repro.mem.replacement import LRUPolicy


def make_cache(size=4096, assoc=4, **kwargs):
    return Cache(size, assoc, **kwargs)


def test_geometry():
    cache = make_cache(size=4096, assoc=4)
    assert cache.num_sets == 4096 // (4 * 64)
    assert cache.capacity_lines == 64


def test_rejects_non_power_of_two_sets():
    with pytest.raises(ValueError):
        Cache(3 * 64 * 2, 2)


def test_rejects_indivisible_size():
    with pytest.raises(ValueError):
        Cache(1000, 3)


def test_miss_then_hit():
    cache = make_cache()
    assert not cache.access(1)
    cache.fill(1)
    assert cache.access(1)
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1


def test_access_and_fill_combines():
    cache = make_cache()
    assert not cache.access_and_fill(7)
    assert cache.access_and_fill(7)


def test_fill_is_idempotent():
    cache = make_cache()
    cache.fill(5)
    assert cache.fill(5) is None
    assert cache.occupancy == 1


def test_eviction_on_full_set():
    cache = make_cache(size=2 * 64 * 4, assoc=2)  # 4 sets, 2 ways
    sets = cache.num_sets
    blocks = [i * sets for i in range(3)]  # all map to set 0
    for block in blocks:
        cache.fill(block)
    assert cache.occupancy == 2
    assert cache.stats.evictions == 1


def test_lru_evicts_least_recent():
    cache = Cache(2 * 64, 2, policy=LRUPolicy())  # 1 set, 2 ways
    cache.fill(0)
    cache.fill(1)
    cache.access(0)  # 0 is now most recent
    evicted = cache.fill(2)
    assert evicted == 1


def test_recycled_victim_drops_locality_tags():
    """Under LRU the victim's line object is reused for the incoming block;
    the locality tags CtrCache wrote on it must not carry over."""
    cache = Cache(2 * 64, 2)  # 1 set, 2 ways
    cache.fill(0, dirty=True)
    victim = cache.get_line(0)
    victim.locality_flag, victim.locality_score = 0, 200
    cache.access(0)
    cache.fill(1)
    cache.fill(2)  # evicts 0
    line = cache.get_line(2)
    assert line is victim
    assert (line.tag, line.dirty, line.referenced) == (2, False, False)
    assert (line.locality_flag, line.locality_score) == (1, 0)


def test_dirty_eviction_triggers_writeback_sink():
    written = []
    cache = Cache(2 * 64, 2, writeback_sink=written.append)
    cache.fill(0, dirty=True)
    cache.fill(1)
    cache.fill(2)  # evicts 0 (dirty)
    assert written == [0]
    assert cache.stats.writebacks == 1


def test_clean_eviction_no_writeback():
    written = []
    cache = Cache(2 * 64, 2, writeback_sink=written.append)
    cache.fill(0)
    cache.fill(1)
    cache.fill(2)
    assert written == []


def test_write_access_marks_dirty():
    written = []
    cache = Cache(2 * 64, 2, writeback_sink=written.append)
    cache.fill(0)
    cache.access(0, is_write=True)
    cache.fill(1)
    cache.fill(2)
    assert written == [0]


def test_lookup_has_no_side_effects():
    cache = make_cache()
    cache.fill(9)
    hits, misses = cache.stats.hits, cache.stats.misses
    assert cache.lookup(9)
    assert not cache.lookup(10)
    assert cache.stats.hits == hits
    assert cache.stats.misses == misses


def test_invalidate():
    cache = make_cache()
    cache.fill(3)
    assert cache.invalidate(3)
    assert not cache.lookup(3)
    assert not cache.invalidate(3)


def test_invalidate_notifies_policy():
    """Regression: invalidation must reach ``policy.on_evict`` so learning
    policies (SHiP outcomes, LCR tags) do not leak state for dropped lines."""

    class RecordingPolicy(LRUPolicy):
        def __init__(self):
            super().__init__()
            self.evicted = []

        def on_evict(self, set_index, line):
            self.evicted.append(line.tag)

    policy = RecordingPolicy()
    cache = Cache(2 * 64, 2, policy=policy)
    cache.fill(5)
    assert cache.invalidate(5)
    assert policy.evicted == [5]
    assert not cache.invalidate(5)
    assert policy.evicted == [5]  # a miss must not notify


def test_flush_evicts_everything_and_writes_back_dirty():
    written = []
    cache = Cache(4 * 64, 2, writeback_sink=written.append)
    cache.fill(0, dirty=True)
    cache.fill(1)
    flushed = cache.flush()
    assert flushed == 2
    assert cache.occupancy == 0
    assert written == [0]


def test_resident_blocks_reports_contents():
    cache = make_cache()
    for block in (1, 2, 3):
        cache.fill(block)
    assert sorted(cache.resident_blocks()) == [1, 2, 3]


def test_prefetch_accounting():
    cache = make_cache()
    cache.fill(11, prefetched=True)
    cache.stats.prefetch_issued += 1
    assert cache.access(11)  # first demand hit on a prefetched line
    assert cache.stats.prefetch_useful == 1
    # A second hit must not double count.
    cache.access(11)
    assert cache.stats.prefetch_useful == 1


def test_unused_prefetch_counted_on_eviction():
    cache = Cache(2 * 64, 2)
    cache.stats.prefetch_issued += 2
    cache.fill(0, prefetched=True)
    cache.fill(1, prefetched=True)
    cache.access(1)
    cache.fill(2)  # evicts LRU line 0, never referenced
    assert cache.stats.prefetch_evicted_unused == 1
    assert cache.stats.prefetch_accuracy == 0.5


def test_set_index_distributes_blocks():
    cache = make_cache(size=64 * 64, assoc=4)
    indices = {cache.set_index(block) for block in range(cache.num_sets)}
    assert len(indices) == cache.num_sets
