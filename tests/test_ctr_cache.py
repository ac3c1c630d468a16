"""Unit tests for the CTR cache."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.lcr_cache import FLAG_BAD, FLAG_GOOD, LcrReplacementPolicy
from repro.mem.replacement import LRUPolicy
from repro.secure.counters import MorphCtrCounters
from repro.secure.ctr_cache import CtrCache
from repro.secure.layout import SecureLayout


def make_ctr_cache(size=8 * 1024, policy=None):
    layout = SecureLayout(data_blocks=1 << 20, blocks_per_ctr=128)
    return CtrCache(layout, MorphCtrCounters(), size_bytes=size, assoc=4, policy=policy)


def test_blocks_sharing_a_counter_line_hit_together():
    cache = make_ctr_cache()
    assert not cache.access(0)  # miss fills the line covering blocks 0-127
    assert cache.access(127)
    assert not cache.access(128)  # next counter line


def test_miss_rate_accounting():
    cache = make_ctr_cache()
    cache.access(0)
    cache.access(0)
    cache.access(128)
    assert cache.stats.accesses == 3
    assert cache.stats.misses == 2
    assert abs(cache.miss_rate - 2 / 3) < 1e-9


def test_ctr_block_address_in_ctr_region():
    cache = make_ctr_cache()
    address = cache.ctr_block_address(0)
    assert address == cache.layout.ctr_region_base


def test_locality_tags_stored_on_lines():
    cache = make_ctr_cache(policy=LcrReplacementPolicy())
    cache.access(0, locality_flag=FLAG_GOOD, locality_score=42)
    line = cache.cache.get_line(cache.ctr_block_address(0))
    assert line.locality_flag == FLAG_GOOD
    assert line.locality_score == 42
    assert cache.stats.good_locality_tags == 1


def test_retag_on_reaccess():
    cache = make_ctr_cache(policy=LcrReplacementPolicy())
    cache.access(0, locality_flag=FLAG_GOOD, locality_score=40)
    cache.access(0, locality_flag=FLAG_BAD, locality_score=10)
    line = cache.cache.get_line(cache.ctr_block_address(0))
    assert line.locality_flag == FLAG_BAD
    assert cache.stats.bad_locality_tags == 1


def test_good_locality_fraction():
    cache = make_ctr_cache(policy=LcrReplacementPolicy())
    cache.access(0, locality_flag=FLAG_GOOD, locality_score=1)
    cache.access(128, locality_flag=FLAG_BAD, locality_score=1)
    cache.access(256, locality_flag=FLAG_BAD, locality_score=1)
    assert abs(cache.stats.good_locality_fraction - 1 / 3) < 1e-9


def test_untagged_accesses_not_counted_in_fraction():
    cache = make_ctr_cache()
    cache.access(0)
    assert cache.stats.good_locality_fraction == 0.0


def test_contains_probe():
    cache = make_ctr_cache()
    assert not cache.contains(0)
    cache.access(0)
    assert cache.contains(0)
    assert cache.contains(64)  # same counter line


def test_write_access_marks_line_dirty():
    written = []
    cache = make_ctr_cache(size=2 * 64 * 4)
    cache.cache.writeback_sink = written.append
    cache.access(0, is_write=True)
    # Thrash the set until the dirty counter line is evicted.
    for line_index in range(1, 4096):
        cache.access(line_index * 128)
    assert cache.ctr_block_address(0) in written


# ----------------------------------------------------------------------
# access_index against the access-fill-tag reference
# ----------------------------------------------------------------------
def _reference_access_index(self, ctr_index, is_write=False, locality_flag=None,
                            locality_score=None):
    """``CtrCache.access_index`` as three cache calls: ``access``, ``fill``
    on a miss, then ``get_line`` for the tag; ``self`` is the CTR cache."""
    ctr_address = self.layout.ctr_block_address(ctr_index)
    cache = self.cache
    stats = self.stats
    hit = cache.access(ctr_address, is_write)
    if hit:
        stats.hits += 1
    else:
        stats.misses += 1
        cache.fill(ctr_address, dirty=is_write)
    if locality_flag is not None:
        line = cache.get_line(ctr_address)
        if line is not None:
            line.locality_flag = locality_flag
            if locality_score is not None:
                line.locality_score = locality_score
        if locality_flag:
            stats.good_locality_tags += 1
        else:
            stats.bad_locality_tags += 1
    return hit


_POLICIES = {
    "lru": LRUPolicy,
    "lcr-score": lambda: LcrReplacementPolicy(),
    "lcr-score-aging": lambda: LcrReplacementPolicy(aging=1),
    "lcr-lru": lambda: LcrReplacementPolicy(bad_selection="lru"),
    "lcr-lru-aging": lambda: LcrReplacementPolicy(aging=1, bad_selection="lru"),
}

# 64 counter lines on 16 lines of cache, so sets fill and evict; the flag
# is absent, bad or good, and a score may come with it or not.
_CTR_ACCESSES = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=63),  # counter-line index
        st.booleans(),  # is_write
        st.sampled_from([None, FLAG_BAD, FLAG_GOOD]),
        st.one_of(st.none(), st.integers(min_value=-128, max_value=127)),
    ),
    min_size=20,
    max_size=400,
)

_LINE_SLOTS = ("tag", "dirty", "prefetched", "referenced", "locality_flag",
               "locality_score", "lru_tick")


def _recorded_ctr_cache(policy, writebacks):
    cache = make_ctr_cache(size=1024, policy=policy)  # 4 sets x 4 ways
    cache.cache.writeback_sink = writebacks.append
    return cache


def _ctr_cache_under(policy, assigned, writebacks):
    """A CTR cache running ``policy``: built with it, or built with the
    literal LCR policy every COSMOS design builds and given ``policy``
    before the first access, as ``ablation_lcr_policy`` does."""
    if not assigned:
        return _recorded_ctr_cache(_POLICIES[policy](), writebacks)
    cache = _recorded_ctr_cache(LcrReplacementPolicy(), writebacks)
    cache.cache.policy = _POLICIES[policy]()
    return cache


# The policy axis, and whether the policy is the one the cache was built
# with or one assigned to a built cache; a path fixed at construction
# fails the assigned cases.
_POLICY_CASES = [
    pytest.param(name, assigned, id=name + ("-assigned" if assigned else ""))
    for name in sorted(_POLICIES) for assigned in (False, True)
]


def _seeded_ctr_accesses(seed):
    """400 accesses of the shape ``_CTR_ACCESSES`` draws, from
    ``random.Random(seed)``."""
    rng = random.Random(seed)
    return [(rng.randrange(64), rng.random() < 0.5, rng.choice((None, FLAG_BAD, FLAG_GOOD)),
             rng.choice((None, rng.randint(-128, 127))))
            for _ in range(400)]


# The reference check below on fixed streams, for each policy case.  It
# runs first: a broken access fails here in seconds, where a drawn failing
# example can take minutes to shrink.
@pytest.mark.parametrize("policy, assigned", _POLICY_CASES)
def test_access_index_matches_reference_on_seeded_streams(policy, assigned):
    check = test_access_index_matches_access_fill_tag_reference.hypothesis.inner_test
    for seed in range(10):
        check(policy, assigned, _seeded_ctr_accesses(seed))


@pytest.mark.parametrize("policy, assigned", _POLICY_CASES)
@settings(max_examples=60, deadline=None)
@given(accesses=_CTR_ACCESSES)
def test_access_index_matches_access_fill_tag_reference(policy, assigned, accesses):
    fast_writebacks, ref_writebacks = [], []
    fast = _ctr_cache_under(policy, assigned, fast_writebacks)
    ref = _ctr_cache_under(policy, assigned, ref_writebacks)
    for index, is_write, flag, score in accesses:
        assert fast.access_index(index, is_write, flag, score) == (
            _reference_access_index(ref, index, is_write, flag, score))
    for set_index in range(fast.cache.num_sets):
        assert [[getattr(line, slot) for slot in _LINE_SLOTS]
                for line in fast.cache.set_contents(set_index)] == [
            [getattr(line, slot) for slot in _LINE_SLOTS]
            for line in ref.cache.set_contents(set_index)
        ], set_index
    assert fast.cache.stats == ref.cache.stats
    assert fast.stats == ref.stats
    assert fast_writebacks == ref_writebacks
    assert vars(fast.cache.policy) == vars(ref.cache.policy)
