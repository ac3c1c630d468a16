"""Property-based tests (hypothesis) on the core data structures."""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.cet import CtrEvaluationTable
from repro.core.hashing import hash_block, splitmix64
from repro.core.rl import Q_MAX, Q_MIN, QTable
from repro.mem.cache import Cache
from repro.mem.replacement import CacheLine, LRUPolicy, make_policy
from repro.secure.counters import MorphCtrCounters, SplitCounters
from repro.secure.layout import SecureLayout
from repro.secure.merkle import MerkleTree

SLOW = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# Cache invariants
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    blocks=st.lists(st.integers(min_value=0, max_value=4095), min_size=1, max_size=300),
    policy_name=st.sampled_from(["lru", "rrip", "ship", "mockingjay", "random"]),
)
def test_cache_never_exceeds_capacity_and_counts_add_up(blocks, policy_name):
    cache = Cache(8 * 64 * 2, 2, policy=make_policy(policy_name))
    for block in blocks:
        cache.access_and_fill(block)
    assert cache.occupancy <= cache.capacity_lines
    assert cache.stats.hits + cache.stats.misses == len(blocks)
    # Every set individually respects associativity.
    for index in range(cache.num_sets):
        assert len(cache.set_contents(index)) <= cache.assoc


@settings(max_examples=40, deadline=None)
@given(blocks=st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=200))
def test_cache_resident_block_always_hits(blocks):
    cache = Cache(64 * 64, 4)
    for block in blocks:
        cache.fill(block)
        assert cache.lookup(block)  # immediately after fill it is resident


class _TickLRU(LRUPolicy):
    """Not the exact LRUPolicy type, so Cache runs its tick hooks."""


_CACHE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["access", "fill", "access_and_fill", "invalidate"]),
        st.integers(min_value=0, max_value=15),  # 8 blocks per 4-way set
        st.booleans(),  # is_write / dirty
        st.booleans(),  # prefetched (fill only)
    ),
    min_size=40,  # long enough that nearly every example evicts
    max_size=300,
)


@settings(max_examples=60, deadline=None)
@given(ops=_CACHE_OPS)
def test_recency_ordered_lru_matches_tick_reference(ops):
    fast_writebacks, ref_writebacks = [], []
    fast = Cache(2 * 4 * 64, 4, policy=LRUPolicy(), writeback_sink=fast_writebacks.append)
    ref = Cache(2 * 4 * 64, 4, policy=_TickLRU(), writeback_sink=ref_writebacks.append)
    for op, block, write, prefetched in ops:
        if op == "fill":
            results = [cache.fill(block, dirty=write, prefetched=prefetched)
                       for cache in (fast, ref)]
        elif op == "invalidate":
            results = [cache.invalidate(block) for cache in (fast, ref)]
        else:
            results = [getattr(cache, op)(block, write) for cache in (fast, ref)]
        assert results[0] == results[1], op
    assert fast_writebacks == ref_writebacks
    assert fast.stats == ref.stats
    assert sorted(fast.resident_blocks()) == sorted(ref.resident_blocks())
    flags = ("dirty", "prefetched", "referenced")
    for block in fast.resident_blocks():
        line, ref_line = fast.get_line(block), ref.get_line(block)
        assert [getattr(line, slot) for slot in flags] == [getattr(ref_line, slot) for slot in flags]
        # A recycled line must look freshly allocated in every other slot.
        fresh = CacheLine(block)
        for slot in CacheLine.__slots__:
            if slot not in flags:
                assert getattr(line, slot) == getattr(fresh, slot), slot


# ----------------------------------------------------------------------
# Counter invariants
# ----------------------------------------------------------------------
@SLOW
@given(
    ops=st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=400),
)
def test_morphctr_counter_values_never_repeat_per_block(ops):
    """AES-CTR security requires (PA, CTR) pairs never to repeat."""
    scheme = MorphCtrCounters()
    seen = {}
    for block in ops:
        scheme.increment(block)
        value = scheme.counter_value(block)
        assert value not in seen.setdefault(block, set())
        seen[block].add(value)


@SLOW
@given(ops=st.lists(st.integers(min_value=0, max_value=127), min_size=1, max_size=400))
def test_split_counter_values_never_repeat_per_block(ops):
    scheme = SplitCounters()
    seen = {}
    for block in ops:
        scheme.increment(block)
        value = scheme.counter_value(block)
        assert value not in seen.setdefault(block, set())
        seen[block].add(value)


@SLOW
@given(ops=st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=300))
def test_morphctr_line_always_representable(ops):
    """After any increment sequence, resident minors fit some format."""
    scheme = MorphCtrCounters()
    for block in ops:
        scheme.increment(block)
    for index in {scheme.ctr_index(block) for block in ops}:
        assert scheme.line_format(index) in ("uniform", "zcc")


# ----------------------------------------------------------------------
# Merkle-tree invariants
# ----------------------------------------------------------------------
@SLOW
@given(
    writes=st.lists(
        st.tuples(st.integers(min_value=0, max_value=63), st.binary(min_size=1, max_size=16)),
        min_size=1,
        max_size=40,
    )
)
def test_merkle_verifies_latest_write_of_every_leaf(writes):
    tree = MerkleTree(64, arity=2)
    latest = {}
    for leaf, payload in writes:
        tree.update_leaf(leaf, payload)
        latest[leaf] = payload
    for leaf, payload in latest.items():
        assert tree.verify_leaf(leaf, payload)


@SLOW
@given(
    writes=st.lists(
        st.tuples(st.integers(min_value=0, max_value=63), st.binary(min_size=1, max_size=16)),
        min_size=2,
        max_size=30,
    )
)
def test_merkle_rejects_stale_payloads(writes):
    tree = MerkleTree(64, arity=4)
    history = {}
    for leaf, payload in writes:
        tree.update_leaf(leaf, payload)
        history.setdefault(leaf, []).append(payload)
    for leaf, payloads in history.items():
        for stale in payloads[:-1]:
            if stale != payloads[-1]:
                assert not tree.verify_leaf(leaf, stale)


# ----------------------------------------------------------------------
# Q-table invariants
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(
    updates=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=0, max_value=1),
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            st.floats(min_value=0.01, max_value=1.0),
            st.floats(min_value=0.0, max_value=0.99),
            st.floats(min_value=-127, max_value=127),
        ),
        max_size=200,
    )
)
def test_qtable_stays_clamped(updates):
    table = QTable(16, 2)
    for state, action, reward, alpha, gamma, bootstrap in updates:
        table.update(state, action, reward, alpha, gamma, bootstrap)
        assert Q_MIN <= table.q(state, action) <= Q_MAX
        assert table.best_action(state) in (0, 1)


# ----------------------------------------------------------------------
# CET invariants
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(
    inserts=st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=300),
    capacity=st.integers(min_value=1, max_value=32),
)
def test_cet_capacity_and_index_consistency(inserts, capacity):
    cet = CtrEvaluationTable(capacity=capacity, radius=2)
    for block in inserts:
        cet.insert(block, state=block % 7, action=block % 2)
        assert len(cet) <= capacity
    # The last insert is the head and can be probed.
    head = cet.head
    assert head is not None
    assert cet.probe(head.ctr_block) is head


# ----------------------------------------------------------------------
# Hashing invariants
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(value=st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_splitmix64_range(value):
    assert 0 <= splitmix64(value) < (1 << 64)


@settings(max_examples=100, deadline=None)
@given(
    block=st.integers(min_value=0, max_value=(1 << 48) - 1),
    num_states=st.sampled_from([64, 1024, 16384]),
)
def test_hash_block_in_range_and_deterministic(block, num_states):
    state = hash_block(block, num_states)
    assert 0 <= state < num_states
    assert hash_block(block, num_states) == state


# ----------------------------------------------------------------------
# Layout invariants
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(
    data_blocks=st.integers(min_value=256, max_value=1 << 20),
    blocks_per_ctr=st.sampled_from([8, 64, 128]),
)
def test_layout_regions_are_disjoint_and_paths_valid(data_blocks, blocks_per_ctr):
    layout = SecureLayout(data_blocks=data_blocks, blocks_per_ctr=blocks_per_ctr)
    assert layout.ctr_region_base >= data_blocks
    assert layout.mac_region_base >= layout.ctr_region_base + layout.ctr_blocks
    ctr = layout.ctr_blocks - 1
    path = layout.mt_path(ctr)
    assert len(path) == max(layout.mt_levels - 1, 0)
    for address in path:
        assert address >= layout.mt_region_base
