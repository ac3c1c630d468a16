"""Unit tests for the trace container and helpers."""

import random

import numpy as np
import pytest

from repro.mem.access import AccessType, MemoryAccess
from repro.workloads.trace import (
    ALLOC_ALIGN,
    Allocator,
    Trace,
    TraceArrays,
    interleave,
)


class TestAllocator:
    def test_alloc_is_page_aligned(self):
        allocator = Allocator()
        for size in (1, 100, 5000):
            base = allocator.alloc(f"r{size}", size)
            assert base % ALLOC_ALIGN == 0

    def test_regions_do_not_overlap(self):
        allocator = Allocator()
        a = allocator.alloc("a", 10_000)
        b = allocator.alloc("b", 10_000)
        assert b >= a + 10_000

    def test_footprint_tracks_allocations(self):
        allocator = Allocator()
        allocator.alloc("a", 4096)
        allocator.alloc("b", 1)
        assert allocator.footprint_bytes == 2 * 4096

    def test_rejects_empty_allocation(self):
        with pytest.raises(ValueError):
            Allocator().alloc("x", 0)

    def test_regions_recorded(self):
        allocator = Allocator()
        base = allocator.alloc("data", 128)
        assert allocator.regions["data"] == (base, 128)


class TestTrace:
    def trace(self):
        accesses = [
            MemoryAccess(0, AccessType.READ, 0),
            MemoryAccess(64, AccessType.WRITE, 1),
            MemoryAccess(0, AccessType.READ, 0),
        ]
        return Trace("t", accesses)

    def test_len_and_iter(self):
        trace = self.trace()
        assert len(trace) == 3
        assert [access.address for access in trace] == [0, 64, 0]

    def test_write_fraction(self):
        assert self.trace().write_fraction == pytest.approx(1 / 3)
        assert Trace("empty").write_fraction == 0.0

    def test_footprint_blocks(self):
        assert self.trace().footprint_blocks() == 2

    def test_truncated(self):
        short = self.trace().truncated(2)
        assert len(short) == 2
        assert short.name == "t"

    def test_core_counts(self):
        assert self.trace().core_counts() == {0: 2, 1: 1}


class TestInterleave:
    def test_round_robin_order(self):
        a = [MemoryAccess(0, core=0), MemoryAccess(1, core=0)]
        b = [MemoryAccess(100, core=1), MemoryAccess(101, core=1)]
        merged = interleave([a, b])
        assert [access.address for access in merged] == [0, 100, 1, 101]

    def test_uneven_streams(self):
        a = [MemoryAccess(0), MemoryAccess(1), MemoryAccess(2)]
        b = [MemoryAccess(100)]
        merged = interleave([a, b])
        assert [access.address for access in merged] == [0, 100, 1, 2]

    def test_empty_input(self):
        assert interleave([]) == []
        assert interleave([[], []]) == []


# ---------------------------------------------------------------------------
# TraceArrays.from_iter: how the simulator packs lists and generators


def _accesses(n, seed=3):
    rng = random.Random(seed)
    return [
        MemoryAccess(
            (rng.randrange(4096) << 6) | rng.randrange(64),
            AccessType.WRITE if rng.random() < 0.4 else AccessType.READ,
            core=rng.randrange(2),
        )
        for _ in range(n)
    ]


def _assert_packs(arrays, accesses):
    """Every packed element equals what ``MemoryAccess`` would carry."""
    assert len(arrays) == len(accesses)
    assert arrays.block_addresses.tolist() == [a.block_address for a in accesses]
    assert arrays.is_write.tolist() == [a.is_write for a in accesses]
    assert arrays.cores.tolist() == [a.core for a in accesses]


@pytest.mark.parametrize("n", [0, 1, 100, 200_000])
def test_from_iter_generator_matches_from_accesses(n):
    accesses = _accesses(n)
    # chunk=4096 forces multi-chunk assembly for the large case.
    streamed = TraceArrays.from_iter(iter(accesses), chunk=4096)
    packed = TraceArrays.from_accesses(accesses)
    for field in ("addresses", "types", "cores"):
        got = getattr(streamed, field)
        want = getattr(packed, field)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    _assert_packs(streamed, accesses)


def test_from_iter_sequence_shortcut():
    accesses = _accesses(64)
    packed = TraceArrays.from_iter(accesses)
    assert np.array_equal(packed.addresses, TraceArrays.from_accesses(accesses).addresses)
    _assert_packs(packed, accesses)


def test_from_iter_chunk_smaller_than_trace():
    """100 records in chunks of 7: fourteen full chunks and a remainder."""
    accesses = _accesses(100, seed=5)
    _assert_packs(TraceArrays.from_iter(iter(accesses), chunk=7), accesses)


def test_from_iter_empty_generator():
    packed = TraceArrays.from_iter(access for access in [])
    _assert_packs(packed, [])
    assert packed.addresses.dtype == TraceArrays.from_accesses([]).addresses.dtype
