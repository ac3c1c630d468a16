"""Unit tests for the CTR Evaluation Table."""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.core.cet import CtrEvaluationTable


def test_insert_and_exact_probe():
    cet = CtrEvaluationTable(capacity=4, radius=1)
    cet.insert(10, state=3, action=1)
    entry = cet.probe(10)
    assert entry is not None and entry.state == 3 and entry.action == 1
    assert cet.probe(11) is None


def test_probe_nearby_within_radius():
    cet = CtrEvaluationTable(capacity=8, radius=2)
    cet.insert(100, state=1, action=0)
    assert cet.probe_nearby(101) is not None
    assert cet.probe_nearby(102) is not None
    assert cet.probe_nearby(103) is None


def test_probe_nearby_prefers_exact_match():
    cet = CtrEvaluationTable(capacity=8, radius=2)
    cet.insert(100, state=1, action=0)
    cet.insert(101, state=2, action=1)
    assert cet.probe_nearby(101).state == 2


def test_probe_nearby_returns_closest():
    cet = CtrEvaluationTable(capacity=8, radius=4)
    cet.insert(100, state=1, action=0)
    cet.insert(104, state=2, action=0)
    assert cet.probe_nearby(103).state == 2


def test_radius_zero_disables_nearby():
    cet = CtrEvaluationTable(capacity=8, radius=0)
    cet.insert(100, state=1, action=0)
    assert cet.probe_nearby(101) is None
    assert cet.probe_nearby(100) is not None


def test_lru_eviction_returns_victim():
    cet = CtrEvaluationTable(capacity=2, radius=1)
    assert cet.insert(1, 1, 0) is None
    assert cet.insert(2, 2, 0) is None
    evicted = cet.insert(3, 3, 0)
    assert evicted is not None and evicted.ctr_block == 1
    assert len(cet) == 2


def test_probe_refreshes_lru_position():
    cet = CtrEvaluationTable(capacity=2, radius=1)
    cet.insert(1, 1, 0)
    cet.insert(2, 2, 0)
    cet.probe(1)  # refresh 1, making 2 the LRU victim
    evicted = cet.insert(3, 3, 0)
    assert evicted.ctr_block == 2


def test_reinsert_updates_in_place():
    cet = CtrEvaluationTable(capacity=2, radius=1)
    cet.insert(1, 1, 0)
    assert cet.insert(1, 9, 1) is None
    entry = cet.probe(1)
    assert entry.state == 9 and entry.action == 1
    assert len(cet) == 1


def test_head_is_most_recent():
    cet = CtrEvaluationTable(capacity=4, radius=1)
    assert cet.head is None
    cet.insert(1, 1, 0)
    cet.insert(2, 2, 0)
    assert cet.head.ctr_block == 2
    cet.probe(1)
    assert cet.head.ctr_block == 1


def test_evicted_entry_no_longer_nearby():
    cet = CtrEvaluationTable(capacity=1, radius=2)
    cet.insert(10, 1, 0)
    cet.insert(50, 2, 0)  # evicts 10
    assert cet.probe_nearby(11) is None


def test_contains_has_no_lru_side_effect():
    cet = CtrEvaluationTable(capacity=2, radius=1)
    cet.insert(1, 1, 0)
    cet.insert(2, 2, 0)
    assert cet.contains(1)
    evicted = cet.insert(3, 3, 0)
    assert evicted.ctr_block == 1  # contains() did not refresh


def test_invalid_parameters():
    with pytest.raises(ValueError):
        CtrEvaluationTable(capacity=0)
    with pytest.raises(ValueError):
        CtrEvaluationTable(capacity=4, radius=-1)


def test_capacity_respected_under_load():
    cet = CtrEvaluationTable(capacity=16, radius=4)
    for block in range(1000):
        cet.insert(block, block % 7, block % 2)
    assert len(cet) == 16


# ----------------------------------------------------------------------
# The nearby rule against a brute-force reference
# ----------------------------------------------------------------------
class _ReferenceCet:
    """The CET's rules written out literally over a recency-ordered list."""

    def __init__(self, capacity, radius):
        self.capacity = capacity
        self.radius = radius
        self.order = []  # resident lines, least recently touched first
        self.entries = {}

    def _touch(self, block):
        self.order.remove(block)
        self.order.append(block)

    def probe(self, block):
        if block not in self.entries:
            return None
        self._touch(block)
        return block

    def probe_nearby(self, block):
        if block in self.entries:
            self._touch(block)
            return block
        near = [line for line in self.entries if abs(line - block) <= self.radius]
        if not near:
            return None
        best = min(near, key=lambda line: (abs(line - block), line))
        self._touch(best)
        return best

    def insert(self, block, state, action):
        if block in self.entries:
            self.entries[block] = (state, action)
            self._touch(block)
            return None
        evicted = None
        if len(self.order) >= self.capacity:
            evicted = self.order.pop(0)
            del self.entries[evicted]
        self.entries[block] = (state, action)
        self.order.append(block)
        return evicted


_CET_OPS = st.lists(
    st.tuples(
        st.sampled_from(["probe", "probe_nearby", "insert"]),
        # A span of 16 lines: dense enough that equidistant neighbours on
        # both sides are common at every radius, and that lines are
        # evicted and re-inserted many times within one sequence.
        st.integers(min_value=100, max_value=115),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=100,
    max_size=200,
)


def _inserts_then_probe(inserts, probes):
    return [("insert", block, 0) for block in inserts] + [
        ("probe_nearby", block, 0) for block in probes]


@settings(max_examples=50, deadline=None)
@given(
    ops=_CET_OPS,
    radius=st.sampled_from([0, 1, 2, 4]),
    capacity=st.integers(min_value=1, max_value=32),
)
# Ties between equidistant lines on both sides of the probe, after lines of
# the same neighbourhood were evicted and re-inserted.
@example(ops=_inserts_then_probe([115, 112, 106, 113, 110, 105, 115], [114]),
         radius=2, capacity=4)
@example(ops=[("insert", 104, 0), ("insert", 105, 0), ("insert", 107, 0),
              ("insert", 102, 0), ("probe_nearby", 104, 0), ("insert", 110, 0),
              ("insert", 107, 0), ("probe_nearby", 106, 0)],
         radius=4, capacity=3)
def test_nearby_rule_matches_brute_force_reference(ops, radius, capacity):
    cet = CtrEvaluationTable(capacity=capacity, radius=radius)
    ref = _ReferenceCet(capacity, radius)
    for op, block, state in ops:
        if op == "insert":
            evicted = cet.insert(block, state, state % 2)
            expected = ref.insert(block, state, state % 2)
            assert (evicted.ctr_block if evicted else None) == expected
        else:
            entry = getattr(cet, op)(block)
            expected = getattr(ref, op)(block)
            assert (entry.ctr_block if entry else None) == expected, (op, block)
            if entry is not None:
                assert (entry.state, entry.action) == ref.entries[expected]
        assert len(cet) == len(ref.order)
        # The line just matched or inserted is the head.
        assert (cet.head.ctr_block if cet.head else None) == (
            ref.order[-1] if ref.order else None)
    # Every resident line is still there, and eviction order is recency
    # order: refilling with fresh lines evicts them least recent first.
    evicted = [cet.insert(1000 + index, 0, 0) for index in range(capacity)]
    assert [entry.ctr_block for entry in evicted if entry is not None] == ref.order
