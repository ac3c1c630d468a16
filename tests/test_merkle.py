"""Unit tests for the Merkle tree (functional) and the traversal model."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import Cache
from repro.mem.replacement import CacheLine
from repro.secure.layout import SecureLayout
from repro.secure.merkle import IntegrityTreeModel, MerkleTree


class TestFunctionalTree:
    def test_default_root_is_deterministic(self):
        assert MerkleTree(64).root == MerkleTree(64).root

    def test_update_changes_root(self):
        tree = MerkleTree(64)
        before = tree.root
        tree.update_leaf(3, b"counter line payload")
        assert tree.root != before

    def test_verify_after_update(self):
        tree = MerkleTree(64)
        tree.update_leaf(3, b"payload")
        assert tree.verify_leaf(3, b"payload")

    def test_verify_rejects_wrong_payload(self):
        tree = MerkleTree(64)
        tree.update_leaf(3, b"payload")
        assert not tree.verify_leaf(3, b"forged")

    def test_tampered_leaf_detected(self):
        tree = MerkleTree(64)
        tree.update_leaf(3, b"payload")
        tree.tamper_leaf(3, b"\x00" * 32)
        assert not tree.verify_leaf(3, b"payload")

    def test_tampered_internal_node_detected(self):
        tree = MerkleTree(64)
        tree.update_leaf(3, b"payload")
        tree.tamper_node(0, 3 // tree.arity, b"\x00" * 32)
        assert not tree.verify_leaf(3, b"payload")

    def test_replay_attack_detected(self):
        """Replaying an old (payload, leaf-digest) pair fails at the parent."""
        tree = MerkleTree(64)
        tree.update_leaf(3, b"version-1")
        import hashlib

        old_digest = hashlib.sha256(b"version-1").digest()
        tree.update_leaf(3, b"version-2")
        tree.tamper_leaf(3, old_digest)  # attacker restores the old leaf
        assert not tree.verify_leaf(3, b"version-1")

    def test_independent_leaves(self):
        tree = MerkleTree(64)
        tree.update_leaf(0, b"a")
        tree.update_leaf(63, b"b")
        assert tree.verify_leaf(0, b"a")
        assert tree.verify_leaf(63, b"b")

    def test_arity_8(self):
        tree = MerkleTree(64, arity=8)
        assert tree.levels == 2
        tree.update_leaf(9, b"x")
        assert tree.verify_leaf(9, b"x")

    def test_bounds(self):
        tree = MerkleTree(8)
        with pytest.raises(ValueError):
            tree.update_leaf(8, b"x")
        with pytest.raises(ValueError):
            MerkleTree(0)
        with pytest.raises(ValueError):
            MerkleTree(8, arity=1)


class TestTraversalModel:
    def layout(self):
        return SecureLayout(data_blocks=1 << 16, blocks_per_ctr=128)

    def test_cold_traversal_walks_to_root(self):
        model = IntegrityTreeModel(self.layout(), cache_size_bytes=0)
        fetched, addresses = model.traverse(0)
        assert fetched == len(self.layout().mt_path(0))
        assert model.stats.root_reached == 1

    def test_cached_nodes_stop_the_walk(self):
        model = IntegrityTreeModel(self.layout(), cache_size_bytes=64 * 1024)
        first, _ = model.traverse(0)
        second, _ = model.traverse(0)
        assert second == 0  # leaf parent now cached
        assert model.stats.cache_hits >= 1

    def test_sibling_benefits_from_shared_path(self):
        model = IntegrityTreeModel(self.layout(), cache_size_bytes=64 * 1024)
        model.traverse(0)
        fetched, _ = model.traverse(1)  # shares the whole parent chain
        assert fetched == 0

    def test_distant_counter_shares_only_top(self):
        layout = self.layout()
        model = IntegrityTreeModel(layout, cache_size_bytes=64 * 1024)
        cold, _ = model.traverse(0)
        # Counter 64 shares only the levels where its ancestor index
        # converges to 0 — the upper part of the tree.
        far, _ = model.traverse(64)
        assert 0 < far < cold

    def test_average_fetches_decreases_with_locality(self):
        layout = self.layout()
        model = IntegrityTreeModel(layout, cache_size_bytes=64 * 1024)
        for _ in range(4):
            for ctr in range(16):
                model.traverse(ctr)
        assert model.stats.average_fetches < len(layout.mt_path(0))

    @pytest.mark.parametrize("arity", [2, 8])
    @pytest.mark.parametrize("cache_bytes", [0, 4096])
    def test_walk_fetches_a_prefix_of_mt_path(self, arity, cache_bytes):
        layout = SecureLayout(data_blocks=1 << 20, blocks_per_ctr=128, mt_arity=arity)
        model = IntegrityTreeModel(layout, cache_size_bytes=cache_bytes)
        rng = random.Random(arity)
        ctrs = [0, layout.ctr_blocks - 1] + [rng.randrange(layout.ctr_blocks) for _ in range(300)]
        stats = model.stats
        stopped = 0
        for ctr in ctrs:
            hits, roots = stats.cache_hits, stats.root_reached
            fetched, addresses = model.traverse(ctr)
            path = layout.mt_path(ctr)
            assert addresses == path[:fetched]
            early = fetched < len(path)
            stopped += early
            assert stats.cache_hits - hits == early
            assert stats.root_reached - roots == (not early)
        assert stats.traversals == len(ctrs)
        assert (stopped > 0) == (cache_bytes > 0)  # only the node cache cuts walks short
        for bad in (-1, layout.ctr_blocks):
            with pytest.raises(ValueError):
                model.traverse(bad)

    def test_no_cache_always_counts_full_path(self):
        layout = self.layout()
        model = IntegrityTreeModel(layout, cache_size_bytes=0)
        for _ in range(3):
            model.traverse(5)
        assert model.stats.nodes_fetched == 3 * len(layout.mt_path(5))


def _per_node_traverse(model, ctr_index):
    """The walk as one ``Cache.access_and_fill`` call per node: the
    reference the one-frame :meth:`IntegrityTreeModel.traverse` must match."""
    layout = model.layout
    stats = model.stats
    stats.traversals += 1
    node = ctr_index
    fetched = []
    for base in layout.mt_fetched_level_bases:
        node //= layout.mt_arity
        node_address = base + node
        if model.node_cache is not None and model.node_cache.access_and_fill(node_address):
            stats.cache_hits += 1
            break
        fetched.append(node_address)
    else:
        stats.root_reached += 1
    stats.nodes_fetched += len(fetched)
    return len(fetched), fetched


def _set_contents(cache):
    """Every line of every set, in order, as its slot values."""
    return [
        [tuple(getattr(line, slot) for slot in CacheLine.__slots__)
         for line in cache.set_contents(index)]
        for index in range(cache.num_sets)
    ]


@pytest.mark.parametrize("arity", [2, 8])
@pytest.mark.parametrize("cache_bytes", [0, 4096])
@settings(max_examples=30, deadline=None)
@given(
    # Counters near the start (shared paths, node-cache hits) mixed with
    # counters anywhere (cold paths, evictions from the 64-line cache).
    stream=st.lists(
        st.one_of(st.integers(min_value=0, max_value=63),
                  st.integers(min_value=0, max_value=(1 << 13) - 1)),
        min_size=1,
        max_size=200,
    ),
)
def test_one_frame_walk_matches_per_node_reference(arity, cache_bytes, stream):
    layout = SecureLayout(data_blocks=1 << 20, blocks_per_ctr=128, mt_arity=arity)
    assert layout.ctr_blocks == 1 << 13
    walked, reference = (IntegrityTreeModel(layout, cache_size_bytes=cache_bytes)
                         for _ in range(2))
    for ctr in stream:
        assert walked.traverse(ctr) == _per_node_traverse(reference, ctr)
    assert walked.stats == reference.stats
    if cache_bytes == 0:
        assert walked.node_cache is None and reference.node_cache is None
        return
    assert walked.node_cache.stats == reference.node_cache.stats
    assert _set_contents(walked.node_cache) == _set_contents(reference.node_cache)
