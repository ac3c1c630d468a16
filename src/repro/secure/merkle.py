"""Merkle (integrity) tree over the counter region.

Two cooperating models are provided:

* :class:`MerkleTree` — a *functional* sparse hash tree.  Leaves are counter
  lines; each internal node hashes its children; the root is held on-chip.
  It supports updates, per-leaf verification, and detects any tampering
  with leaves or internal nodes.  This is the piece the paper relies on for
  replay protection (Sec. 2.1) and it is exercised directly by the test
  suite (including property-based tamper tests).

* :class:`IntegrityTreeModel` — the *traffic/timing* model used by the
  simulator.  Every counter line fetched from DRAM must be authenticated by
  walking its MT path leaf-to-root; the walk stops early at the first MT
  node found in the on-chip MT-node cache (a verified node vouches for the
  subtree below it).  Each node fetched from DRAM is one 64B read — these
  reads are what dominates secure-memory traffic in the paper's Figure 2.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..mem.cache import Cache
from ..mem.replacement import CacheLine
from .layout import SecureLayout


def _hash_children(children: List[bytes]) -> bytes:
    """Hash the concatenation of child digests into a parent digest."""
    return hashlib.sha256(b"".join(children)).digest()


class MerkleTree:
    """Sparse functional Merkle tree over counter lines.

    Args:
        num_leaves: Number of counter lines protected by the tree.
        arity: Children per internal node.

    Unwritten leaves hold a well-known default value, so the tree starts
    with a deterministic root and only touched paths are materialised.
    """

    def __init__(self, num_leaves: int, arity: int = 2) -> None:
        if num_leaves <= 0:
            raise ValueError("num_leaves must be positive")
        if arity < 2:
            raise ValueError("arity must be >= 2")
        self.num_leaves = num_leaves
        self.arity = arity
        #: Optional verification observer (``repro.verify``): called after
        #: every :meth:`verify_leaf` as ``on_verify(leaf_index, failed_level)``
        #: with ``failed_level is None`` for an authentic leaf.  ``None``
        #: keeps verification free of any callback cost.
        self.on_verify = None
        self._leaves: Dict[int, bytes] = {}
        # _nodes[level][index]; level 0 = parents of leaves.
        self._nodes: List[Dict[int, bytes]] = []
        self._level_sizes: List[int] = []
        size = num_leaves
        while size > 1:
            size = -(-size // arity)
            self._level_sizes.append(size)
            self._nodes.append({})
        if not self._level_sizes:
            self._level_sizes.append(1)
            self._nodes.append({})
        # Default digests per level for untouched subtrees.
        self._default_leaf = hashlib.sha256(b"cosmos-default-leaf").digest()
        self._defaults: List[bytes] = []
        current = self._default_leaf
        for _ in self._level_sizes:
            current = _hash_children([current] * arity)
            self._defaults.append(current)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    @property
    def levels(self) -> int:
        """Number of internal levels (root inclusive)."""
        return len(self._level_sizes)

    def leaf_digest(self, leaf_index: int) -> bytes:
        """Digest of leaf ``leaf_index`` (default if never written)."""
        self._check_leaf(leaf_index)
        return self._leaves.get(leaf_index, self._default_leaf)

    def level_size(self, level: int) -> int:
        """Number of internal nodes at ``level`` (0 = parents of leaves)."""
        return self._level_sizes[level]

    def has_leaf(self, leaf_index: int) -> bool:
        """True once ``leaf_index`` has been written (non-default digest)."""
        self._check_leaf(leaf_index)
        return leaf_index in self._leaves

    def node_digest(self, level: int, index: int) -> bytes:
        """Digest of the internal node at (level, index)."""
        return self._nodes[level].get(index, self._defaults[level])

    @property
    def root(self) -> bytes:
        """Current root digest (held on-chip in a real system)."""
        return self.node_digest(self.levels - 1, 0)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update_leaf(self, leaf_index: int, payload: bytes) -> bytes:
        """Write a leaf and re-hash its path to the root; returns new root."""
        self._check_leaf(leaf_index)
        self._leaves[leaf_index] = hashlib.sha256(payload).digest()
        index = leaf_index
        for level in range(self.levels):
            index //= self.arity
            children = self._children_digests(level, index)
            self._nodes[level][index] = _hash_children(children)
        return self.root

    def _children_digests(self, level: int, index: int) -> List[bytes]:
        children: List[bytes] = []
        for child_offset in range(self.arity):
            child_index = index * self.arity + child_offset
            if level == 0:
                if child_index < self.num_leaves:
                    children.append(self._leaves.get(child_index, self._default_leaf))
                else:
                    children.append(self._default_leaf)
            else:
                child_level = level - 1
                if child_index < self._level_sizes[child_level]:
                    children.append(self.node_digest(child_level, child_index))
                else:
                    children.append(self._defaults[child_level])
        return children

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def verify_leaf(self, leaf_index: int, payload: bytes) -> bool:
        """Authenticate ``payload`` as the content of ``leaf_index``.

        Recomputes the path from the leaf to the root against the stored
        sibling digests and compares with the on-chip root; any tampering
        along the way makes this return False.
        """
        return self.verify_leaf_level(leaf_index, payload) is None

    def verify_leaf_level(self, leaf_index: int, payload: bytes) -> Optional[int]:
        """Authenticate ``payload`` and report *where* verification failed.

        Returns ``None`` when the leaf is authentic.  Otherwise returns the
        tree level of the first mismatch: ``0`` means the leaf digest itself
        did not match ``payload``; ``k`` (``1 <= k <= levels``) means the
        internal node at internal level ``k - 1`` disagreed with the hash of
        its children.  The tamper-injection harness uses this to attribute a
        detection to the exact spliced node.
        """
        self._check_leaf(leaf_index)
        failed: Optional[int] = None
        current = hashlib.sha256(payload).digest()
        if current != self.leaf_digest(leaf_index):
            failed = 0
        else:
            index = leaf_index
            for level in range(self.levels):
                index //= self.arity
                recomputed = _hash_children(self._children_digests(level, index))
                if recomputed != self.node_digest(level, index):
                    failed = level + 1
                    break
        if self.on_verify is not None:
            self.on_verify(leaf_index, failed)
        return failed

    # ------------------------------------------------------------------
    # Attack surface (for security testing)
    # ------------------------------------------------------------------
    def tamper_node(self, level: int, index: int, digest: bytes) -> None:
        """Overwrite an internal node (attack simulation for tests)."""
        self._nodes[level][index] = digest

    def subtree_leaves(self, level: int, index: int) -> Tuple[int, int]:
        """Half-open leaf range ``[first, last)`` covered by node (level, index)."""
        span = self.arity ** (level + 1)
        first = index * span
        return first, min(first + span, self.num_leaves)

    def tamper_leaf(self, leaf_index: int, digest: bytes) -> None:
        """Overwrite a leaf digest without re-hashing (attack simulation)."""
        self._check_leaf(leaf_index)
        self._leaves[leaf_index] = digest

    def rehash_ancestors(self, level: int, index: int) -> None:
        """Recompute every node from (level, index)'s parent up to the root.

        Used by the tamper harness to *repair* the tree after undoing a
        node splice: writes that landed elsewhere while the splice was
        armed re-hashed their paths through the tampered digest, so the
        ancestors above the restored node may be stale.
        """
        for parent_level in range(level + 1, self.levels):
            index //= self.arity
            self._nodes[parent_level][index] = _hash_children(
                self._children_digests(parent_level, index)
            )

    def _check_leaf(self, leaf_index: int) -> None:
        if not 0 <= leaf_index < self.num_leaves:
            raise ValueError(f"leaf {leaf_index} out of range [0, {self.num_leaves})")


@dataclass
class IntegrityTreeStats:
    """Traffic accounting for MT traversals."""

    traversals: int = 0
    nodes_fetched: int = 0
    cache_hits: int = 0
    root_reached: int = 0

    @property
    def average_fetches(self) -> float:
        """Mean MT-node DRAM reads per traversal."""
        if self.traversals == 0:
            return 0.0
        return self.nodes_fetched / self.traversals


class IntegrityTreeModel:
    """Traffic/timing model of the MT traversal on CTR DRAM fetches.

    Args:
        layout: Address-space map supplying the per-counter MT paths.
        cache_size_bytes: Capacity of the on-chip MT-node cache; 0 disables
            caching (every traversal walks to the root).
        cache_assoc: Associativity of the MT-node cache.

    The node cache is exact LRU, and only :meth:`traverse` reads or fills
    it: it is built with the default policy, nothing assigns it another,
    and no caller writes or prefetches into it, so its lines are never
    dirty or prefetched.
    """

    def __init__(
        self,
        layout: SecureLayout,
        cache_size_bytes: int = 128 * 1024,
        cache_assoc: int = 8,
    ) -> None:
        self.layout = layout
        self.stats = IntegrityTreeStats()
        self.node_cache: Optional[Cache] = None
        if cache_size_bytes > 0:
            self.node_cache = Cache(cache_size_bytes, cache_assoc, name="mt_cache")

    def traverse(self, ctr_index: int) -> Tuple[int, List[int]]:
        """Authenticate a counter line fetched from DRAM.

        Walks the MT path leaf-parent to root, fetching nodes from DRAM
        until one hits in the MT-node cache (that node was already verified
        against the root, so the walk can stop).  Node addresses are
        computed level by level as the walk climbs, from the layout's
        ``mt_fetched_level_bases`` (a plain attribute, the same placement
        as :meth:`SecureLayout.mt_path`), so a walk that stops early never
        computes the rest of the path.

        The walk is one frame: each node's probe and fill work directly on
        the node cache's set dicts, in the LRU set layout that
        :mod:`repro.mem.cache` defines (a hit moves the line to the end; a
        miss appends, recycling the set's first line when the set is
        full), and the cache's stats are added once per walk.  The first
        line is the first key a loop over the set yields, which costs no
        builtin call.  Without a node cache the walk fetches the whole
        path.

        Returns:
            Tuple of (nodes fetched from DRAM, their block addresses).
        """
        layout = self.layout
        if not 0 <= ctr_index < layout.ctr_blocks:
            raise ValueError(f"ctr_index {ctr_index} out of range [0, {layout.ctr_blocks})")
        stats = self.stats
        stats.traversals += 1
        node_cache = self.node_cache
        if node_cache is None:
            path = layout.mt_path(ctr_index)
            stats.root_reached += 1
            stats.nodes_fetched += len(path)
            return len(path), path
        sets = node_cache._sets
        set_mask = node_cache._set_mask
        assoc = node_cache.assoc
        arity = layout.mt_arity
        node = ctr_index
        fetched: List[int] = []
        evictions = 0
        for base in layout.mt_fetched_level_bases:
            node //= arity
            node_address = base + node
            target_set = sets[node_address & set_mask]
            line = target_set.pop(node_address, None)
            if line is not None:
                line.referenced = True
                target_set[node_address] = line
                node_cache.stats.hits += 1
                stats.cache_hits += 1
                break
            # Cache.fill(node_address): never dirty or prefetched, so a
            # recycled victim needs only its tag and reference bit reset.
            if len(target_set) < assoc:
                line = CacheLine(node_address)
            else:
                for victim in target_set:
                    break
                line = target_set.pop(victim)
                evictions += 1
                line.tag = node_address
                line.referenced = False
            target_set[node_address] = line
            fetched.append(node_address)
        else:
            stats.root_reached += 1
        count = len(fetched)
        cache_stats = node_cache.stats
        cache_stats.misses += count
        cache_stats.evictions += evictions
        stats.nodes_fetched += count
        return count, fetched
