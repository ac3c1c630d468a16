"""Physical address-space layout of the protected memory.

The simulator places the counter region, MAC region and Merkle-tree node
region above the protected data region, all addressed at 64B-block
granularity.  Geometry for the paper's configuration (32 GB protected
memory, 64B lines, MorphCtr 1:128) gives ~537M data blocks and ~4.2M
counter lines; the binary integrity tree over those lines is 22 levels
deep, matching the paper's "verifying a single CTR requires access to
log2(537M/128) ~ 22 MT nodes" (Sec. 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

#: Default Merkle-tree arity.  The paper's traffic arithmetic (Sec. 3.1:
#: "verifying a single CTR requires access to the log2(537M/128) ~ 22 MT
#: nodes") assumes a binary tree over counter lines, so 2 is the default;
#: an SGX-style 8-ary tree is available by constructing the layout with
#: ``mt_arity=8``.
DEFAULT_MT_ARITY = 2


@dataclass(frozen=True)
class SecureLayout:
    """Address-space map for data, counters, MACs and MT nodes.

    Args:
        data_blocks: Number of protected 64B data blocks.
        blocks_per_ctr: Coverage ratio of the counter scheme in use.

    Attributes:
        mt_fetched_level_bases: DRAM base address of each MT level a walk
            may fetch, leaf-parent level first.  The root (last level) is
            excluded: it is pinned on-chip and never fetched from DRAM
            (paper Sec. 2.1).  The node at level ``k`` above counter line
            ``c`` sits at ``bases[k] + c // mt_arity ** (k + 1)``.  A plain
            attribute set once in ``__post_init__``, not a property,
            because every MT walk reads it; the dataclass is frozen, so it
            cannot be reassigned.
    """

    data_blocks: int
    blocks_per_ctr: int = 128
    mt_arity: int = DEFAULT_MT_ARITY

    def __post_init__(self) -> None:
        if self.data_blocks <= 0:
            raise ValueError("data_blocks must be positive")
        if self.blocks_per_ctr <= 0:
            raise ValueError("blocks_per_ctr must be positive")
        if self.mt_arity < 2:
            raise ValueError("mt_arity must be >= 2")
        # Precompute the region sizes and bases the address maps read, and
        # the per-level node counts and DRAM base addresses: counter-line
        # addresses and the MT walk are on the simulator's hot path (every
        # CTR access, and one walk per CTR cache miss).
        ctr_blocks = -(-self.data_blocks // self.blocks_per_ctr)
        object.__setattr__(self, "_ctr_blocks", ctr_blocks)
        object.__setattr__(self, "_mac_region_base", self.data_blocks + ctr_blocks)
        counts: List[int] = []
        nodes = ctr_blocks
        while nodes > 1:
            nodes = -(-nodes // self.mt_arity)
            counts.append(max(nodes, 1))
        if not counts:
            counts.append(1)
        bases: List[int] = []
        running = self.mt_region_base
        for count in counts:
            bases.append(running)
            running += count
        object.__setattr__(self, "_level_counts", tuple(counts))
        object.__setattr__(self, "_level_bases", tuple(bases))
        object.__setattr__(self, "mt_fetched_level_bases", tuple(bases[:-1]))

    # ------------------------------------------------------------------
    # Region sizes
    # ------------------------------------------------------------------
    @property
    def ctr_blocks(self) -> int:
        """Number of 64B counter lines."""
        return self._ctr_blocks

    @property
    def mac_blocks(self) -> int:
        """Number of 64B MAC lines (8 x 64-bit MACs per line)."""
        return -(-self.data_blocks // 8)

    @property
    def mt_levels(self) -> int:
        """Number of internal hash levels above the counter leaves."""
        return len(self._level_counts)

    def mt_nodes_at_level(self, level: int) -> int:
        """Node count at ``level`` (level 0 = parents of the leaves)."""
        return self._level_counts[level]

    # ------------------------------------------------------------------
    # Region base addresses (in 64B blocks)
    # ------------------------------------------------------------------
    @property
    def ctr_region_base(self) -> int:
        """First block address of the counter region."""
        return self.data_blocks

    @property
    def mac_region_base(self) -> int:
        """First block address of the MAC region."""
        return self._mac_region_base

    @property
    def mt_region_base(self) -> int:
        """First block address of the Merkle-tree node region."""
        return self.mac_region_base + self.mac_blocks

    # ------------------------------------------------------------------
    # Address mapping
    # ------------------------------------------------------------------
    def ctr_block_address(self, ctr_index: int) -> int:
        """DRAM block address of counter line ``ctr_index``."""
        if not 0 <= ctr_index < self._ctr_blocks:
            raise ValueError(f"ctr_index {ctr_index} out of range [0, {self._ctr_blocks})")
        return self.data_blocks + ctr_index

    def mac_block_address(self, data_block: int) -> int:
        """DRAM block address of the MAC line covering ``data_block``."""
        if not 0 <= data_block < self.data_blocks:
            raise ValueError(f"data_block {data_block} out of range [0, {self.data_blocks})")
        return self._mac_region_base + data_block // 8

    def mt_node_address(self, level: int, node_index: int) -> int:
        """DRAM block address of an MT node at (level, index)."""
        if level < 0 or level >= self.mt_levels:
            raise ValueError(f"level {level} out of range [0, {self.mt_levels})")
        if not 0 <= node_index < self._level_counts[level]:
            raise ValueError(
                f"node_index {node_index} out of range [0, {self._level_counts[level]})"
                f" at level {level}"
            )
        return self._level_bases[level] + node_index

    def mt_path(self, ctr_index: int) -> List[int]:
        """Block addresses of the MT nodes from leaf-parent to root.

        The root (last level) is excluded: it is pinned on-chip and never
        fetched from DRAM (paper Sec. 2.1).
        """
        if not 0 <= ctr_index < self.ctr_blocks:
            raise ValueError(f"ctr_index {ctr_index} out of range [0, {self.ctr_blocks})")
        path: List[int] = []
        node = ctr_index
        for base in self.mt_fetched_level_bases:
            node //= self.mt_arity
            path.append(base + node)
        return path

    @classmethod
    def for_memory_size(
        cls, memory_bytes: int, blocks_per_ctr: int = 128, mt_arity: int = DEFAULT_MT_ARITY
    ) -> "SecureLayout":
        """Layout for a protected memory of ``memory_bytes`` (e.g. 32 GB)."""
        return cls(
            data_blocks=memory_bytes // 64,
            blocks_per_ctr=blocks_per_ctr,
            mt_arity=mt_arity,
        )
