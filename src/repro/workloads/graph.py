"""Synthetic graphs and their in-memory layout.

The paper evaluates GraphBIG kernels on the GitHub developer social
network (musae-github: ~37.7K vertices, ~289K edges, heavy-tailed degree
distribution).  That dataset is not redistributable here, so we synthesise
scale-free graphs with a seeded preferential-attachment process
(DESIGN.md, substitution 2) — the irregularity the paper exploits comes
from the degree skew, which preferential attachment reproduces.

:class:`GraphMemoryLayout` models how a CSR graph and its per-vertex
property arrays sit in memory, so the kernel implementations in
``graph_algos`` can emit realistic physical address streams.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from .trace import Allocator


@dataclass
class CsrGraph:
    """Compressed-sparse-row directed graph.

    Attributes:
        row_ptr: ``num_vertices + 1`` offsets into ``col_idx``.
        col_idx: Flattened adjacency lists.
    """

    row_ptr: List[int]
    col_idx: List[int]

    @property
    def num_vertices(self) -> int:
        """Vertex count."""
        return len(self.row_ptr) - 1

    @property
    def num_edges(self) -> int:
        """Directed edge count."""
        return len(self.col_idx)

    def neighbors(self, vertex: int) -> Sequence[int]:
        """Adjacency list of ``vertex``."""
        return self.col_idx[self.row_ptr[vertex] : self.row_ptr[vertex + 1]]

    def degree(self, vertex: int) -> int:
        """Out-degree of ``vertex``."""
        return self.row_ptr[vertex + 1] - self.row_ptr[vertex]


def preferential_attachment_graph(
    num_vertices: int,
    edges_per_vertex: int = 8,
    seed: int = 42,
    shuffle_labels: bool = True,
) -> CsrGraph:
    """Seeded scale-free graph via preferential attachment.

    Every new vertex attaches to ``edges_per_vertex`` existing vertices
    chosen proportionally to degree (Barabási-Albert style); edges are
    symmetrised so every kernel sees both directions.  The resulting degree
    distribution is heavy-tailed like the GitHub social network's.

    With ``shuffle_labels`` (the default) vertex ids are randomly permuted
    afterwards.  Preferential attachment otherwise concentrates hubs at low
    ids; real datasets assign ids arbitrarily, so hubs scatter across the
    vertex arrays — which is what makes some counter granules (128
    consecutive vertices) hot and others cold, the locality structure
    COSMOS exploits.
    """
    if num_vertices < 2:
        raise ValueError("num_vertices must be >= 2")
    if edges_per_vertex < 1:
        raise ValueError("edges_per_vertex must be >= 1")
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    # Repeated-endpoint pool implements degree-proportional sampling.  After
    # the seed vertex 0 it lists every edge as (new vertex, target) in
    # creation order, so it is also the edge list the CSR is built from.
    endpoint_pool: List[int] = [0]
    append = endpoint_pool.append
    for vertex in range(1, num_vertices):
        # The pool holds exactly the vertices below ``vertex``: a candidate
        # is never ``vertex`` itself and ``attach`` distinct ones exist.
        # ``targets`` is a set, so every edge is new.
        size = len(endpoint_pool)
        bits = size.bit_length()
        attach = min(edges_per_vertex, vertex)
        targets: set = set()
        while len(targets) < attach:
            index = getrandbits(bits)  # ``rng.randrange(size)``, inlined
            while index >= size:
                index = getrandbits(bits)
            targets.add(endpoint_pool[index])
        for target in targets:
            append(vertex)
            append(target)
    relabel = list(range(num_vertices))
    if shuffle_labels:
        rng.shuffle(relabel)
    # Record r of ``ends`` is the edge ``ends[r] -> ends[r ^ 1]``.  The
    # arrays are built in place and dropped early to keep the peak down.
    ends = np.array(endpoint_pool, dtype=np.int32)[1:]
    del endpoint_pool
    records = len(ends)
    owners = np.array(relabel, dtype=np.int32)[ends]
    row_ptr = [0] + np.cumsum(np.bincount(owners, minlength=num_vertices)).tolist()
    # Sorting (new owner, r) keys orders records by owner and, within an
    # owner, by edge creation.
    keys = owners.astype(np.int64)
    del owners
    keys *= records
    keys += np.arange(records)
    keys.sort()
    keys %= records
    keys ^= 1
    neighbors = ends[keys]
    del keys
    # Gathering from an object array of ``relabel``'s ints gives ``col_idx``
    # one int object per vertex id; ``.tolist()`` of an integer array would
    # create a new object per edge.
    col_idx = np.array(relabel, dtype=object)[neighbors].tolist()
    return CsrGraph(row_ptr=row_ptr, col_idx=col_idx)


def github_like_graph(scale: float = 1.0, seed: int = 42) -> CsrGraph:
    """A graph shaped like musae-github, optionally scaled down.

    ``scale=1.0`` gives ~37.7K vertices with ~8 average degree (matching
    the dataset's 289K undirected edges); smaller scales keep the degree
    skew while shrinking the footprint for fast experiments.
    """
    num_vertices = max(64, int(37_700 * scale))
    return preferential_attachment_graph(num_vertices, edges_per_vertex=8, seed=seed)


#: Shuffle steps resolved per vectorised pass in :func:`_shuffle_draws`.
_DRAW_BLOCK = 4096


def _shuffle_draws(n: int, seed: int) -> np.ndarray:
    """The ``j`` each step of ``random.Random(seed).shuffle`` draws on ``n`` items.

    ``Random.shuffle`` swaps position ``i`` with ``j = randbelow(i + 1)``
    for ``i = n - 1 ... 1``.  ``randbelow(b)`` keeps the top
    ``b.bit_length()`` bits of the next 32-bit Mersenne Twister word and
    draws again while the result is ``>= b``.  NumPy's ``MT19937`` loaded
    with the same state yields the same words.  Returns ``draws`` with
    ``draws[i] = j`` for step ``i`` and ``draws[0] = 0``.
    """
    state = random.Random(seed).getstate()[1]
    bitgen = np.random.MT19937()
    bitgen.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(state[:-1], dtype=np.uint32), "pos": state[-1]},
    }
    draws = np.zeros(n, dtype=np.int32)
    words = np.empty(0, dtype=np.uint64)
    step = n - 1
    while step >= 1:
        # A block of steps whose bounds share one bit length, so a word
        # gives the same candidate whichever step reads it.  Candidates
        # <= ``low`` pass every bound in the block and ones > ``step`` fail
        # every bound; only those in between depend on which step reads
        # them, and they are resolved in order.
        bits = (step + 1).bit_length()
        low = max(step - _DRAW_BLOCK + 1, (1 << (bits - 1)) - 1, 1)
        span = step - low + 1
        if len(words) < 2 * span:  # a word passes with probability >= 1/2
            words = np.concatenate((words, bitgen.random_raw(2 * span + 64)))
        candidates = (words >> np.uint64(32 - bits)).astype(np.int64)
        accepted = candidates <= low
        unsure = np.flatnonzero((candidates > low) & (candidates <= step))
        if len(unsure):
            accepted_before = np.cumsum(accepted)[unsure].tolist()
            late = 0
            for word, candidate, before in zip(
                unsure.tolist(), candidates[unsure].tolist(), accepted_before
            ):
                done = before + late  # steps of the block already drawn
                if done >= span:
                    break
                if candidate <= step - done:
                    accepted[word] = True
                    late += 1
        taken = np.flatnonzero(accepted)[:span]
        count = len(taken)
        draws[step - count + 1 : step + 1] = candidates[taken][::-1]
        # Words after the block's last draw belong to the next block.
        words = words[taken[-1] + 1 :] if count == span else words[:0]
        step -= count
    return draws


class ShuffledRange:
    """``random.Random(seed).shuffle(list(range(n)))``, read lazily.

    Indexing returns the int the shuffled list holds at that position
    without building the list: the shuffle's draws come from
    :func:`_shuffle_draws` and each position is resolved on demand, then
    memoised.  Step ``e`` of the shuffle swaps position ``e`` with ``j_e``
    and no later step touches ``e``, so ``e`` ends with what ``j_e`` held
    just before step ``e``.  Before step ``s`` (steps run from ``n - 1``
    down), position ``q`` still holds ``q`` unless some step ``i > s``
    drew ``q``; then it holds what position ``i`` held just before step
    ``i``, for the smallest such ``i``.
    """

    def __init__(self, n: int, seed: int) -> None:
        if not 0 <= n <= 1 << 31:  # one 32-bit word per draw; keys fit int64
            raise ValueError(f"n must be in [0, 2**31], got {n}")
        self._n = n
        self._draws = _shuffle_draws(n, seed)
        # ``draw * n + step`` for every step, sorted: the steps that drew a
        # position form one run, in increasing step order.
        keys = self._draws[1:].astype(np.int64)
        keys *= n
        keys += np.arange(1, n)
        keys.sort()
        self._keys = keys
        self._memo: Dict[int, int] = {}

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, position: int) -> int:
        value = self._memo.get(position)
        if value is None:
            if not 0 <= position < self._n:
                raise IndexError(f"position {position} outside [0, {self._n})")
            n, keys = self._n, self._keys
            source, before = int(self._draws[position]), position
            while True:
                # The smallest step after ``before`` that drew ``source``.
                found = int(np.searchsorted(keys, source * n + before + 1))
                if found == len(keys):
                    break
                key = int(keys[found])
                if key // n != source:
                    break
                source = before = key % n
            value = self._memo[position] = source
        return value


@dataclass
class GraphMemoryLayout:
    """Physical placement of a graph plus per-vertex property arrays.

    Two adjacency layouts are modelled:

    * ``scatter_edges=False`` — compact CSR: ``col_idx`` is a dense array
      of 4-byte vertex ids, giving edge scans strong spatial locality;
    * ``scatter_edges=True`` (default) — GraphBIG-style edge *objects*:
      each edge is an ``edge_record_bytes`` record placed at a seeded
      random slot in a large edge pool, the way pointer-based adjacency
      containers land on the heap.  This is what gives graph workloads the
      irregular, low-spatial-locality DRAM behaviour the paper reports.

    Vertex properties are fat 64B objects by default (one line per vertex
    per property), matching GraphBIG's property containers.

    The edge pool's slots are read lazily: the seeded permutation is a
    :class:`ShuffledRange`, which resolves only the edge records a trace
    touches instead of shuffling a list of every slot.
    """

    graph: CsrGraph
    allocator: Allocator = field(default_factory=Allocator)
    offset_bytes: int = 8
    index_bytes: int = 4
    property_bytes: int = 64
    scatter_edges: bool = True
    edge_record_bytes: int = 32
    seed: int = 1337

    def __post_init__(self) -> None:
        vertices = self.graph.num_vertices
        edges = self.graph.num_edges
        self.row_ptr_base = self.allocator.alloc("row_ptr", (vertices + 1) * self.offset_bytes)
        if self.scatter_edges:
            self.col_idx_base = self.allocator.alloc(
                "edge_pool", max(edges, 1) * self.edge_record_bytes
            )
            self._edge_slot = ShuffledRange(max(edges, 1), self.seed)
        else:
            self.col_idx_base = self.allocator.alloc("col_idx", max(edges, 1) * self.index_bytes)
            self._edge_slot = None
        self._property_bases: dict = {}

    def property_array(self, name: str) -> int:
        """Base address of a per-vertex property array, allocating lazily."""
        base = self._property_bases.get(name)
        if base is None:
            base = self.allocator.alloc(
                f"prop:{name}", self.graph.num_vertices * self.property_bytes
            )
            self._property_bases[name] = base
        return base

    # ------------------------------------------------------------------
    # Address computation
    # ------------------------------------------------------------------
    def row_ptr_address(self, vertex: int) -> int:
        """Address of ``row_ptr[vertex]``."""
        return self.row_ptr_base + vertex * self.offset_bytes

    def col_idx_address(self, edge_index: int) -> int:
        """Address of the record for edge ``edge_index``.

        Compact CSR places records densely; the scattered layout looks the
        edge up in its randomised pool slot.
        """
        if self._edge_slot is not None:
            return self.col_idx_base + self._edge_slot[edge_index] * self.edge_record_bytes
        return self.col_idx_base + edge_index * self.index_bytes

    def property_address(self, name: str, vertex: int) -> int:
        """Address of ``property[vertex]`` for the named array."""
        return self.property_array(name) + vertex * self.property_bytes

    @property
    def footprint_bytes(self) -> int:
        """Bytes allocated for the graph and its properties so far."""
        return self.allocator.footprint_bytes


def degree_skew(graph: CsrGraph, top_fraction: float = 0.01) -> float:
    """Fraction of edges owned by the top ``top_fraction`` of vertices.

    A quick heavy-tail check used by tests: scale-free graphs concentrate
    a large share of edges on few hubs.
    """
    if not 0.0 < top_fraction <= 1.0:
        raise ValueError("top_fraction must be in (0, 1]")
    degrees = sorted(
        (graph.degree(vertex) for vertex in range(graph.num_vertices)), reverse=True
    )
    top_count = max(1, int(len(degrees) * top_fraction))
    top_edges = sum(degrees[:top_count])
    total = sum(degrees)
    if total == 0:
        return 0.0
    return top_edges / total
