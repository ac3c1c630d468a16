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
from typing import List, Sequence

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
    adjacency: List[List[int]] = [[] for _ in range(num_vertices)]
    # Repeated-endpoint pool implements degree-proportional sampling.
    endpoint_pool: List[int] = [0]
    for vertex in range(1, num_vertices):
        attach = min(edges_per_vertex, vertex)
        targets: set = set()
        while len(targets) < attach:
            candidate = endpoint_pool[rng.randrange(len(endpoint_pool))]
            if candidate != vertex:
                targets.add(candidate)
            elif len(targets) + 1 >= vertex:  # avoid livelock on tiny graphs
                break
        # ``vertex`` has no edges before this loop and ``targets`` is a
        # set, so every edge is new.
        for target in targets:
            adjacency[vertex].append(target)
            adjacency[target].append(vertex)
            endpoint_pool.append(vertex)
            endpoint_pool.append(target)
    if shuffle_labels:
        relabel = list(range(num_vertices))
        rng.shuffle(relabel)
        shuffled: List[List[int]] = [[] for _ in range(num_vertices)]
        for vertex in range(num_vertices):
            shuffled[relabel[vertex]] = [relabel[neighbor] for neighbor in adjacency[vertex]]
        adjacency = shuffled
    row_ptr = [0]
    col_idx: List[int] = []
    for vertex in range(num_vertices):
        col_idx.extend(adjacency[vertex])
        row_ptr.append(len(col_idx))
    return CsrGraph(row_ptr=row_ptr, col_idx=col_idx)


def github_like_graph(scale: float = 1.0, seed: int = 42) -> CsrGraph:
    """A graph shaped like musae-github, optionally scaled down.

    ``scale=1.0`` gives ~37.7K vertices with ~8 average degree (matching
    the dataset's 289K undirected edges); smaller scales keep the degree
    skew while shrinking the footprint for fast experiments.
    """
    num_vertices = max(64, int(37_700 * scale))
    return preferential_attachment_graph(num_vertices, edges_per_vertex=8, seed=seed)


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
            rng = random.Random(self.seed)
            self._edge_slot = list(range(max(edges, 1)))
            rng.shuffle(self._edge_slot)
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
