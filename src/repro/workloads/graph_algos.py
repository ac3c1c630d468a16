"""GraphBIG-style kernels emitting memory address traces.

Each kernel *actually executes* over the CSR graph — BFS really traverses,
PageRank really iterates — while recording the addresses it touches:
``row_ptr``/``col_idx`` reads, per-vertex property reads/writes, and the
kernel's own working structures (stacks, queues).  Multi-threaded runs
partition work across cores and interleave the per-core streams, matching
the paper's 4-thread GraphBIG setup.

Supported kernels (paper Sec. 3.1): DFS, BFS, GC, PR, TC, CC, SP, DC.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Dict, Iterator, List, Tuple

from ..mem.access import AccessType, MemoryAccess
from .graph import CsrGraph, GraphMemoryLayout, github_like_graph
from .trace import Trace, interleave

#: Emitted record: (byte address, is_write).
AddressEvent = Tuple[int, bool]


def _edge_events(
    layout: GraphMemoryLayout, vertex: int
) -> Iterator[AddressEvent]:
    """Events for reading a vertex's adjacency metadata (row_ptr pair)."""
    yield layout.row_ptr_address(vertex), False
    yield layout.row_ptr_address(vertex + 1), False


def _neighbor_events(
    layout: GraphMemoryLayout, graph: CsrGraph, vertex: int
) -> Iterator[Tuple[int, AddressEvent]]:
    """Pairs of (neighbor vertex, col_idx read event) for ``vertex``."""
    start = graph.row_ptr[vertex]
    end = graph.row_ptr[vertex + 1]
    for edge_index in range(start, end):
        yield graph.col_idx[edge_index], (layout.col_idx_address(edge_index), False)


# ----------------------------------------------------------------------
# Kernels.  Each takes (graph, layout, vertices, rng, scratch_base) and
# yields AddressEvents indefinitely (drivers slice them to length).
# ----------------------------------------------------------------------
def bfs_kernel(
    graph: CsrGraph,
    layout: GraphMemoryLayout,
    vertices: List[int],
    rng: random.Random,
    scratch_base: int,
) -> Iterator[AddressEvent]:
    """Breadth-first search from per-partition roots."""
    visited = [False] * graph.num_vertices
    pending = list(vertices)
    rng.shuffle(pending)
    queue_pos = 0
    while pending:
        root = pending.pop()
        if visited[root]:
            continue
        frontier = [root]
        visited[root] = True
        while frontier:
            next_frontier: List[int] = []
            for vertex in frontier:
                yield scratch_base + (queue_pos % 4096) * 8, False  # queue pop
                queue_pos += 1
                yield from _edge_events(layout, vertex)
                for neighbor, event in _neighbor_events(layout, graph, vertex):
                    yield event
                    yield layout.property_address("visited", neighbor), False
                    if not visited[neighbor]:
                        visited[neighbor] = True
                        yield layout.property_address("visited", neighbor), True
                        yield scratch_base + (queue_pos % 4096) * 8, True  # push
                        next_frontier.append(neighbor)
            frontier = next_frontier


def dfs_kernel(
    graph: CsrGraph,
    layout: GraphMemoryLayout,
    vertices: List[int],
    rng: random.Random,
    scratch_base: int,
) -> Iterator[AddressEvent]:
    """Depth-first search with an explicit stack."""
    visited = [False] * graph.num_vertices
    roots = list(vertices)
    rng.shuffle(roots)
    for root in roots:
        if visited[root]:
            continue
        stack = [root]
        depth = 0
        while stack:
            vertex = stack.pop()
            yield scratch_base + (len(stack) % 4096) * 8, False  # stack pop
            if visited[vertex]:
                continue
            visited[vertex] = True
            yield layout.property_address("visited", vertex), True
            yield from _edge_events(layout, vertex)
            for neighbor, event in _neighbor_events(layout, graph, vertex):
                yield event
                yield layout.property_address("visited", neighbor), False
                if not visited[neighbor]:
                    stack.append(neighbor)
                    yield scratch_base + (len(stack) % 4096) * 8, True  # push
            depth += 1


def pagerank_kernel(
    graph: CsrGraph,
    layout: GraphMemoryLayout,
    vertices: List[int],
    rng: random.Random,
    scratch_base: int,
) -> Iterator[AddressEvent]:
    """Power-iteration PageRank over the partition's vertices."""
    del scratch_base  # PageRank keeps no per-thread scratch worth modelling
    while True:  # repeat iterations until the driver has enough accesses
        for vertex in vertices:
            yield from _edge_events(layout, vertex)
            for neighbor, event in _neighbor_events(layout, graph, vertex):
                yield event
                yield layout.property_address("rank", neighbor), False
                yield layout.property_address("out_degree", neighbor), False
            yield layout.property_address("rank_next", vertex), True
        for vertex in vertices:
            yield layout.property_address("rank_next", vertex), False
            yield layout.property_address("rank", vertex), True


def coloring_kernel(
    graph: CsrGraph,
    layout: GraphMemoryLayout,
    vertices: List[int],
    rng: random.Random,
    scratch_base: int,
) -> Iterator[AddressEvent]:
    """Greedy graph coloring in random vertex order."""
    order = list(vertices)
    rng.shuffle(order)
    colors: Dict[int, int] = {}
    for vertex in order:
        yield from _edge_events(layout, vertex)
        used = set()
        for neighbor, event in _neighbor_events(layout, graph, vertex):
            yield event
            yield layout.property_address("color", neighbor), False
            if neighbor in colors:
                used.add(colors[neighbor])
        color = 0
        while color in used:
            color += 1
            yield scratch_base + (color % 512) * 8, False  # palette probe
        colors[vertex] = color
        yield layout.property_address("color", vertex), True


def triangle_kernel(
    graph: CsrGraph,
    layout: GraphMemoryLayout,
    vertices: List[int],
    rng: random.Random,
    scratch_base: int,
) -> Iterator[AddressEvent]:
    """Triangle counting via binary search in neighbor lists."""
    for vertex in vertices:
        yield from _edge_events(layout, vertex)
        neighbors: List[int] = []
        for neighbor, event in _neighbor_events(layout, graph, vertex):
            yield event
            neighbors.append(neighbor)
        for neighbor in neighbors:
            if neighbor <= vertex:
                continue
            yield from _edge_events(layout, neighbor)
            start = graph.row_ptr[neighbor]
            end = graph.row_ptr[neighbor + 1]
            sorted_adj = graph.col_idx[start:end]
            for candidate in neighbors:
                if candidate <= neighbor:
                    continue
                # Binary search over neighbor's adjacency: log probes.
                lo, hi = 0, len(sorted_adj)
                while lo < hi:
                    mid = (lo + hi) // 2
                    yield layout.col_idx_address(start + mid), False
                    if sorted_adj[mid] < candidate:
                        lo = mid + 1
                    else:
                        hi = mid
        yield layout.property_address("triangles", vertex), True


def components_kernel(
    graph: CsrGraph,
    layout: GraphMemoryLayout,
    vertices: List[int],
    rng: random.Random,
    scratch_base: int,
) -> Iterator[AddressEvent]:
    """Connected components via label propagation."""
    labels = {vertex: vertex for vertex in vertices}
    while True:
        changed = False
        for vertex in vertices:
            yield layout.property_address("label", vertex), False
            best = labels.get(vertex, vertex)
            yield from _edge_events(layout, vertex)
            for neighbor, event in _neighbor_events(layout, graph, vertex):
                yield event
                yield layout.property_address("label", neighbor), False
                best = min(best, labels.get(neighbor, neighbor))
            if best != labels.get(vertex, vertex):
                labels[vertex] = best
                changed = True
                yield layout.property_address("label", vertex), True
        if not changed:
            # Converged: restart with fresh labels so the stream continues
            # (the driver slices to the requested length).
            labels = {vertex: vertex for vertex in vertices}


def shortest_path_kernel(
    graph: CsrGraph,
    layout: GraphMemoryLayout,
    vertices: List[int],
    rng: random.Random,
    scratch_base: int,
) -> Iterator[AddressEvent]:
    """Single-source shortest path (Bellman-Ford-style relaxations)."""
    infinity = float("inf")
    distances: Dict[int, float] = {}
    roots = list(vertices)
    rng.shuffle(roots)
    for root in roots:
        distances[root] = 0.0
        worklist = [root]
        position = 0
        while worklist:
            vertex = worklist.pop()
            yield scratch_base + (position % 4096) * 8, False
            position += 1
            base_distance = distances.get(vertex, infinity)
            yield layout.property_address("dist", vertex), False
            yield from _edge_events(layout, vertex)
            for neighbor, event in _neighbor_events(layout, graph, vertex):
                yield event
                yield layout.property_address("dist", neighbor), False
                candidate = base_distance + 1.0
                if candidate < distances.get(neighbor, infinity):
                    distances[neighbor] = candidate
                    yield layout.property_address("dist", neighbor), True
                    worklist.append(neighbor)
                    yield scratch_base + (position % 4096) * 8, True


def degree_centrality_kernel(
    graph: CsrGraph,
    layout: GraphMemoryLayout,
    vertices: List[int],
    rng: random.Random,
    scratch_base: int,
) -> Iterator[AddressEvent]:
    """Degree centrality: one row_ptr pair read + one write per vertex."""
    del scratch_base
    while True:
        for vertex in vertices:
            yield from _edge_events(layout, vertex)
            # Touch the adjacency list too (GraphBIG's DC walks edges to
            # count in+out degree).
            for _, event in _neighbor_events(layout, graph, vertex):
                yield event
            yield layout.property_address("centrality", vertex), True


_KERNELS: Dict[str, Callable[..., Iterator[AddressEvent]]] = {
    "bfs": bfs_kernel,
    "dfs": dfs_kernel,
    "pr": pagerank_kernel,
    "gc": coloring_kernel,
    "tc": triangle_kernel,
    "cc": components_kernel,
    "sp": shortest_path_kernel,
    "dc": degree_centrality_kernel,
}

#: Kernel names in the order the paper's figures list them.
GRAPH_WORKLOADS = ("dfs", "bfs", "gc", "pr", "tc", "cc", "sp", "dc")


def available_kernels() -> List[str]:
    """Names accepted by :func:`generate_graph_trace`."""
    return sorted(_KERNELS)


def _endless(
    make_events: Callable[[int], Iterator[AddressEvent]]
) -> Iterator[AddressEvent]:
    """Restart a finite kernel (fresh state, new seed) to fill any length."""
    round_index = 0
    while True:
        yield from make_events(round_index)
        round_index += 1


def generate_graph_trace(
    kernel: str,
    graph: "CsrGraph" = None,
    num_cores: int = 4,
    max_accesses: int = 200_000,
    seed: int = 7,
    graph_scale: float = 0.25,
    property_bytes: int = 64,
) -> Trace:
    """Run ``kernel`` over ``graph`` and return the interleaved trace.

    Args:
        kernel: One of :data:`GRAPH_WORKLOADS`.
        graph: The graph to traverse; a GitHub-like synthetic graph at
            ``graph_scale`` is generated when omitted.
        num_cores: Thread/core count; vertices are partitioned round-robin,
            so every core needs at least one vertex.
        max_accesses: Total trace length across all cores.
        seed: Seed for per-core RNGs, and for the generated graph when
            ``graph`` is omitted.
        graph_scale: Scale passed to :func:`github_like_graph` when no
            graph is supplied.
        property_bytes: Size of each per-vertex property record.  GraphBIG
            stores fat vertex-property objects, so the default is one cache
            line per vertex per property — this is what gives graph
            workloads their large, irregular footprints.

    Raises:
        ValueError: For an unknown kernel, or ``num_cores`` outside
            ``[1, graph.num_vertices]``: a core without vertices emits
            nothing, and its stream could never be filled.
    """
    try:
        kernel_fn = _KERNELS[kernel]
    except KeyError:
        known = ", ".join(available_kernels())
        raise ValueError(f"unknown graph kernel {kernel!r}; expected one of: {known}")
    if num_cores < 1:
        raise ValueError(f"num_cores must be >= 1, got {num_cores}")
    if graph is None:
        graph = github_like_graph(scale=graph_scale, seed=seed)
    if num_cores > graph.num_vertices:
        raise ValueError(
            f"num_cores ({num_cores}) exceeds the graph's {graph.num_vertices} vertices"
        )
    layout = GraphMemoryLayout(graph, property_bytes=property_bytes)
    # Pre-allocate every property array the kernels use so all cores share
    # the same addresses (threads share the data structures).
    for prop in ("visited", "rank", "rank_next", "out_degree", "color",
                 "triangles", "label", "dist", "centrality"):
        layout.property_array(prop)
    per_core = max(1, max_accesses // num_cores)
    streams: List[List[MemoryAccess]] = []
    for core in range(num_cores):
        vertices = list(range(core, graph.num_vertices, num_cores))
        scratch = layout.allocator.alloc(f"scratch[{core}]", 64 * 1024)

        def make_events(round_index: int, core=core, vertices=vertices, scratch=scratch):
            rng = random.Random(seed * 1000 + core + round_index * 77)
            return kernel_fn(graph, layout, vertices, rng, scratch)

        events = _endless(make_events)
        stream = [
            MemoryAccess(address, AccessType.WRITE if is_write else AccessType.READ, core)
            for address, is_write in itertools.islice(events, per_core)
        ]
        streams.append(stream)
    accesses = interleave(streams)
    return Trace(
        name=kernel,
        accesses=accesses,
        metadata={
            "kernel": kernel,
            "num_cores": num_cores,
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
            "seed": seed,
            "footprint_bytes": layout.footprint_bytes,
        },
    )
