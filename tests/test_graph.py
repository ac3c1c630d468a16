"""Unit tests for graph synthesis and the graph memory layout."""

import hashlib
import json

import pytest

from repro.workloads.graph import (
    CsrGraph,
    GraphMemoryLayout,
    degree_skew,
    github_like_graph,
    preferential_attachment_graph,
)


class TestGraphGeneration:
    def test_symmetric_edges(self):
        graph = preferential_attachment_graph(200, edges_per_vertex=3, seed=1)
        for vertex in range(graph.num_vertices):
            for neighbor in graph.neighbors(vertex):
                assert vertex in graph.neighbors(neighbor)

    def test_heavy_tail(self):
        graph = preferential_attachment_graph(2000, edges_per_vertex=4, seed=2)
        # Top 1% of vertices should own a disproportionate share of edges.
        assert degree_skew(graph, 0.01) > 0.03

    def test_deterministic_with_seed(self):
        a = preferential_attachment_graph(300, seed=9)
        b = preferential_attachment_graph(300, seed=9)
        assert a.col_idx == b.col_idx

    def test_different_seeds_differ(self):
        a = preferential_attachment_graph(300, seed=1)
        b = preferential_attachment_graph(300, seed=2)
        assert a.col_idx != b.col_idx

    def test_label_shuffle_scatters_hubs(self):
        clustered = preferential_attachment_graph(2000, seed=4, shuffle_labels=False)
        shuffled = preferential_attachment_graph(2000, seed=4, shuffle_labels=True)
        # Without shuffling, hubs concentrate at low ids.
        low_degree_clustered = sum(clustered.degree(v) for v in range(100))
        low_degree_shuffled = sum(shuffled.degree(v) for v in range(100))
        assert low_degree_clustered > low_degree_shuffled

    def test_github_like_scale(self):
        graph = github_like_graph(scale=0.01, seed=1)
        assert graph.num_vertices >= 64
        full = github_like_graph(scale=0.02, seed=1)
        assert full.num_vertices > graph.num_vertices

    def test_github_like_csr_is_pinned(self):
        # Every graph workload's trace derives from this CSR; a generator
        # edit that shifts the RNG stream or the edge order changes it.
        graph = github_like_graph(scale=0.5, seed=7)
        blob = json.dumps([graph.row_ptr, graph.col_idx], separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "e9bfe8cfec25a6c29e7282a92751329e67cb4af2cb9aeecc463ebac5afe80435")

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            preferential_attachment_graph(1)
        with pytest.raises(ValueError):
            preferential_attachment_graph(10, edges_per_vertex=0)


class TestCsrGraph:
    def test_degree_and_neighbors(self):
        graph = CsrGraph(row_ptr=[0, 2, 3, 3], col_idx=[1, 2, 0])
        assert graph.num_vertices == 3
        assert graph.num_edges == 3
        assert list(graph.neighbors(0)) == [1, 2]
        assert graph.degree(1) == 1
        assert graph.degree(2) == 0


class TestLayout:
    def graph(self):
        return preferential_attachment_graph(300, edges_per_vertex=3, seed=5)

    def test_property_arrays_distinct(self):
        layout = GraphMemoryLayout(self.graph())
        a = layout.property_array("visited")
        b = layout.property_array("rank")
        assert a != b
        assert layout.property_array("visited") == a  # cached

    def test_property_addresses_strided(self):
        layout = GraphMemoryLayout(self.graph(), property_bytes=64)
        assert (
            layout.property_address("visited", 1)
            - layout.property_address("visited", 0)
            == 64
        )

    def test_scattered_edges_break_sequentiality(self):
        graph = self.graph()
        scattered = GraphMemoryLayout(graph, scatter_edges=True, seed=7)
        sequential_pairs = sum(
            1
            for edge in range(graph.num_edges - 1)
            if abs(scattered.col_idx_address(edge + 1) - scattered.col_idx_address(edge))
            == scattered.edge_record_bytes
        )
        assert sequential_pairs < graph.num_edges * 0.05

    def test_compact_edges_are_sequential(self):
        layout = GraphMemoryLayout(self.graph(), scatter_edges=False)
        assert layout.col_idx_address(1) - layout.col_idx_address(0) == layout.index_bytes

    def test_scatter_is_a_permutation(self):
        graph = self.graph()
        layout = GraphMemoryLayout(graph, scatter_edges=True)
        addresses = {layout.col_idx_address(edge) for edge in range(graph.num_edges)}
        assert len(addresses) == graph.num_edges

    def test_row_ptr_addresses(self):
        layout = GraphMemoryLayout(self.graph())
        assert layout.row_ptr_address(1) - layout.row_ptr_address(0) == layout.offset_bytes

    def test_footprint_grows_with_properties(self):
        layout = GraphMemoryLayout(self.graph())
        before = layout.footprint_bytes
        layout.property_array("new_prop")
        assert layout.footprint_bytes > before


def test_degree_skew_validates_fraction():
    graph = preferential_attachment_graph(100, seed=1)
    with pytest.raises(ValueError):
        degree_skew(graph, 0.0)
