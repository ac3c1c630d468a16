"""Unit tests for the graph kernel trace generators."""

import pytest

from repro.workloads.graph import preferential_attachment_graph
from repro.workloads.graph_algos import (
    GRAPH_WORKLOADS,
    available_kernels,
    generate_graph_trace,
)


@pytest.fixture(scope="module")
def graph():
    return preferential_attachment_graph(500, edges_per_vertex=4, seed=11)


def test_all_paper_kernels_available():
    assert set(GRAPH_WORKLOADS) == {"dfs", "bfs", "gc", "pr", "tc", "cc", "sp", "dc"}
    assert set(available_kernels()) == set(GRAPH_WORKLOADS)


@pytest.mark.parametrize("kernel", GRAPH_WORKLOADS)
def test_every_kernel_generates_requested_length(kernel, graph):
    trace = generate_graph_trace(kernel, graph=graph, num_cores=2, max_accesses=4000)
    assert len(trace) == 4000
    assert trace.name == kernel


def test_unknown_kernel_rejected():
    with pytest.raises(ValueError):
        generate_graph_trace("kcore")


@pytest.mark.parametrize("kernel", GRAPH_WORKLOADS)
def test_more_cores_than_vertices_rejected(kernel):
    # A core with an empty vertex partition emits nothing, so its stream
    # could never be filled: without the check this call never returns.
    tiny = preferential_attachment_graph(3, edges_per_vertex=1, seed=1)
    with pytest.raises(ValueError, match="num_cores"):
        generate_graph_trace(kernel, graph=tiny, num_cores=4, max_accesses=40)
    assert len(generate_graph_trace(kernel, graph=tiny, num_cores=3, max_accesses=40)) == 39


@pytest.mark.parametrize("num_cores", [0, -1])
def test_core_count_below_one_rejected(num_cores, graph):
    with pytest.raises(ValueError, match="num_cores"):
        generate_graph_trace("dfs", graph=graph, num_cores=num_cores, max_accesses=40)


def test_multicore_interleaving(graph):
    trace = generate_graph_trace("bfs", graph=graph, num_cores=4, max_accesses=4000)
    counts = trace.core_counts()
    assert set(counts) == {0, 1, 2, 3}
    assert min(counts.values()) == max(counts.values())
    # Round-robin: the first four records come from four different cores.
    assert {access.core for access in trace.accesses[:4]} == {0, 1, 2, 3}


def test_deterministic_generation(graph):
    a = generate_graph_trace("dfs", graph=graph, num_cores=2, max_accesses=2000, seed=3)
    b = generate_graph_trace("dfs", graph=graph, num_cores=2, max_accesses=2000, seed=3)
    assert [x.address for x in a] == [x.address for x in b]


def test_seed_changes_trace(graph):
    a = generate_graph_trace("dfs", graph=graph, num_cores=1, max_accesses=2000, seed=3)
    b = generate_graph_trace("dfs", graph=graph, num_cores=1, max_accesses=2000, seed=4)
    assert [x.address for x in a] != [x.address for x in b]


def test_traces_mix_reads_and_writes(graph):
    for kernel in ("dfs", "bfs", "sp", "gc"):
        trace = generate_graph_trace(kernel, graph=graph, num_cores=1, max_accesses=3000)
        assert 0.0 < trace.write_fraction < 0.9, kernel


def test_metadata_recorded(graph):
    trace = generate_graph_trace("pr", graph=graph, num_cores=2, max_accesses=1000)
    assert trace.metadata["kernel"] == "pr"
    assert trace.metadata["vertices"] == graph.num_vertices
    assert trace.metadata["footprint_bytes"] > 0


def test_kernels_restart_to_fill_length(graph):
    # DC over 500 vertices produces a short pass; the driver must restart
    # the kernel to reach the requested length.
    trace = generate_graph_trace("dc", graph=graph, num_cores=1, max_accesses=50_000)
    assert len(trace) == 50_000


def test_irregularity_of_graph_traces(graph):
    """Graph traces must touch many distinct blocks (low spatial reuse)."""
    trace = generate_graph_trace("dfs", graph=graph, num_cores=1, max_accesses=5000)
    assert trace.footprint_blocks() > 800


def test_tc_emits_binary_search_probes(graph):
    trace = generate_graph_trace("tc", graph=graph, num_cores=1, max_accesses=5000)
    assert len(trace) == 5000  # enough adjacency probes to fill the budget
