"""Pinned sha256 digests of every graph kernel's trace.

The graph builders (``preferential_attachment_graph`` and
``GraphMemoryLayout``'s edge-slot permutation) may be rewritten for speed,
but the traces they feed into the figures must stay bit-identical.  These
digests were recorded from the reference implementation; a mismatch means
a trace changed, not that the pin needs refreshing.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.workloads.graph import preferential_attachment_graph
from repro.workloads.graph_algos import GRAPH_WORKLOADS, generate_graph_trace

#: ``generate_graph_trace(kernel, num_cores=cores, max_accesses=5000,
#: seed=7, graph_scale=0.5)`` with the default (generated) graph.
KERNEL_PINS = {
    ("dfs", 4): "5c3a58ac516cc0b34b9dddb13504359681b95275133cfd421b54790785c66d79",
    ("bfs", 4): "4485047f9183325964e4c6fd93fab6bb8898c6805d33e79d8efef89b3e3cf5de",
    ("gc", 4): "04307bd214e2ede7554c237b900caa6849f43fef9ce896458c9d3f43b5004132",
    ("pr", 4): "0a5381730812aa3b80ca8b07151111e7484835627cb6a94bada45d96bfbc3152",
    ("tc", 4): "3dddb50fb30c027391ae27ac8bb06154ffdecf6768455fe7c9c89c53bdbeebe9",
    ("cc", 4): "eda7fc5550966044064d8b29f6443b5d3a8cb99e127c86856fe1274a2fb3d15e",
    ("sp", 4): "ae2ee8606b19f21fe0cbb77ec665f132360111bc4c7cd183fa380a798da8168a",
    ("dc", 4): "8ab7ca129d3ef97d5fc2dde43bdd092dd51addea40316d094765f3062121da3b",
    ("dfs", 8): "b5a8b4a6c282a2e44fc5e9c159a05a0aaca558dcb6db2c47a46a02f9e6dda0df",
    ("bfs", 8): "c271ca071b31b117edcffd9db081df5b19c542264fc0699ed954bb9dfc5885bc",
    ("gc", 8): "549ab3947aeb4a979d471fa30d083a5f0d28b9de11d421dd764af319eeea3f3d",
    ("pr", 8): "c33a223fd206ad5ca15ddd4275059391a333a02516011ba915649058b9658bc1",
    ("tc", 8): "da3fea852449c26b0752f559cc5dcb3726f1f6c522254ccb37aeac3403d6e5ce",
    ("cc", 8): "37c67cc3213458db0d2e3a624dd70e8cb3e5b9ea80a65ebdd8e5893f2b7db87d",
    ("sp", 8): "d128c555619700ca3b92d2f3e2aac2d0b09a793cf8a0fef534aa3368a38f2573",
    ("dc", 8): "ed2f8f1f000ca60ceecbeb7a48dd55fda386d8e48696bf45d36b7e66d014902b",
}


def trace_digest(trace) -> str:
    """sha256 over the packed block addresses, access types and cores."""
    arrays = trace.arrays()
    digest = hashlib.sha256()
    for array, dtype in (
        (arrays.block_addresses, "<i8"),
        (arrays.types, "<i1"),
        (arrays.cores, "<i2"),
    ):
        digest.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
    return digest.hexdigest()


def test_every_kernel_is_pinned():
    assert {kernel for kernel, _ in KERNEL_PINS} == set(GRAPH_WORKLOADS)


@pytest.mark.parametrize("kernel,cores", sorted(KERNEL_PINS))
def test_kernel_trace_is_pinned(kernel, cores):
    trace = generate_graph_trace(
        kernel, num_cores=cores, max_accesses=5000, seed=7, graph_scale=0.5)
    assert trace_digest(trace) == KERNEL_PINS[kernel, cores]


def test_perfbench_dfs_trace_is_pinned():
    # The benchmark's graph-dfs cell at seed 1 (perfbench/run.py).
    trace = generate_graph_trace(
        "dfs", num_cores=4, max_accesses=20_000, seed=1, graph_scale=4.0)
    assert trace_digest(trace) == (
        "8b11a5dcad340658a688bf08ebc1699f777d9175bf0f26cc09f55182a94cb75f")


def test_unshuffled_csr_is_pinned():
    graph = preferential_attachment_graph(2000, seed=4, shuffle_labels=False)
    blob = json.dumps([graph.row_ptr, graph.col_idx], separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "dcb4c4cf2e5f879b9973af0b93f2ec79ed3c9687870e8c58adca18233ea59ef6")
