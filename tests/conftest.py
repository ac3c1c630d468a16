"""Shared fixtures: small configurations and traces for fast tests."""

from __future__ import annotations

import random

import pytest

from repro.mem.access import AccessType, MemoryAccess
from repro.sim.config import SimulationConfig, small_test_config
from repro.workloads.graph import preferential_attachment_graph
from repro.workloads.graph_algos import generate_graph_trace


@pytest.fixture(autouse=True)
def _hermetic_exec_env(monkeypatch):
    """Insulate every test from ambient execution knobs.

    The suite's fixtures assert exact trace lengths and serial behaviour,
    so an outer ``REPRO_QUICK=1`` (e.g. the CI workflow) or ``REPRO_JOBS``
    must not leak in.  Explicit exec-option overrides and observability
    state (span recorder, enabled override) are also dropped between
    tests.
    """
    from repro import obs
    from repro.exec import reset_options

    for var in ("REPRO_QUICK", "REPRO_JOBS", "REPRO_NO_CACHE", "REPRO_JOB_TIMEOUT",
                "REPRO_TRACE_LEN", "REPRO_GRAPH_SCALE", "REPRO_CACHE_DIR",
                "REPRO_OBS", "REPRO_OBS_INTERVAL", "REPRO_LOG", "REPRO_NO_TICKER",
                "REPRO_JOBS_CAP"):
        monkeypatch.delenv(var, raising=False)
    reset_options()
    obs.reset()
    yield
    reset_options()
    obs.reset()


@pytest.fixture
def tiny_config() -> SimulationConfig:
    """A single-core configuration with very small caches."""
    return small_test_config(num_cores=1)


@pytest.fixture
def quad_config() -> SimulationConfig:
    """A four-core configuration with very small caches."""
    return small_test_config(num_cores=4)


@pytest.fixture(scope="session")
def small_graph():
    """A small scale-free graph reused across tests."""
    return preferential_attachment_graph(600, edges_per_vertex=4, seed=3)


@pytest.fixture(scope="session")
def dfs_trace(small_graph):
    """A short single-core DFS trace over the small graph."""
    return generate_graph_trace(
        "dfs", graph=small_graph, num_cores=1, max_accesses=6000, seed=5
    )


def random_trace(n: int, footprint_blocks: int, write_fraction: float = 0.3,
                 seed: int = 0, cores: int = 1):
    """Uniform-random synthetic accesses (helper, not a fixture)."""
    rng = random.Random(seed)
    accesses = []
    for index in range(n):
        address = rng.randrange(footprint_blocks) * 64
        kind = AccessType.WRITE if rng.random() < write_fraction else AccessType.READ
        accesses.append(MemoryAccess(address, kind, index % cores))
    return accesses
