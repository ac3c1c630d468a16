"""COSMOS reproduction: RL-enhanced counter-cache optimization for secure memory.

This package reimplements, in pure Python, the full system described in
*COSMOS: RL-Enhanced Locality-Aware Counter Cache Optimization for Secure
Memory* (MICRO 2025) and every substrate its evaluation depends on: a
multi-core cache hierarchy, a DDR4 model, an AES-CTR + MAC + Merkle-tree
secure-memory engine with MorphCtr counters, the COSMOS RL predictors and
LCR-CTR cache, the comparator designs (EMCC, RMCC), and trace generators
for the paper's graph, SPEC and ML workloads.

Quickstart::

    from repro import generate_graph_trace, simulate, SimulationConfig

    trace = generate_graph_trace("dfs", max_accesses=100_000)
    baseline = simulate("morphctr", trace, workload="dfs")
    cosmos = simulate("cosmos", trace, workload="dfs")
    print(cosmos.speedup_over(baseline))
"""

from .core import (
    CosmosConfig,
    CosmosController,
    CosmosVariant,
    CtrLocalityPredictor,
    DataLocationPredictor,
    compute_overhead,
)
from .mem import (
    AccessType,
    Cache,
    DramModel,
    HierarchyConfig,
    MemoryAccess,
    MemoryHierarchy,
)
from .secure import (
    AesCtrEngine,
    MerkleTree,
    MorphCtrCounters,
    SecureLayout,
    SecureMemoryEngine,
    make_design,
)
from .sim import (
    SimulationConfig,
    SimulationResult,
    Simulator,
    simulate,
    smat,
)
from .exec import (
    JobSpec,
    ParallelRunner,
    ResultCache,
)
from .workloads import (
    GRAPH_WORKLOADS,
    ML_WORKLOADS,
    SPEC_WORKLOADS,
    Trace,
    generate_graph_trace,
    generate_ml_trace,
    generate_spec_trace,
)

__version__ = "1.0.0"

__all__ = [
    "AccessType",
    "AesCtrEngine",
    "Cache",
    "CosmosConfig",
    "CosmosController",
    "CosmosVariant",
    "CtrLocalityPredictor",
    "DataLocationPredictor",
    "DramModel",
    "GRAPH_WORKLOADS",
    "HierarchyConfig",
    "JobSpec",
    "ML_WORKLOADS",
    "MemoryAccess",
    "MemoryHierarchy",
    "MerkleTree",
    "MorphCtrCounters",
    "ParallelRunner",
    "ResultCache",
    "SPEC_WORKLOADS",
    "SecureLayout",
    "SecureMemoryEngine",
    "SimulationConfig",
    "SimulationResult",
    "Simulator",
    "Trace",
    "compute_overhead",
    "generate_graph_trace",
    "generate_ml_trace",
    "generate_spec_trace",
    "make_design",
    "simulate",
    "smat",
    "__version__",
]
