"""Top-level simulation configuration reproducing the paper's Table 3."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from ..core.config import CosmosConfig
from ..mem.hierarchy import HierarchyConfig, LevelConfig
from ..secure.engine import EngineConfig


@dataclass
class CpuModel:
    """Constants for the trace-driven IPC proxy.

    The paper simulates a 4-core out-of-order X86 at 3 GHz; we substitute a
    latency-accounting model (DESIGN.md, substitution 1):

    * each trace record is one memory instruction accompanied by
      ``nonmem_instructions_per_access`` single-cycle instructions,
    * memory latency is divided by ``mlp_factor`` to credit the overlap an
      OoO core extracts across outstanding misses, and
    * every DRAM request serialises for
      ``dram_bandwidth_cycles_per_request`` cycles on the shared channel —
      this is what makes wasted speculative fetches and Merkle-tree node
      reads expensive, as in the paper's Figure 2 traffic analysis.
    """

    frequency_ghz: float = 3.0
    nonmem_instructions_per_access: int = 3
    mlp_factor: float = 4.0
    dram_bandwidth_cycles_per_request: float = 6.0


@dataclass
class SimulationConfig:
    """Everything needed to instantiate a design and run a trace.

    Defaults mirror Table 3: 4 cores, 32KB/1MB/8MB caches, DDR4 32GB,
    MorphCtr counters with a 512KB LRU CTR cache, and the LCR-CTR cache
    (128KB per core) for the COSMOS variants.
    """

    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    memory_bytes: int = 32 * 1024**3
    counter_scheme: str = "morphctr"
    engine: EngineConfig = field(default_factory=EngineConfig)
    cosmos: CosmosConfig = field(default_factory=CosmosConfig)
    cpu: CpuModel = field(default_factory=CpuModel)

    def with_cores(self, num_cores: int, scale_llc: bool = True) -> "SimulationConfig":
        """A copy configured for ``num_cores`` (paper Fig. 15: 8-core/16MB).

        Args:
            num_cores: Core count for the new configuration.
            scale_llc: Give the shared LLC an absolute 2MB per core, as the
                paper does for its 8-core experiment; see
                :meth:`HierarchyConfig.scaled_llc_for_cores`.
        """
        hierarchy = replace(self.hierarchy, num_cores=num_cores)
        if scale_llc:
            hierarchy = hierarchy.scaled_llc_for_cores()
        return replace(self, hierarchy=hierarchy)

    def with_ctr_cache_bytes(self, size_bytes: int) -> "SimulationConfig":
        """A copy with a different baseline CTR-cache capacity (Fig. 3).

        ``dataclasses.replace`` keeps every other field and engine knob
        (policy and prefetcher names, MAC placement) — a field-by-field
        rebuild here once silently dropped new fields.
        """
        return replace(self, engine=replace(self.engine, ctr_cache_bytes=size_bytes))


def scaled_paper_config(scale: int = 16, num_cores: int = 4) -> SimulationConfig:
    """Table 3 with every capacity divided by ``scale`` (latencies kept).

    The paper's experiments run hundreds of millions of instructions on
    Gem5; a pure-Python trace simulator cannot.  Dividing every cache,
    CTR-cache and CET capacity by the same factor — while workload
    footprints shrink by roughly the same factor — preserves the capacity
    ratios that drive the paper's behaviour (footprint >> CTR-cache
    coverage, CTR cache ~ LLC/16), so miss-rate and speedup *shapes* carry
    over.  EXPERIMENTS.md documents this substitution.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    hierarchy = HierarchyConfig(
        num_cores=num_cores,
        l1=LevelConfig(max(2048, 32 * 1024 // scale), 2, 2),
        l2=LevelConfig(max(8192, 1024 * 1024 // scale), 8, 20),
        llc=LevelConfig(max(32768, 8 * 1024 * 1024 // scale), 16, 128),
    )
    engine = EngineConfig(
        ctr_cache_bytes=max(4096, 512 * 1024 // scale),
        mt_cache_bytes=max(4096, 128 * 1024 // scale),
    )
    # CET entries scale less aggressively than capacities: reuse windows in
    # the scaled traces do not shrink proportionally.  2048 at scale 16 is
    # the optimum of our own CET design-space sweep (the Figure 9
    # reproduction), mirroring how the paper picked its 8192.
    cosmos = CosmosConfig(
        lcr_cache_bytes=max(2048, 512 * 1024 // scale),
        cet_entries=max(256, 8192 // max(1, scale // 4)),
    )
    return SimulationConfig(
        hierarchy=hierarchy,
        memory_bytes=max(4 * 1024**3, 32 * 1024**3 // scale),
        engine=engine,
        cosmos=cosmos,
    )


def small_test_config(num_cores: int = 1) -> SimulationConfig:
    """A deliberately tiny configuration for fast unit tests.

    Shrinks every cache so that miss behaviour appears within a few
    thousand accesses instead of millions.
    """
    hierarchy = HierarchyConfig(
        num_cores=num_cores,
        l1=LevelConfig(4 * 1024, 2, 2),
        l2=LevelConfig(16 * 1024, 4, 20),
        llc=LevelConfig(64 * 1024, 8, 128),
    )
    engine = EngineConfig(ctr_cache_bytes=8 * 1024, mt_cache_bytes=4 * 1024)
    cosmos = CosmosConfig(lcr_cache_bytes=4 * 1024, cet_entries=512)
    return SimulationConfig(
        hierarchy=hierarchy,
        # Generous address space: workload heaps start at 256MB and the
        # layout only does address arithmetic, so this costs nothing.
        memory_bytes=4 * 1024**3,
        engine=engine,
        cosmos=cosmos,
    )
