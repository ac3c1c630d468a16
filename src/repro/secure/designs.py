"""Secure-memory designs evaluated in the paper.

Each design owns a cache hierarchy plus (except for the non-protected
baseline) a :class:`~repro.secure.engine.SecureMemoryEngine`, and maps one
trace access to its end-to-end latency in cycles.  The designs differ in
*where* the counter is accessed and *how* the CTR cache is managed:

==================  ==========================  =======================
Design              CTR access point            CTR cache
==================  ==========================  =======================
``np``              none (no protection)        none
``morphctr``        after LLC miss              512KB LRU
``early``           after every L1 miss         512KB LRU (Fig. 4 ideal)
``emcc``            after every L1 miss         512KB LRU (at L2 level)
``rmcc``            after LLC miss              512KB LRU + hot-CTR memo
``cosmos-dp``       predicted-off L1 misses     512KB LRU
``cosmos-cp``       after LLC miss              LCR + RL tags
``cosmos``          predicted-off L1 misses     LCR + RL tags
``cosmos-early``    every L1 miss + bypass      LCR + RL tags (extension)
``synergy``         after LLC miss              512KB LRU, MAC-in-ECC
``cosmos-synergy``  predicted-off L1 misses     LCR, MAC-in-ECC
==================  ==========================  =======================

LCR-CTR capacity follows ``CosmosConfig.lcr_cache_bytes`` (512KB total
under the per-core reading of the paper's 128KB; see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional

from ..core.config import CosmosConfig
from ..core.cosmos import CosmosController, CosmosVariant
from ..core.lcr_cache import LcrReplacementPolicy
from ..core.location_predictor import OFF_CHIP
from ..mem.access import MemoryAccess
from ..mem.dram import DramModel
from ..mem.hierarchy import HierarchyConfig, MemoryHierarchy
from ..mem.stats import TrafficStats
from .counters import make_counter_scheme
from .engine import EngineConfig, SecureMemoryEngine
from .layout import SecureLayout


@dataclass(slots=True)
class DesignStats:
    """Per-design event counters beyond what substrates already track."""

    accesses: int = 0
    l1_misses: int = 0
    llc_misses: int = 0
    bypasses: int = 0
    killed_fetches: int = 0
    fallback_fetches: int = 0

    @property
    def bypass_fraction(self) -> float:
        """Fraction of L1 misses served by the L1->DRAM bypass (Sec. 6.1.3)."""
        if self.l1_misses == 0:
            return 0.0
        return self.bypasses / self.l1_misses


class SecureDesign:
    """Common scaffolding: hierarchy ownership and the access loop hook.

    Subclasses implement :meth:`process_fast`, the scalar hot path taking
    ``(block_address, is_write, core)`` directly; the object-based
    :meth:`process` API is a thin adapter kept for external callers and
    tests.  The simulator's array fast path calls ``process_fast`` with
    pre-shifted block addresses, so the dominant L1-hit case runs without
    any per-access heap allocation.
    """

    name = "base"
    is_protected = True

    def __init__(
        self,
        hierarchy_config: Optional[HierarchyConfig] = None,
        layout: Optional[SecureLayout] = None,
    ) -> None:
        self.hierarchy_config = (
            hierarchy_config if hierarchy_config is not None else HierarchyConfig()
        )
        self.layout = (
            layout if layout is not None else SecureLayout.for_memory_size(32 * 1024**3)
        )
        self.hierarchy = MemoryHierarchy(
            self.hierarchy_config,
            memory_write_sink=self._on_writeback,
            prefetch_fill_sink=self._on_prefetch_fill,
        )
        self.stats = DesignStats()
        self._l1_latency = self.hierarchy_config.l1.latency
        # Program-order issue clock: every access reads the cursor, issues
        # its DRAM requests at that cycle, and advances it by its own
        # latency.  Background requests (writebacks, MT walks, MAC lines)
        # issued mid-access therefore overlap across banks at the same
        # ``now`` and can keep banks/bus busy *past* it — the next access
        # queues behind them, which is the bank-level contention model.
        # Monotonic across reset_stats() (warmup keeps the clock running).
        self._now = 0

    def _on_writeback(self, block_address: int) -> None:
        raise NotImplementedError

    def _on_prefetch_fill(self, block_address: int) -> None:
        """Charge a hardware-prefetch fill from memory (traffic only)."""
        raise NotImplementedError

    def process(self, access: MemoryAccess) -> int:
        """Run one access through the design; returns latency in cycles."""
        return self.process_fast(access.block_address, access.is_write, access.core)

    def process_fast(self, block_address: int, is_write: bool, core: int) -> int:
        """Scalar hot path: one access as plain scalars; returns cycles."""
        raise NotImplementedError

    def traffic(self) -> TrafficStats:
        """DRAM traffic breakdown accumulated so far."""
        raise NotImplementedError

    def dram_model(self) -> Optional[DramModel]:
        """The DRAM channel this design drives (None when it has none).

        The simulator reads measured channel occupancy from here for the
        bandwidth-serialisation term of the IPC proxy.
        """
        return None

    def ctr_miss_rate(self) -> float:
        """CTR-cache miss rate (0.0 for unprotected designs)."""
        return 0.0

    def reset_stats(self) -> None:
        """Zero every statistic while keeping all learned/cached state.

        Used for warmup: caches stay populated, Q-tables stay trained, but
        the measurement window starts fresh.
        """
        self.stats = DesignStats()
        for cache in self.hierarchy.l1:
            cache.stats.reset()
        for cache in self.hierarchy.l2:
            cache.stats.reset()
        self.hierarchy.llc.stats.reset()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def obs_counters(self) -> Dict[str, int]:
        """Cumulative counters snapshotted per observability window.

        Read by :class:`~repro.obs.timeseries.SimSampler` every N accesses
        — never from the per-access loop — so this can stay a plain dict
        build.  Subclasses extend with their substrate's counters.
        """
        stats = self.stats
        return {
            "accesses": stats.accesses,
            "l1_misses": stats.l1_misses,
            "llc_misses": stats.llc_misses,
            "bypasses": stats.bypasses,
        }

    def obs_probes(self) -> Dict[str, Callable[[], float]]:
        """Custom per-design gauges sampled once per observability window."""
        return {}


class NonProtectedDesign(SecureDesign):
    """Plain memory system: no encryption, no counters, no MT."""

    name = "np"
    is_protected = False

    def __init__(
        self,
        hierarchy_config: Optional[HierarchyConfig] = None,
        layout: Optional[SecureLayout] = None,
    ) -> None:
        super().__init__(hierarchy_config, layout)
        self.dram = DramModel()
        self._traffic = TrafficStats()

    def _on_writeback(self, block_address: int) -> None:
        self._traffic.data_writes += 1
        self.dram.request(block_address, is_write=True, now=self._now)

    def _on_prefetch_fill(self, block_address: int) -> None:
        self._traffic.data_reads += 1
        self.dram.request(block_address, now=self._now)

    def reset_stats(self) -> None:
        super().reset_stats()
        self._traffic.reset()
        self.dram.reset_stats()

    def obs_counters(self) -> Dict[str, int]:
        counters = super().obs_counters()
        dram = self.dram.stats
        counters["dram_requests"] = dram.requests
        counters["dram_row_hits"] = dram.row_hits
        counters["dram_writes"] = dram.writes
        counters["dram_queue_cycles"] = dram.queue_cycles
        return counters

    def process_fast(self, block_address: int, is_write: bool, core: int) -> int:
        stats = self.stats
        stats.accesses += 1
        now = self._now
        result = self.hierarchy.access_block(block_address, is_write, core)
        if result.l1_miss:
            stats.l1_misses += 1
        if not result.needs_memory:
            self._now = now + 1 + result.lookup_latency
            return result.lookup_latency
        stats.llc_misses += 1
        self._traffic.data_reads += 1
        latency = result.lookup_latency + self.dram.request(block_address, now=now)
        self._now = now + 1 + latency
        return latency

    def traffic(self) -> TrafficStats:
        return self._traffic

    def dram_model(self) -> Optional[DramModel]:
        return self.dram


class ProtectedDesign(SecureDesign):
    """Base for every AES-CTR protected design; owns the engine."""

    name = "protected"

    def __init__(
        self,
        hierarchy_config: Optional[HierarchyConfig] = None,
        layout: Optional[SecureLayout] = None,
        engine_config: Optional[EngineConfig] = None,
        counter_scheme: str = "morphctr",
    ) -> None:
        super().__init__(hierarchy_config, layout)
        self.engine = SecureMemoryEngine(
            self.layout,
            scheme=make_counter_scheme(counter_scheme),
            config=engine_config,
            ctr_policy=self._make_ctr_policy(),
        )

    def _make_ctr_policy(self):
        """Policy for the CTR cache; None selects the default LRU."""
        return None

    def _on_writeback(self, block_address: int) -> None:
        self.engine.secure_write(block_address, now=self._now)

    def _on_prefetch_fill(self, block_address: int) -> None:
        # A prefetched line still needs its counter for decryption: the
        # fetch and the CTR path are charged as background traffic.
        self.engine.read_data(block_address, now=self._now)
        self.engine.ctr_access(block_address, now=self._now)

    def reset_stats(self) -> None:
        super().reset_stats()
        engine = self.engine
        engine.traffic.reset()
        engine.events = type(engine.events)()
        engine.ctr_cache.stats = type(engine.ctr_cache.stats)()
        engine.ctr_cache.cache.stats.reset()
        engine.integrity.stats = type(engine.integrity.stats)()
        if engine.integrity.node_cache is not None:
            engine.integrity.node_cache.stats.reset()
        engine.dram.reset_stats()

    def traffic(self) -> TrafficStats:
        return self.engine.traffic

    def dram_model(self) -> Optional[DramModel]:
        return self.engine.dram

    def ctr_miss_rate(self) -> float:
        return self.engine.ctr_miss_rate

    def obs_counters(self) -> Dict[str, int]:
        counters = super().obs_counters()
        engine = self.engine
        ctr = engine.ctr_cache.stats
        mt = engine.integrity.stats
        dram = engine.dram.stats
        counters.update(
            ctr_hits=ctr.hits,
            ctr_misses=ctr.misses,
            mt_traversals=mt.traversals,
            mt_nodes_fetched=mt.nodes_fetched,
            dram_requests=dram.requests,
            dram_row_hits=dram.row_hits,
            dram_writes=dram.writes,
            dram_queue_cycles=dram.queue_cycles,
            ctr_overflows=engine.events.ctr_overflows,
            writes_seen=engine.events.writes_seen,
            reencryption_requests=engine.traffic.reencryption_requests,
        )
        return counters

    # ------------------------------------------------------------------
    # Shared latency formulas
    # ------------------------------------------------------------------
    def _memory_latency_sequential(self, block: int, lookup_latency: int, now: int) -> int:
        """Baseline path: CTR access starts only after the LLC miss."""
        _, ctr_latency = self.engine.ctr_access(block, now=now)
        data_latency = self.engine.read_data(block, now=now)
        otp_ready = self.engine.decrypt_ready_latency(ctr_latency)
        return lookup_latency + max(data_latency, otp_ready) + self.engine.config.auth_latency


class MorphCtrDesign(ProtectedDesign):
    """The paper's baseline: MorphCtr counters, CTR access after LLC miss."""

    name = "morphctr"

    def process_fast(self, block_address: int, is_write: bool, core: int) -> int:
        stats = self.stats
        stats.accesses += 1
        now = self._now
        result = self.hierarchy.access_block(block_address, is_write, core)
        if result.l1_miss:
            stats.l1_misses += 1
        if not result.needs_memory:
            self._now = now + 1 + result.lookup_latency
            return result.lookup_latency
        stats.llc_misses += 1
        latency = self._memory_latency_sequential(
            block_address, result.lookup_latency, now
        )
        self._now = now + 1 + latency
        return latency


class EarlyCtrDesign(ProtectedDesign):
    """Ideal early access: CTR cache probed on *every* L1 miss (Fig. 4).

    The CTR access overlaps the L2/LLC walk, and the CTR cache fills with
    the locality-rich post-L1 stream.  CTR misses for data that turns out
    on-chip still fetch the counter (the paper's +5% read/write traffic).
    """

    name = "early"

    def process_fast(self, block_address: int, is_write: bool, core: int) -> int:
        stats = self.stats
        stats.accesses += 1
        now = self._now
        result = self.hierarchy.access_block(block_address, is_write, core)
        if not result.l1_miss:
            self._now = now + 1 + result.lookup_latency
            return result.lookup_latency
        stats.l1_misses += 1
        _, ctr_latency = self.engine.ctr_access(block_address, now=now)
        if not result.needs_memory:
            self._now = now + 1 + result.lookup_latency
            return result.lookup_latency
        stats.llc_misses += 1
        engine = self.engine
        data_latency = engine.read_data(block_address, now=now)
        data_ready = result.lookup_latency + data_latency
        otp_ready = self._l1_latency + engine.decrypt_ready_latency(ctr_latency)
        latency = max(data_ready, otp_ready) + engine.config.auth_latency
        self._now = now + 1 + latency
        return latency


class EmccDesign(EarlyCtrDesign):
    """EMCC-like comparator: CTR caching embedded at the L2 level.

    Modelled at the same idealisation level as the paper's own EMCC
    implementation (Sec. 6.2): CTR access runs in parallel with L2/LLC/DRAM
    data access, with no extra AES-in-L2 or NoC latencies.
    """

    name = "emcc"


class RmccDesign(ProtectedDesign):
    """RMCC-like comparator: hot counters memoised near the MC.

    Keeps a small frequency-managed memo of the hottest counter lines that
    is probed before the CTR cache; remapping/retention happens only after
    LLC misses, as in RMCC (Sec. 6.2).
    """

    name = "rmcc"

    def __init__(
        self,
        hierarchy_config: Optional[HierarchyConfig] = None,
        layout: Optional[SecureLayout] = None,
        engine_config: Optional[EngineConfig] = None,
        counter_scheme: str = "morphctr",
        memo_entries: int = 1024,
    ) -> None:
        super().__init__(hierarchy_config, layout, engine_config, counter_scheme)
        self.memo_entries = memo_entries
        self._memo_counts: Dict[int, int] = {}
        self._memo: Dict[int, int] = {}
        self.memo_hits = 0

    def _memo_probe(self, block: int) -> bool:
        ctr_index = self.engine.scheme.ctr_index(block)
        count = self._memo_counts.get(ctr_index, 0) + 1
        self._memo_counts[ctr_index] = count
        if ctr_index in self._memo:
            self._memo[ctr_index] = count
            self.memo_hits += 1
            return True
        if len(self._memo) < self.memo_entries:
            self._memo[ctr_index] = count
        else:
            coldest = min(self._memo, key=self._memo.get)
            if count > self._memo[coldest]:
                del self._memo[coldest]
                self._memo[ctr_index] = count
        return False

    def process_fast(self, block_address: int, is_write: bool, core: int) -> int:
        stats = self.stats
        stats.accesses += 1
        now = self._now
        result = self.hierarchy.access_block(block_address, is_write, core)
        if result.l1_miss:
            stats.l1_misses += 1
        if not result.needs_memory:
            self._now = now + 1 + result.lookup_latency
            return result.lookup_latency
        stats.llc_misses += 1
        block = block_address
        if self._memo_probe(block):
            # Memoised counter: the OTP can be produced immediately.
            data_latency = self.engine.read_data(block, now=now)
            otp_ready = self.engine.decrypt_ready_latency(self.engine.config.ctr_lookup_latency)
            latency = (
                result.lookup_latency
                + max(data_latency, otp_ready)
                + self.engine.config.auth_latency
            )
        else:
            latency = self._memory_latency_sequential(block, result.lookup_latency, now)
        self._now = now + 1 + latency
        return latency


class CosmosDesign(ProtectedDesign):
    """COSMOS and its ablations (Table 4), selected by ``variant``.

    With the data predictor active, off-chip-predicted L1 misses launch the
    DRAM fetch and the CTR access straight from L1 (bypassing L2/LLC on the
    data path); mispredictions either kill the speculative fetch (data was
    on-chip) or fall back to the sequential baseline path (data was
    off-chip).  With the CTR predictor active, every CTR access is tagged
    good/bad locality and the CTR cache uses the LCR replacement policy.
    """

    name = "cosmos"

    def __init__(
        self,
        hierarchy_config: Optional[HierarchyConfig] = None,
        layout: Optional[SecureLayout] = None,
        engine_config: Optional[EngineConfig] = None,
        counter_scheme: str = "morphctr",
        cosmos_config: Optional[CosmosConfig] = None,
        variant: Optional[CosmosVariant] = None,
    ) -> None:
        self.cosmos_config = cosmos_config if cosmos_config is not None else CosmosConfig()
        self.variant = variant if variant is not None else CosmosVariant.full()
        self.name = self.variant.name
        if engine_config is None:
            engine_config = EngineConfig()
        if self.variant.ctr_predictor:
            # The CTR cache becomes the LCR-CTR cache (sized per the
            # CosmosConfig; see EXPERIMENTS.md interpretation #1).
            engine_config = replace(
                engine_config,
                ctr_cache_bytes=self.cosmos_config.lcr_cache_bytes,
                ctr_cache_assoc=self.cosmos_config.lcr_cache_assoc,
            )
        super().__init__(hierarchy_config, layout, engine_config, counter_scheme)
        self.controller = CosmosController(self.cosmos_config, self.variant)
        # Predictor reference hoisted for the hot path (None when the
        # variant disables it); reset_stats() swaps its stats object, never
        # the predictor itself, so this stays valid.
        self._location = self.controller.location
        if self.variant.ctr_predictor:
            # The engine tags every CTR access through the controller,
            # which looks the locality predictor's predict up at each call.
            self.engine.ctr_classifier = self.controller.classify_ctr

    def _make_ctr_policy(self):
        if self.variant.ctr_predictor:
            return LcrReplacementPolicy()
        return None

    def reset_stats(self) -> None:
        super().reset_stats()
        controller = self.controller
        if controller.location is not None:
            controller.location.stats = type(controller.location.stats)()
        if controller.locality is not None:
            controller.locality.stats = type(controller.locality.stats)()

    def obs_counters(self) -> Dict[str, int]:
        counters = super().obs_counters()
        counters.update(self.controller.obs_counters())
        return counters

    def obs_probes(self) -> Dict[str, Callable[[], float]]:
        probes = super().obs_probes()
        probes.update(self.controller.obs_probes())
        return probes

    def process_fast(self, block_address: int, is_write: bool, core: int) -> int:
        stats = self.stats
        stats.accesses += 1
        now = self._now
        result = self.hierarchy.access_block(block_address, is_write, core)
        if not result.l1_miss:
            self._now = now + 1 + result.lookup_latency
            return result.lookup_latency
        stats.l1_misses += 1
        block = block_address
        location = self._location
        if location is not None:
            # Fused predict+train: the concurrent walk already revealed
            # the truth, so the prediction is graded in the same call.
            action = location.predict_and_train(block, not result.needs_memory)
            predicted_off = action == OFF_CHIP
        else:
            predicted_off = False
        engine = self.engine
        if predicted_off:
            _, ctr_latency = engine.ctr_access(block, now=now)
            if result.needs_memory:
                # Correct off-chip prediction: bypass L2/LLC on the data path.
                stats.llc_misses += 1
                stats.bypasses += 1
                l1_latency = self._l1_latency
                data_latency = engine.read_data(block, now=now)
                data_ready = l1_latency + data_latency
                otp_ready = l1_latency + engine.decrypt_ready_latency(ctr_latency)
                latency = max(data_ready, otp_ready) + engine.config.auth_latency
                self._now = now + 1 + latency
                return latency
            # Wrong off-chip prediction: kill the speculative DRAM fetch;
            # the CTR access already happened (and usefully warms the
            # cache, Sec. 6.1.2).
            stats.killed_fetches += 1
            self._now = now + 1 + result.lookup_latency
            return result.lookup_latency
        if result.needs_memory:
            # Wrong (or absent) on-chip prediction: sequential fallback.
            stats.llc_misses += 1
            stats.fallback_fetches += 1
            _, ctr_latency = engine.ctr_access(block, now=now)
            data_latency = engine.read_data(block, now=now)
            otp_ready = engine.decrypt_ready_latency(ctr_latency)
            latency = (
                result.lookup_latency
                + max(data_latency, otp_ready)
                + engine.config.auth_latency
            )
            self._now = now + 1 + latency
            return latency
        self._now = now + 1 + result.lookup_latency
        return result.lookup_latency


class CosmosEarlyDesign(CosmosDesign):
    """Extension beyond the paper: COSMOS + EMCC-style universal probing.

    The paper's COSMOS only touches the CTR cache for L1 misses the data
    predictor classifies off-chip, so on-chip-predicted hot data never
    warms the counter cache.  This hybrid (a natural future-work point:
    the paper notes COSMOS "can work with various designs") additionally
    probes the CTR cache on *every* L1 miss, as EMCC does, while keeping
    the bypass and the LCR-CTR cache.  Costs more CTR/MT traffic; wins
    when the warmed counters pay for it.
    """

    name = "cosmos-early"

    def __init__(self, **kwargs) -> None:
        kwargs.setdefault("variant", CosmosVariant.full())
        super().__init__(**kwargs)
        self.name = "cosmos-early"

    def process_fast(self, block_address: int, is_write: bool, core: int) -> int:
        stats = self.stats
        stats.accesses += 1
        now = self._now
        result = self.hierarchy.access_block(block_address, is_write, core)
        if not result.l1_miss:
            self._now = now + 1 + result.lookup_latency
            return result.lookup_latency
        stats.l1_misses += 1
        block = block_address
        location = self._location
        if location is not None:
            action = location.predict_and_train(block, not result.needs_memory)
            predicted_off = action == OFF_CHIP
        else:
            predicted_off = False
        l1_latency = self._l1_latency
        engine = self.engine
        # Universal early probe: every L1 miss touches the CTR cache.
        _, ctr_latency = engine.ctr_access(block, now=now)
        if not result.needs_memory:
            if predicted_off:
                stats.killed_fetches += 1
            self._now = now + 1 + result.lookup_latency
            return result.lookup_latency
        stats.llc_misses += 1
        data_latency = engine.read_data(block, now=now)
        otp_ready = l1_latency + engine.decrypt_ready_latency(ctr_latency)
        if predicted_off:
            stats.bypasses += 1
            data_ready = l1_latency + data_latency
        else:
            stats.fallback_fetches += 1
            data_ready = result.lookup_latency + data_latency
        latency = max(data_ready, otp_ready) + engine.config.auth_latency
        self._now = now + 1 + latency
        return latency


_DESIGN_FACTORIES = {
    "np": NonProtectedDesign,
    "morphctr": MorphCtrDesign,
    "early": EarlyCtrDesign,
    "emcc": EmccDesign,
    "rmcc": RmccDesign,
}


def make_design(name: str, **kwargs) -> SecureDesign:
    """Instantiate a design by name.

    ``cosmos``, ``cosmos-dp`` and ``cosmos-cp`` map to :class:`CosmosDesign`
    with the corresponding variant; other names use the factory table.
    """
    if name == "cosmos":
        return CosmosDesign(variant=CosmosVariant.full(), **kwargs)
    if name == "cosmos-dp":
        return CosmosDesign(variant=CosmosVariant.dp_only(), **kwargs)
    if name == "cosmos-cp":
        return CosmosDesign(variant=CosmosVariant.cp_only(), **kwargs)
    if name == "cosmos-early":
        return CosmosEarlyDesign(**kwargs)
    if name in ("synergy", "cosmos-synergy"):
        engine_config = kwargs.pop("engine_config", None) or EngineConfig()
        kwargs["engine_config"] = replace(engine_config, mac_in_ecc=True)
        if name == "synergy":
            design = MorphCtrDesign(**kwargs)
            design.name = "synergy"
            return design
        design = CosmosDesign(variant=CosmosVariant.full(), **kwargs)
        design.name = "cosmos-synergy"
        return design
    try:
        factory = _DESIGN_FACTORIES[name]
    except KeyError:
        known = ", ".join(
            sorted(list(_DESIGN_FACTORIES) + ["cosmos", "cosmos-dp", "cosmos-cp", "cosmos-early"])
        )
        raise ValueError(f"unknown design {name!r}; expected one of: {known}")
    return factory(**kwargs)
