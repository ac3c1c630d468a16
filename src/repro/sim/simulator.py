"""Trace-driven simulator: runs a workload trace through a secure design.

This is the reproduction's stand-in for Gem5 SE mode (DESIGN.md,
substitution 1): accesses flow through the design's cache hierarchy and
secure-memory engine, per-access latencies are accumulated, and an IPC
proxy is derived with a fixed memory-level-parallelism overlap factor.

Every trace reaches the design through one loop.  :meth:`Simulator.run`
packs whatever it is given — a :class:`~repro.workloads.trace.TraceArrays`,
anything with an ``arrays()`` method (a
:class:`~repro.workloads.trace.Trace`), or a plain iterable of
``MemoryAccess`` streamed through
:meth:`~repro.workloads.trace.TraceArrays.from_iter` — into parallel
address/type/core arrays, unpacks them once into scalar lists and feeds
``design.process_fast`` with pre-shifted block addresses, so no
per-access object is ever constructed.  The golden-metrics test pins the
resulting payloads for every design and input kind.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Union

from .. import obs
from ..mem.access import AccessType, MemoryAccess
from ..secure.counters import make_counter_scheme
from ..secure.designs import CosmosDesign, SecureDesign, make_design
from ..secure.layout import SecureLayout
from ..workloads.trace import TraceArrays
from .config import SimulationConfig
from .results import SimulationResult

_WRITE = int(AccessType.WRITE)


def _merge_hooks(
    progress_hook: Optional[Callable[[int, "Simulator"], None]],
    progress_interval: int,
    sampler: "obs.SimSampler",
) -> tuple:
    """Combine a caller's progress hook with the observability sampler.

    With no caller hook the sampler simply takes the hook slot at its own
    cadence.  With both, the loop runs at the gcd of the two intervals and
    each consumer fires only on its own multiples, preserving the exact
    callback sequence either would have seen alone.
    """
    if progress_hook is None:
        return sampler, sampler.interval
    user_hook, user_interval = progress_hook, progress_interval
    sample_interval = sampler.interval
    interval = math.gcd(user_interval, sample_interval)

    def merged(done: int, simulator: "Simulator") -> None:
        if done % user_interval == 0:
            user_hook(done, simulator)
        if done % sample_interval == 0:
            sampler.sample(done)

    return merged, interval


def build_layout(config: SimulationConfig) -> SecureLayout:
    """Layout matching the configured memory size and counter scheme."""
    scheme = make_counter_scheme(config.counter_scheme)
    return SecureLayout.for_memory_size(config.memory_bytes, scheme.blocks_per_ctr)


def build_design(name: str, config: SimulationConfig) -> SecureDesign:
    """Instantiate design ``name`` under ``config``."""
    layout = build_layout(config)
    kwargs: Dict[str, object] = {
        "hierarchy_config": config.hierarchy,
        "layout": layout,
    }
    if name != "np":
        kwargs["engine_config"] = config.engine
        kwargs["counter_scheme"] = config.counter_scheme
    if name.startswith("cosmos"):
        kwargs["cosmos_config"] = config.cosmos
    return make_design(name, **kwargs)


class Simulator:
    """Drives one design through a trace and produces a result record."""

    def __init__(
        self,
        design: SecureDesign,
        config: Optional[SimulationConfig] = None,
        workload: str = "trace",
    ) -> None:
        self.design = design
        self.config = config if config is not None else SimulationConfig()
        self.workload = workload
        self.total_latency = 0
        self.accesses = 0
        #: Windowed time-series sampler of the last observed run (populated
        #: by :meth:`run` only when observability is enabled).
        self.sampler: Optional[obs.SimSampler] = None

    def run(
        self,
        trace: Union[Iterable[MemoryAccess], TraceArrays],
        progress_hook: Optional[Callable[[int, "Simulator"], None]] = None,
        progress_interval: int = 100_000,
        warmup_accesses: int = 0,
        path: Optional[str] = None,
    ) -> SimulationResult:
        """Simulate every access in ``trace`` and return the result.

        Args:
            trace: An array-native trace — a :class:`TraceArrays` or any
                object exposing a zero-argument ``arrays()`` method (e.g.
                :class:`~repro.workloads.trace.Trace`) — or any iterable
                of accesses (a list or a generator), which is packed into
                arrays chunk by chunk.
            progress_hook: Optional callback ``(accesses_done, simulator)``
                invoked every ``progress_interval`` accesses — used by the
                convergence experiments (paper Fig. 8) to snapshot metrics
                mid-run.
            progress_interval: Callback period in accesses.
            warmup_accesses: Accesses to process before the measurement
                window: caches fill and predictors train during warmup,
                but every statistic is reset afterwards.
            path: Name of the simulation loop; ``None`` or ``"arrays"``,
                the only one.  Kept for callers that name it explicitly.

        When observability is enabled (``REPRO_OBS=1``), a
        :class:`~repro.obs.timeseries.SimSampler` rides in the progress-hook
        slot: every sampling window it snapshots CTR-cache hit rate, MT
        verify depth, DRAM row-buffer hit rate and RL predictor state into
        ``self.sampler.series``, and rare events (counter overflows,
        re-encryption storms, predictor mode flips) into
        ``self.sampler.events``.  When disabled, the loop runs without a
        hook and this check is the only cost.
        """
        if path not in (None, "arrays"):
            raise ValueError(f"path must be None or 'arrays', not {path!r}")
        sampler: Optional[obs.SimSampler] = None
        if obs.enabled():
            sampler = obs.SimSampler(self)
            self.sampler = sampler
            engine = getattr(self.design, "engine", None)
            if engine is not None:
                engine.obs_events = sampler.events
            progress_hook, progress_interval = _merge_hooks(
                progress_hook, progress_interval, sampler
            )
        if isinstance(trace, TraceArrays):
            arrays = trace
        elif callable(getattr(trace, "arrays", None)):
            arrays = trace.arrays()
        else:
            # Stream plain iterables into packed arrays chunk by chunk
            # instead of materialising the whole trace as a list first.
            arrays = TraceArrays.from_iter(trace)
        with obs.span("sim.run", design=self.design.name, workload=self.workload):
            self._run_arrays(arrays, progress_hook, progress_interval, warmup_accesses)
        if sampler is not None:
            sampler.finish(self.accesses)
        return self.result()

    def _run_arrays(
        self,
        arrays: TraceArrays,
        progress_hook: Optional[Callable[[int, "Simulator"], None]],
        progress_interval: int,
        warmup_accesses: int,
    ) -> None:
        """The simulation loop: scalars straight into ``design.process_fast``.

        The packed arrays are unpacked once (``tolist`` yields plain
        Python ints/bools, the exact values ``MemoryAccess`` would carry),
        block addresses arrive pre-shifted, and the hot loop is free of
        per-access allocation and hook bookkeeping.
        """
        design = self.design
        process = design.process_fast
        blocks = arrays.block_addresses.tolist()
        writes = (arrays.types == _WRITE).tolist()
        cores = arrays.cores.tolist()
        start = 0
        if warmup_accesses > 0:
            start = min(warmup_accesses, len(blocks))
            for index in range(start):
                process(blocks[index], writes[index], cores[index])
            design.reset_stats()
            self.total_latency = 0
            self.accesses = 0
        if progress_hook is None:
            total = 0
            for block, is_write, core in zip(
                blocks[start:], writes[start:], cores[start:]
            ):
                total += process(block, is_write, core)
            self.total_latency += total
            self.accesses += len(blocks) - start
            return
        for index in range(start, len(blocks)):
            self.total_latency += process(blocks[index], writes[index], cores[index])
            self.accesses += 1
            if self.accesses % progress_interval == 0:
                progress_hook(self.accesses, self)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def cycles(self) -> float:
        """IPC-proxy cycle count.

        Three components: instruction issue, memory stalls (overlapped by
        the MLP factor), and DRAM channel serialisation — secure-memory
        metadata traffic (CTR, MT, MAC, re-encryption) competes with data
        for the same channel.

        The serialisation term is *measured*: the DRAM model tracks
        data-bus occupancy per channel (one ``burst`` per request,
        including background re-encryption), and the busiest channel's
        occupancy — scaled by ``dram_bandwidth_cycles_per_request`` per
        burst — is what serialises.  With one channel this equals the
        request count times the knob; with more channels, spreading
        traffic across them genuinely relieves the bottleneck.  Designs
        without a DRAM model fall back to the flat per-request charge.
        """
        cpu = self.config.cpu
        issue_cycles = self.accesses * (1 + cpu.nonmem_instructions_per_access)
        stall_cycles = self.total_latency / cpu.mlp_factor
        dram = self.design.dram_model()
        if dram is None:
            bandwidth_cycles = (
                self.design.traffic().total * cpu.dram_bandwidth_cycles_per_request
            )
        else:
            bandwidth_cycles = dram.stats.max_channel_busy * (
                cpu.dram_bandwidth_cycles_per_request / dram.timings.burst
            )
        return issue_cycles + stall_cycles + bandwidth_cycles

    def instructions(self) -> int:
        """Instructions represented by the trace under the CPU model."""
        return self.accesses * (1 + self.config.cpu.nonmem_instructions_per_access)

    def result(self) -> SimulationResult:
        """Snapshot the current metrics into a :class:`SimulationResult`."""
        design = self.design
        extra: Dict[str, float] = {
            "bypass_fraction": design.stats.bypass_fraction,
        }
        if isinstance(design, CosmosDesign):
            controller = design.controller
            if controller.location is not None:
                stats = controller.location.stats
                extra["prediction_accuracy"] = stats.accuracy
                extra["off_chip_misprediction_rate"] = stats.off_chip_misprediction_rate
                extra.update(
                    {
                        f"pred_{key}": value
                        for key, value in stats.distribution().items()
                    }
                )
            if controller.locality is not None:
                extra["good_locality_fraction"] = controller.locality.stats.good_fraction
        return SimulationResult(
            design=design.name,
            workload=self.workload,
            accesses=self.accesses,
            instructions=self.instructions(),
            cycles=self.cycles(),
            total_latency=self.total_latency,
            l1_miss_rate=design.hierarchy.l1_miss_rate(),
            l2_miss_rate=design.hierarchy.l2_miss_rate(),
            llc_miss_rate=design.hierarchy.llc_miss_rate(),
            ctr_miss_rate=design.ctr_miss_rate(),
            traffic=design.traffic(),
            extra=extra,
        )


def simulate(
    design_name: str,
    trace: Iterable[MemoryAccess],
    config: Optional[SimulationConfig] = None,
    workload: str = "trace",
) -> SimulationResult:
    """One-call convenience: build the design, run the trace, return results."""
    config = config if config is not None else SimulationConfig()
    design = build_design(design_name, config)
    simulator = Simulator(design, config, workload)
    return simulator.run(trace)


def simulate_designs(
    design_names: List[str],
    trace_factory: Callable[[], Iterable[MemoryAccess]],
    config: Optional[SimulationConfig] = None,
    workload: str = "trace",
) -> Dict[str, SimulationResult]:
    """Run the *same* trace through several designs.

    ``trace_factory`` is called once per design so generators are not
    shared across runs.
    """
    results: Dict[str, SimulationResult] = {}
    for name in design_names:
        results[name] = simulate(name, trace_factory(), config, workload)
    return results
