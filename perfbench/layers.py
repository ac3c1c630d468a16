"""Per-layer self-time tracing, attached from outside the simulator.

Every layer of the simulator is reached through one public method on a
live object (``MemoryHierarchy.access_block``, ``DramModel.request``, ...)
that its callers look up as an attribute on each call.  Replacing that
attribute on the *instance* with a timing wrapper therefore records a span
around every call without changing any file under ``src/``, and without
touching any other instance of the class.

A span's self time is its duration minus the durations of the spans it
called; the simulator loop's own time (``sim``) is what remains of the
traced run once every top-level span is subtracted.  Spans are folded into
per-span totals as they close instead of being stored: a cell makes several
hundred thousand of them.
"""

from __future__ import annotations

import time
from operator import itemgetter
from typing import Callable, Dict, List, Optional

#: Layers in report order; a span named ``<layer>.<entry>`` belongs to
#: ``<layer>`` (the engine has three entry points).
LAYERS = (
    "mem.hierarchy",
    "core.location_predictor",
    "core.locality_predictor",
    "secure.engine",
    "secure.ctr_cache",
    "secure.merkle",
    "mem.dram",
)


def layer_of(span: str) -> str:
    """The layer a span name belongs to."""
    return span if span in LAYERS else span.rsplit(".", 1)[0]


class LayerTracer:
    """Accumulates self time, calls and simulated cycles per span."""

    def __init__(self) -> None:
        #: span -> [self_ns, calls, sim_cycles]
        self.spans: Dict[str, List[int]] = {}
        # Child-time accumulators of the open spans; the bottom entry sums
        # the durations of top-level spans.
        self._stack: List[int] = [0]

    def wrap(
        self,
        owner: object,
        method: str,
        span: str,
        sim_cycles: Optional[Callable[[object], int]] = None,
    ) -> None:
        """Replace ``owner.method`` with a wrapper recording ``span``."""
        inner = getattr(owner, method)
        totals = self.spans.setdefault(span, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = inner(*args, **kwargs)
            finally:
                elapsed = clock() - start
                totals[0] += elapsed - stack.pop()
                totals[1] += 1
                stack[-1] += elapsed
            if sim_cycles is not None:
                totals[2] += sim_cycles(result)
            return result

        setattr(owner, method, traced)

    def instrument(self, design) -> None:
        """Wrap the entry point of every layer ``design`` owns."""
        self.wrap(design.hierarchy, "access_block", "mem.hierarchy",
                  lambda result: result.lookup_latency)
        controller = getattr(design, "controller", None)
        if controller is not None:
            if controller.location is not None:
                self.wrap(controller.location, "predict_and_train",
                          "core.location_predictor")
            if controller.locality is not None:
                self.wrap(controller.locality, "predict", "core.locality_predictor")
        engine = getattr(design, "engine", None)
        if engine is not None:
            self.wrap(engine, "ctr_access", "secure.engine.ctr_access", itemgetter(1))
            self.wrap(engine, "read_data", "secure.engine.read_data")
            self.wrap(engine, "secure_write", "secure.engine.secure_write")
            self.wrap(engine.ctr_cache, "access_index", "secure.ctr_cache")
            self.wrap(engine.integrity, "traverse", "secure.merkle")
        self.wrap(design.dram_model(), "request", "mem.dram")

    def reconcile(self, traced_ns: float) -> List[str]:
        """Problems with the span bookkeeping of a run that took ``traced_ns``.

        Self times plus the loop's remainder sum to the traced total only if
        every span closed, no span's children outlasted it, and the spans
        fit inside the run.
        """
        problems = []
        if len(self._stack) != 1:
            problems.append(f"{len(self._stack) - 1} spans left open")
        for span, (self_ns, _, _) in self.spans.items():
            if self_ns < 0:
                problems.append(f"span {span} has negative self time {self_ns} ns")
        if self.top_level_ns > traced_ns:
            problems.append(
                f"spans cover {self.top_level_ns} ns of a {traced_ns:.0f} ns run")
        return problems

    @property
    def top_level_ns(self) -> int:
        """Summed duration of the spans the simulator loop called directly."""
        return self._stack[0]

    def layer_self_ns(self) -> Dict[str, int]:
        """Self time per layer, summed over the layer's spans."""
        totals = dict.fromkeys(LAYERS, 0)
        for span, (self_ns, _, _) in self.spans.items():
            totals[layer_of(span)] += self_ns
        return totals

    def calls(self, span: str) -> int:
        return self.spans.get(span, (0, 0, 0))[1]

    def sim_cycles(self, span: str) -> int:
        return self.spans.get(span, (0, 0, 0))[2]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: LayerTracer, design, accesses: int, traced_ns: float,
                  time_scale: float) -> Dict[str, float]:
    """Per-layer metrics of one traced COSMOS cell.

    ``traced_ns`` is the host time of the traced ``Simulator.run``; every
    ``share`` is a layer's self time divided by it.  Host times are
    multiplied by ``time_scale``, the cell's factor to reference speed.
    """
    self_ns = {layer: ns * time_scale for layer, ns in tracer.layer_self_ns().items()}
    sim_ns = (traced_ns - tracer.top_level_ns) * time_scale
    traced_ns *= time_scale
    hierarchy = design.hierarchy
    engine = design.engine
    controller = design.controller
    dram = design.dram_model().stats
    merkle = engine.integrity
    caches = [*hierarchy.l1, *hierarchy.l2, hierarchy.llc]
    l1_hits = sum(cache.stats.hits for cache in hierarchy.l1)
    l1_accesses = sum(cache.stats.accesses for cache in hierarchy.l1)
    metrics: Dict[str, float] = {
        "sim.self_ns_per_access": ratio(sim_ns, accesses),
        "mem.hierarchy.l1_hit_ratio": ratio(l1_hits, l1_accesses),
        "mem.hierarchy.llc_hit_ratio": hierarchy.llc.stats.hit_rate,
        "mem.hierarchy.evictions_per_access": ratio(
            sum(cache.stats.evictions for cache in caches), accesses),
        "mem.hierarchy.sim_cycles_per_access": ratio(
            tracer.sim_cycles("mem.hierarchy"), accesses),
        "core.location_predictor.accuracy": controller.location.stats.accuracy,
        "core.locality_predictor.good_fraction": controller.locality.stats.good_fraction,
        "secure.engine.self_ns_per_access": ratio(self_ns["secure.engine"], accesses),
        "secure.engine.ctr_sim_cycles_per_call": ratio(
            tracer.sim_cycles("secure.engine.ctr_access"),
            tracer.calls("secure.engine.ctr_access")),
        "secure.ctr_cache.hit_ratio": engine.ctr_cache.stats.hit_rate,
        "secure.merkle.nodes_per_call": merkle.stats.average_fetches,
        "secure.merkle.node_cache_hit_ratio": merkle.node_cache.stats.hit_rate,
        "mem.dram.row_hit_ratio": dram.row_hit_rate,
        "mem.dram.write_share": ratio(dram.writes, dram.requests),
        "mem.dram.queue_cycle_share": ratio(dram.queue_cycles, dram.busy_cycles),
        "mem.dram.sim_cycles_per_call": ratio(dram.busy_cycles, dram.requests),
    }
    for entry in ("ctr_access", "read_data", "secure_write"):
        metrics[f"secure.engine.{entry}.calls_per_access"] = ratio(
            tracer.calls(f"secure.engine.{entry}"), accesses)
    for layer in LAYERS:
        metrics[f"{layer}.share"] = ratio(self_ns[layer], traced_ns)
        if layer == "secure.engine":
            continue
        calls = tracer.calls(layer)
        metrics[f"{layer}.ns_per_call"] = ratio(self_ns[layer], calls)
        if layer != "mem.hierarchy":  # exactly one call per access
            metrics[f"{layer}.calls_per_access"] = ratio(calls, accesses)
    return metrics
