"""Simulator benchmark: figure workloads through the np, morphctr and cosmos designs.

Each workload's trace is generated from ``--seed`` by the generators in
``repro.workloads`` and handed to the simulator as packed arrays.  Every
design x workload run is a *cell*: a freshly built design (caches empty, as
in the figures) driven over the whole trace on the arrays path under
``default_config(4)``, with observability off.  Cells run round-robin over
the designs until ``--seconds`` have passed.  Every timed piece of work (a
setup, a cell) is bracketed by runs of a fixed kernel (``yardstick.py``)
and its host time scaled to the kernel's reference speed, which removes
most of a shared host's speed drift.  A design's host throughput is its
accesses over its summed scaled cell time: the mean moves smoothly with the
share of slow cells where a median jumps between the fast and slow level.

With ``--trace 1`` each design then runs once more with a timing wrapper on
every layer's entry point (see ``layers.py``), and the per-layer metrics of
the traced ``cosmos`` cell are reported instead of the end-to-end ones.

Usage (from the repository root)::

    python3 perfbench/run.py --workload graph-dfs --seed 1 --seconds 25 --trace 0

A human-readable report goes to standard output; its last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import layers
import yardstick

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
try:
    from repro import obs
    from repro.sim.config import scaled_paper_config
    from repro.sim.simulator import Simulator, build_design
    from repro.verify.differential import check_invariants
    from repro.workloads import generate_db_trace, generate_graph_trace, generate_ml_trace
except ImportError as error:
    raise SystemExit(f"perfbench: cannot import the simulator from {ROOT / 'src'}: {error}")

DESIGNS = ("np", "morphctr", "cosmos")
NUM_CORES = 4
#: The figures' graph size (``REPRO_GRAPH_SCALE`` default).
GRAPH_SCALE = 4.0
#: Setups per run (see ``run_setups``); ``setup_s`` is their median.
SETUP_MIN_REPEATS = 2
SETUP_MIN_SECONDS = 3.0
#: Paper Fig. 10 aggregates over all workloads (EXPERIMENTS.md).
PAPER_FIG10 = {
    "ipc_norm.morphctr": "MorphCtr runs at about 0.60 of NP",
    "cosmos_gain": "COSMOS is about +25% over MorphCtr (1.25)",
}
#: What the traced cosmos cell must show for the workload to load the layer
#: it was chosen for.
WHY_CHECKS = {
    "graph-dfs": (
        "secure.merkle.share + mem.dram.share > mem.hierarchy.share",
        lambda m: m["secure.merkle.share"] + m["mem.dram.share"] > m["mem.hierarchy.share"]),
    "ml-dlrm": (
        "mem.hierarchy.share is the largest layer share",
        lambda m: m["mem.hierarchy.share"] == max(
            m[f"{layer}.share"] for layer in layers.LAYERS)),
    "db-hashjoin": (
        "secure.engine.secure_write.calls_per_access > 0.05 (graph-dfs: about 0.02)",
        lambda m: m["secure.engine.secure_write.calls_per_access"] > 0.05),
}


@dataclass(frozen=True)
class Workload:
    """A seeded trace generator and the trace length it is run at."""

    generate: Callable[[int, int], object]
    accesses: int


WORKLOADS: Dict[str, Workload] = {
    "graph-dfs": Workload(
        lambda seed, n: generate_graph_trace(
            "dfs", num_cores=NUM_CORES, max_accesses=n, seed=seed,
            graph_scale=GRAPH_SCALE),
        20_000),
    "ml-dlrm": Workload(
        lambda seed, n: generate_ml_trace(
            "dlrm", num_cores=NUM_CORES, max_accesses=n, seed=seed),
        40_000),
    "db-hashjoin": Workload(
        lambda seed, n: generate_db_trace(
            "hashjoin", num_cores=NUM_CORES, max_accesses=n, seed=seed),
        40_000),
}


@dataclass
class Cell:
    """One design run over the trace."""

    design: object
    result: object
    fingerprint: Dict[str, object]
    seconds: float
    problems: List[str]
    #: Factor taking ``seconds`` to the yardstick's reference speed.
    scale: float = 1.0

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale


@dataclass
class DesignRuns:
    """Every cell of one design, checked against the first good one."""

    name: str
    reference: Optional[Cell] = None
    #: Host time of each passed untraced cell, raw and at reference speed
    #: (cells themselves are dropped: each holds a whole design).
    seconds: List[float] = field(default_factory=list)
    ref_seconds: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def record(self, cell: Optional[Cell], label: str) -> Optional[Cell]:
        """Count ``cell`` (None when it raised); returns it if it passed."""
        self.attempted += 1
        if cell is not None and self.reference is not None:
            if cell.fingerprint != self.reference.fingerprint:
                cell.problems.append(
                    f"{label} differs from the first run: {cell.fingerprint}"
                    f" != {self.reference.fingerprint}")
        if cell is None or cell.problems:
            self.failed += 1
            for problem in cell.problems if cell is not None else ():
                print(f"FAILED {self.name} {label}: {problem}", file=sys.stderr)
            return None
        if self.reference is None:
            self.reference = cell
        return cell


def work_fingerprint(design, result) -> Dict[str, object]:
    """Digest of the result record plus exact work counts of the run."""
    payload = json.dumps(result.to_dict(), sort_keys=True).encode()
    hierarchy = design.hierarchy
    engine = getattr(design, "engine", None)
    controller = getattr(design, "controller", None)
    rl_calls = 0
    if controller is not None:
        for predictor in (controller.location, controller.locality):
            if predictor is not None:
                rl_calls += predictor.stats.predictions
    return {
        "result_sha256": hashlib.sha256(payload).hexdigest()[:16],
        "dram_requests": design.dram_model().stats.requests,
        "mt_nodes_fetched": engine.integrity.stats.nodes_fetched if engine else 0,
        "ctr_misses": engine.ctr_cache.stats.misses if engine else 0,
        "l1_evictions": sum(cache.stats.evictions for cache in hierarchy.l1),
        "l2_evictions": sum(cache.stats.evictions for cache in hierarchy.l2),
        "llc_evictions": hierarchy.llc.stats.evictions,
        "rl_calls": rl_calls,
    }


def run_cell(name: str, arrays, config, workload: str, speed: yardstick.HostSpeed,
             tracer: Optional[layers.LayerTracer] = None) -> Optional[Cell]:
    """Build ``name`` fresh, run it over ``arrays``; None if it raised."""
    try:
        gc.collect()
        design = build_design(name, config)
        if tracer is not None:
            tracer.instrument(design)
        simulator = Simulator(design, config, workload=workload)
        started = time.perf_counter()
        result = simulator.run(arrays, path="arrays")
        seconds = time.perf_counter() - started
        cell = Cell(design, result, work_fingerprint(design, result), seconds,
                    check_invariants(design))
    except Exception:
        traceback.print_exc()
        cell = None
    scale = speed.scale()
    if cell is not None:
        cell.scale = scale
    return cell


def run_setups(workload: Workload, seed: int, config, speed: yardstick.HostSpeed):
    """Generate the trace and build the designs, repeatedly.

    Repeats at least ``SETUP_MIN_REPEATS`` times and until
    ``SETUP_MIN_SECONDS`` have been spent, so a cheap setup is sampled
    often enough for a steady median and an expensive one (the dfs graph)
    does not eat the measuring time.  Returns the last trace and the
    generate and build times, scaled to reference speed.
    """
    generate_s: List[float] = []
    build_s: List[float] = []
    spent = 0.0
    arrays = None
    while len(generate_s) < SETUP_MIN_REPEATS or spent < SETUP_MIN_SECONDS:
        arrays = None
        gc.collect()
        started = time.perf_counter()
        arrays = workload.generate(seed, workload.accesses).arrays()
        generated = time.perf_counter()
        for name in DESIGNS:
            build_design(name, config)
        built = time.perf_counter()
        spent += built - started
        scale = speed.scale()
        generate_s.append((generated - started) * scale)
        build_s.append((built - generated) * scale)
    return arrays, generate_s, build_s


def listing(values: List[float]) -> str:
    return f"n={len(values)} [" + " ".join(f"{value:.3f}" for value in values) + "]"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]
    config = scaled_paper_config(scale=16, num_cores=NUM_CORES)  # default_config(4)
    runs = {name: DesignRuns(name) for name in DESIGNS}
    print(f"workload {args.workload}: seed {args.seed}, {workload.accesses} accesses,"
          f" {NUM_CORES} cores, caches start empty (no warmup), arrays path")

    with obs.overridden(False):
        speed = yardstick.HostSpeed()
        arrays, generate_s, build_s = run_setups(workload, args.seed, config, speed)
        setup_s = [g + b for g, b in zip(generate_s, build_s)]
        print(f"setup (reference speed): median {statistics.median(setup_s):.3f} s"
              f" ({listing(setup_s)}); generate {statistics.median(generate_s):.3f} s,"
              f" build {statistics.median(build_s):.4f} s")

        deadline = time.perf_counter() + args.seconds
        rounds = 0
        while True:
            for name in DESIGNS:
                cell = runs[name].record(
                    run_cell(name, arrays, config, args.workload, speed), f"round {rounds}")
                if cell is not None:
                    runs[name].seconds.append(cell.seconds)
                    runs[name].ref_seconds.append(cell.ref_seconds)
            rounds += 1
            if time.perf_counter() >= deadline:
                break

        traced: Dict[str, Cell] = {}
        tracers: Dict[str, layers.LayerTracer] = {}
        if args.trace:
            for name in DESIGNS:
                tracer = layers.LayerTracer()
                cell = run_cell(name, arrays, config, args.workload, speed, tracer)
                if cell is not None:
                    cell.problems.extend(tracer.reconcile(cell.seconds * 1e9))
                cell = runs[name].record(cell, "traced run")
                if cell is not None:
                    traced[name] = cell
                    tracers[name] = tracer

    attempted = sum(run.attempted for run in runs.values())
    failed = sum(run.failed for run in runs.values())
    complete = all(run.reference is not None for run in runs.values())
    if args.trace:
        complete = complete and len(traced) == len(DESIGNS)
    print(f"rounds: {rounds}; cells failed {failed} / attempted {attempted}")
    print(f"host speed: yardstick {listing(speed.samples)} s against a reference of"
          f" {yardstick.REFERENCE_S} s")

    metrics: Dict[str, float] = {}
    if complete:
        results = {name: run.reference.result for name, run in runs.items()}
        for name, run in runs.items():
            print(f"work {name}: {json.dumps(run.reference.fingerprint, sort_keys=True)}")
        for name, run in runs.items():
            scaled = sum(run.ref_seconds)
            metrics[f"acc_per_s.{name}"] = workload.accesses * len(run.seconds) / scaled
            print(f"host {name}: {listing(run.seconds)} s per cell;"
                  f" {scaled / sum(run.seconds):.3f} of that at reference speed")
        metrics["setup_s"] = statistics.median(setup_s)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["ipc_norm.morphctr"] = results["morphctr"].normalized_to(results["np"])
        metrics["ipc_norm.cosmos"] = results["cosmos"].normalized_to(results["np"])
        metrics["cosmos_gain"] = results["cosmos"].normalized_to(results["morphctr"])
        if args.trace:
            cosmos = traced["cosmos"]
            tracer = tracers["cosmos"]
            traced_ns = cosmos.seconds * 1e9
            metrics.update(layers.layer_metrics(
                tracer, cosmos.design, cosmos.result.accesses, traced_ns, cosmos.scale))
            metrics["sim.build_s"] = statistics.median(build_s)
            metrics["workloads.generate_s"] = statistics.median(generate_s)
            metrics["trace.overhead"] = cosmos.ref_seconds / statistics.mean(
                runs["cosmos"].ref_seconds)
            report_trace(tracer, traced_ns, metrics)
            claim, holds = WHY_CHECKS[args.workload]
            print(f"workload check: {claim}: {'holds' if holds(metrics) else 'DOES NOT HOLD'}")

    print()
    for name, claim in PAPER_FIG10.items():
        if name in metrics:
            print(f"reference: {name} = {metrics[name]:.4f}; paper Fig. 10 aggregate:"
                  f" {claim}. Per-workload value unvalidated: the repo holds no"
                  " per-workload reference.")
    values = {}
    for entry in wanted:
        value = metrics.get(entry["name"])
        if value is None:
            complete = False
            continue
        values[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:<44} {value:>16.6g} {entry['unit']}")
    print(json.dumps({
        "correct": complete and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
    }))
    return 0


def report_trace(tracer: layers.LayerTracer, traced_ns: float,
                 metrics: Dict[str, float]) -> None:
    """Print the self-time reconciliation of the traced cosmos cell."""
    self_ns = tracer.layer_self_ns()
    sim_ns = traced_ns - tracer.top_level_ns
    print(f"trace: traced cosmos run {traced_ns / 1e9:.4f} s = layer self times"
          f" {sum(self_ns.values()) / 1e9:.4f} s + sim self {sim_ns / 1e9:.4f} s;"
          f" overhead x{metrics['trace.overhead']:.2f}")
    for layer, ns in sorted(self_ns.items(), key=lambda item: -item[1]):
        print(f"  {layer:<26} {ns / traced_ns:6.1%}")
    print(f"  {'sim':<26} {sim_ns / traced_ns:6.1%}")


if __name__ == "__main__":
    raise SystemExit(main())
