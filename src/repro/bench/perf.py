"""Tracked hot-path performance harness.

Measures end-to-end simulator throughput (accesses/second) per design on a
fixed, seeded microbenchmark trace and writes a machine-readable report —
``BENCH_hotpath.json`` at the repo root — so hot-path regressions show up
as a number in the diff rather than as a vague "it feels slower".

The measured path is the same one every experiment takes:
``Simulator.run`` over an array-native :class:`~repro.workloads.trace.Trace`
via ``design.process_fast``.  The workload is a Zipf-popularity trace
(``zipf_trace``) under the harness's standard scaled paper configuration,
so cache/CTR behaviour is representative of the figure reproductions.

Usage::

    python -m repro.bench.perf                    # measure, write report
    python -m repro.bench.perf --designs cosmos   # subset of designs
    python -m repro.bench.perf --profile cosmos   # cProfile top-N instead
    python -m repro.bench.perf --obs-check        # obs on/off overhead ratio

or via the pytest-benchmark wrapper ``benchmarks/bench_hotpath.py``.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import platform
import pstats
import random
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from .. import obs
from ..mem.dram import DramModel
from ..sim.config import SimulationConfig
from ..sim.simulator import Simulator, build_design
from ..workloads.micro import zipf_trace
from ..workloads.trace import Trace
from .runner import default_config

#: Report schema identifier; bump on incompatible payload changes.
#: v3: one entry per design, keyed by design name, with no ``path`` key
#: (v2 also carried ``design@path`` entries for other dispatch paths).
SCHEMA = "repro.bench.perf/v3"

#: Designs tracked by default: the unprotected bound, the secure baseline
#: and the full COSMOS design (slowest hot path — RL + predictor on top).
DEFAULT_DESIGNS = ("np", "morphctr", "cosmos")

#: Fixed trace parameters — the report is only comparable run-to-run
#: because these never drift silently.
TRACE_N = 100_000
TRACE_SEED = 42
TRACE_WRITE_FRACTION = 0.3

#: Default report location: the repository root (two levels above src/).
DEFAULT_OUTPUT = "BENCH_hotpath.json"

#: Requests in the DRAM-only microbenchmark (the bank-state model is the
#: innermost hot-path call, so it gets its own tracked number).
DRAM_BENCH_N = 200_000


def hotpath_trace(
    n: int = TRACE_N,
    seed: int = TRACE_SEED,
    write_fraction: float = TRACE_WRITE_FRACTION,
) -> Trace:
    """The harness's fixed seeded workload (Zipf popularity, mixed R/W)."""
    return zipf_trace(n=n, seed=seed, write_fraction=write_fraction)


def measure_design(
    design_name: str,
    trace: Trace,
    config: Optional[SimulationConfig] = None,
    repeats: int = 3,
) -> Dict[str, object]:
    """Time ``design_name`` over ``trace``; returns one report entry.

    Each repeat builds a fresh design (designs are stateful) and runs the
    whole trace; the *best* wall-clock time is reported, which is the
    standard way to suppress scheduler noise in throughput benchmarks.
    Key simulation metrics ride along so a perf change that accidentally
    shifts behaviour is visible in the same diff.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    config = config if config is not None else default_config()
    arrays = trace.arrays()  # materialise outside the timed region
    runs: List[float] = []
    result = None
    # Observability is force-disabled for the timed region so the tracked
    # baseline never silently includes instrumentation cost; the obs-check
    # mode below measures the enabled path explicitly.
    with obs.overridden(False):
        for _ in range(repeats):
            design = build_design(design_name, config)
            simulator = Simulator(design, config, workload=trace.name)
            started = time.perf_counter()
            result = simulator.run(arrays)
            runs.append(time.perf_counter() - started)
    best = min(runs)
    assert result is not None
    return {
        "accesses": result.accesses,
        "best_seconds": best,
        "runs_seconds": runs,
        "accesses_per_sec": result.accesses / best if best > 0 else 0.0,
        "cycles": result.cycles,
        "total_latency": result.total_latency,
        "ctr_miss_rate": result.ctr_miss_rate,
    }


def measure_dram(
    n: int = DRAM_BENCH_N,
    seed: int = TRACE_SEED,
    repeats: int = 3,
) -> Dict[str, object]:
    """Time bare ``DramModel.request`` over a seeded mixed stream.

    Every protected-memory access fans out into several DRAM requests
    (data, CTR, MT nodes, MAC), so :meth:`DramModel.request` is the
    innermost hot-path call; tracking it in isolation separates "the bank
    state machine got slower" from "a design got slower".  The stream
    mixes short sequential runs (row hits) with random jumps (row misses)
    and the standard write fraction, advancing ``now`` in program order
    like the designs do.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    rng = random.Random(seed)
    blocks: List[int] = []
    writes: List[bool] = []
    block = 0
    while len(blocks) < n:
        block = rng.randrange(1 << 24)
        for offset in range(rng.randrange(1, 8)):
            blocks.append(block + offset)
            writes.append(rng.random() < TRACE_WRITE_FRACTION)
    del blocks[n:], writes[n:]
    best = float("inf")
    model = DramModel()
    for _ in range(repeats):
        model = DramModel()
        request = model.request
        now = 0
        started = time.perf_counter()
        for address, is_write in zip(blocks, writes):
            now += 1 + request(address, is_write, now)
        best = min(best, time.perf_counter() - started)
    stats = model.stats
    return {
        "requests": n,
        "best_seconds": best,
        "requests_per_sec": n / best if best > 0 else 0.0,
        "row_hit_rate": stats.row_hit_rate,
        "avg_read_latency": model.average_read_latency(),
        "avg_write_latency": model.average_write_latency(),
    }


def run_benchmark(
    designs: Sequence[str] = DEFAULT_DESIGNS,
    n: int = TRACE_N,
    seed: int = TRACE_SEED,
    repeats: int = 3,
    config: Optional[SimulationConfig] = None,
) -> Dict[str, object]:
    """Measure every design and assemble the full report payload."""
    trace = hotpath_trace(n=n, seed=seed)
    results: Dict[str, object] = {}
    for name in designs:
        results[name] = measure_design(name, trace, config=config, repeats=repeats)
    return {
        "schema": SCHEMA,
        "generated_unix": int(time.time()),
        "python": platform.python_version(),
        "trace": {
            "kind": "zipf",
            "n": n,
            "seed": seed,
            "write_fraction": TRACE_WRITE_FRACTION,
        },
        "repeats": repeats,
        "results": results,
        "dram_microbench": measure_dram(seed=seed, repeats=repeats),
    }


def write_report(payload: Dict[str, object], path: Path) -> None:
    """Write the report as stable, diff-friendly JSON."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def format_report(payload: Dict[str, object]) -> str:
    """Human-readable one-line-per-design summary of a report payload."""
    lines = []
    for name, entry in payload["results"].items():  # type: ignore[union-attr]
        lines.append(
            f"{name:>10}: {entry['accesses_per_sec']:>12,.0f} accesses/sec"
            f"  (best of {len(entry['runs_seconds'])}:"
            f" {entry['best_seconds']:.3f}s for {entry['accesses']:,} accesses)"
        )
    dram = payload.get("dram_microbench")
    if dram:
        lines.append(
            f"{'dram':>10}: {dram['requests_per_sec']:>12,.0f} requests/sec"
            f"  (row hit {dram['row_hit_rate']:.2f},"
            f" read {dram['avg_read_latency']:.1f}cyc,"
            f" write {dram['avg_write_latency']:.1f}cyc)"
        )
    return "\n".join(lines)


def obs_overhead_check(
    design_name: str = "cosmos",
    n: int = TRACE_N,
    seed: int = TRACE_SEED,
    repeats: int = 3,
    config: Optional[SimulationConfig] = None,
) -> Dict[str, float]:
    """Measure throughput with observability off vs. on.

    Returns ``{"off": acc/s, "on": acc/s, "on_off_ratio": on/off}`` — the
    "zero-overhead-when-off" budget is enforced against the *off* number
    (vs. the committed baseline), while the ratio quantifies what turning
    sampling on costs (expected: a few percent at the default window).
    """
    config = config if config is not None else default_config()
    trace = hotpath_trace(n=n, seed=seed)
    arrays = trace.arrays()
    timings: Dict[str, float] = {}
    for label, switch in (("off", False), ("on", True)):
        best = float("inf")
        with obs.overridden(switch):
            for _ in range(repeats):
                design = build_design(design_name, config)
                simulator = Simulator(design, config, workload=trace.name)
                started = time.perf_counter()
                simulator.run(arrays)
                best = min(best, time.perf_counter() - started)
        timings[label] = n / best if best > 0 else 0.0
    timings["on_off_ratio"] = (
        timings["on"] / timings["off"] if timings["off"] else 0.0
    )
    return timings


def profile_design(
    design_name: str,
    n: int = TRACE_N,
    seed: int = TRACE_SEED,
    top: int = 25,
    config: Optional[SimulationConfig] = None,
) -> str:
    """cProfile one design over the fixed trace; returns the top-N table."""
    config = config if config is not None else default_config()
    arrays = hotpath_trace(n=n, seed=seed).arrays()
    design = build_design(design_name, config)
    simulator = Simulator(design, config)
    profiler = cProfile.Profile()
    profiler.enable()
    simulator.run(arrays)
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    return buffer.getvalue()


def main(argv: Optional[Iterable[str]] = None) -> int:
    """CLI entry point (``python -m repro.bench.perf``)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--designs", nargs="+", default=list(DEFAULT_DESIGNS),
        help="designs to measure (default: %(default)s)",
    )
    parser.add_argument("--n", type=int, default=TRACE_N, help="trace length")
    parser.add_argument("--seed", type=int, default=TRACE_SEED, help="trace seed")
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timed runs per design; best is reported (default: %(default)s)",
    )
    parser.add_argument(
        "--output", type=Path, default=Path(DEFAULT_OUTPUT),
        help="report path (default: %(default)s in the current directory)",
    )
    parser.add_argument(
        "--profile", metavar="DESIGN", default=None,
        help="cProfile DESIGN instead of benchmarking; prints the top-N table",
    )
    parser.add_argument(
        "--top", type=int, default=25,
        help="rows of the cProfile table with --profile (default: %(default)s)",
    )
    parser.add_argument(
        "--obs-check", metavar="DESIGN", nargs="?", const="cosmos", default=None,
        help="measure observability overhead for DESIGN (default cosmos): "
             "throughput with REPRO_OBS off vs on",
    )
    parser.add_argument(
        "--dram-only", action="store_true",
        help="run only the DRAM bank-state microbenchmark and print it",
    )
    parser.add_argument(
        "--dram-n", type=int, default=DRAM_BENCH_N,
        help="requests in the DRAM microbenchmark (default: %(default)s)",
    )
    parser.add_argument(
        "--history", type=Path, default=None, metavar="FILE",
        help="benchmark history file to append to "
             "(default: BENCH_history.jsonl next to the report)",
    )
    parser.add_argument(
        "--no-history", action="store_true",
        help="skip the benchmark-history append",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)
    if args.dram_only:
        entry = measure_dram(n=args.dram_n, seed=args.seed, repeats=args.repeats)
        print(
            f"dram: {entry['requests_per_sec']:,.0f} requests/sec"
            f" (row hit {entry['row_hit_rate']:.2f},"
            f" read {entry['avg_read_latency']:.1f}cyc,"
            f" write {entry['avg_write_latency']:.1f}cyc)"
        )
        return 0
    if args.profile is not None:
        print(profile_design(args.profile, n=args.n, seed=args.seed, top=args.top))
        return 0
    if args.obs_check is not None:
        timings = obs_overhead_check(
            args.obs_check, n=args.n, seed=args.seed, repeats=args.repeats
        )
        print(
            f"{args.obs_check}: obs off {timings['off']:,.0f} acc/s"
            f" · obs on {timings['on']:,.0f} acc/s"
            f" · ratio {timings['on_off_ratio']:.3f}"
        )
        return 0
    payload = run_benchmark(
        designs=args.designs, n=args.n, seed=args.seed, repeats=args.repeats
    )
    write_report(payload, args.output)
    print(format_report(payload))
    print(f"report written to {args.output}")
    if not args.no_history:
        from .history import HISTORY_FILENAME, append_history

        history_path = (args.history if args.history is not None
                        else args.output.parent / HISTORY_FILENAME)
        record = append_history(payload, history_path)
        if record is not None:
            print(f"history appended to {history_path}"
                  f" (sha={record.get('sha') or '?'})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
