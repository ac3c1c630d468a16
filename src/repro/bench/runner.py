"""Shared machinery for the per-figure experiment harness.

Centralises the evaluation methodology so every figure/table reproduction
uses identical settings:

* the scaled paper configuration (``scaled_paper_config(16)``; see
  EXPERIMENTS.md for the scaling substitution),
* deterministic trace generation with an on-disk cache (numpy ``.npz``),
* environment knobs for quick runs::

      REPRO_TRACE_LEN     total accesses per trace (default 150000)
      REPRO_GRAPH_SCALE   graph size multiplier     (default 4.0)
      REPRO_QUICK=1       shrink traces 5x for smoke runs
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Optional

from .. import obs
from ..sim.config import SimulationConfig, scaled_paper_config
from ..sim.results import SimulationResult
from ..sim.simulator import simulate
from ..workloads.db import DB_WORKLOADS, generate_db_trace
from ..workloads.graph_algos import GRAPH_WORKLOADS, generate_graph_trace
from ..workloads.hammer import HAMMER_WORKLOADS, generate_hammer_trace
from ..workloads.ml import ML_WORKLOADS, generate_ml_trace
from ..workloads.spec import SPEC_WORKLOADS, generate_spec_trace
from ..workloads.trace import Trace

#: Override for the cache root (tests monkeypatch this); ``None`` means
#: "resolve lazily from ``REPRO_CACHE_DIR`` / the current directory".
#: Resolved lazily so importing the module never captures a stale CWD and
#: the environment knob can change between runs in one process.
CACHE_DIR: Optional[Path] = None


def cache_dir() -> Path:
    """The cache root: ``CACHE_DIR`` override, else env, else CWD-relative.

    Generated traces live directly under this directory; the result cache
    and run manifests of :mod:`repro.exec` use the ``results/`` and
    ``manifests/`` subdirectories.  Safe to delete at any time.
    """
    if CACHE_DIR is not None:
        return Path(CACHE_DIR)
    return Path(os.environ.get("REPRO_CACHE_DIR", Path.cwd() / ".trace_cache"))


def trace_length() -> int:
    """Trace length honouring the environment knobs."""
    length = int(os.environ.get("REPRO_TRACE_LEN", "150000"))
    if os.environ.get("REPRO_QUICK"):
        length //= 5
    return length


def graph_scale() -> float:
    """Graph scale honouring the environment knob."""
    return float(os.environ.get("REPRO_GRAPH_SCALE", "4.0"))


def default_config(num_cores: int = 4) -> SimulationConfig:
    """The harness's standard configuration (scaled Table 3)."""
    return scaled_paper_config(scale=16, num_cores=num_cores)


# ----------------------------------------------------------------------
# Trace generation with caching
# ----------------------------------------------------------------------
_MEMORY_CACHE: Dict[str, Trace] = {}


def get_trace(
    workload: str,
    num_cores: int = 4,
    max_accesses: Optional[int] = None,
    seed: Optional[int] = None,
    scale: Optional[float] = None,
) -> Trace:
    """Deterministic trace for ``workload``, cached in memory and on disk.

    ``workload`` may be any graph kernel, SPEC benchmark, ML model or
    ``mlp``.  ``seed`` overrides the generator's default seed — used by
    the multi-seed statistics helpers.  ``scale`` overrides the
    environment-derived graph scale — used by ``repro.exec`` workers so a
    job resolved in the parent process replays identically anywhere.
    """
    from ..workloads.serialization import load_trace, save_trace

    if workload.startswith("trace:"):
        # External request trace (Ramulator / gem5 export): the file is
        # already a materialised trace, so the npz generation cache is
        # skipped — only the in-memory cache applies.  ``num_cores``,
        # ``seed`` and ``scale`` do not affect a recorded stream.
        from ..workloads.ingest import load_external_trace

        source = workload[len("trace:"):]
        limit = max_accesses if max_accesses is not None else trace_length()
        key = f"{workload}-n{limit}"
        cached = _MEMORY_CACHE.get(key)
        if cached is None:
            with obs.span("trace_ingest", workload=workload, key=key):
                cached = load_external_trace(source, max_accesses=limit)
            _MEMORY_CACHE[key] = cached
        return cached

    length = max_accesses if max_accesses is not None else trace_length()
    scale = scale if scale is not None else graph_scale()
    key = f"{workload}-c{num_cores}-n{length}-g{scale}"
    if seed is not None:
        key += f"-s{seed}"
    cached = _MEMORY_CACHE.get(key)
    if cached is not None:
        return cached
    path = cache_dir() / f"{key}.npz"
    if path.exists():
        try:
            with obs.span("trace_load", workload=workload, key=key):
                trace = load_trace(path)
        except (ValueError, OSError):
            # Corrupt or truncated archive (interrupted copy, bad disk):
            # treat it as a cache miss — drop the file and regenerate.
            try:
                path.unlink()
            except OSError:
                pass
        else:
            _MEMORY_CACHE[key] = trace
            return trace
    with obs.span("trace_generate", workload=workload, key=key):
        trace = _generate(workload, num_cores, length, scale, seed)
    _MEMORY_CACHE[key] = trace
    try:
        save_trace(trace, path)
    except OSError:
        pass  # caching is best-effort; generation stays deterministic
    return trace


def _generate(
    workload: str, num_cores: int, length: int, scale: float, seed: Optional[int] = None
) -> Trace:
    seeds = {} if seed is None else {"seed": seed}
    if workload in GRAPH_WORKLOADS:
        return generate_graph_trace(
            workload, num_cores=num_cores, max_accesses=length, graph_scale=scale, **seeds
        )
    if workload in SPEC_WORKLOADS:
        return generate_spec_trace(workload, num_cores=num_cores, max_accesses=length, **seeds)
    if workload in ML_WORKLOADS or workload == "mlp":
        return generate_ml_trace(workload, num_cores=num_cores, max_accesses=length, **seeds)
    if workload in DB_WORKLOADS:
        return generate_db_trace(workload, num_cores=num_cores, max_accesses=length, **seeds)
    if workload in HAMMER_WORKLOADS:
        return generate_hammer_trace(workload, num_cores=num_cores, max_accesses=length, **seeds)
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
_RESULT_CACHE: Dict[tuple, SimulationResult] = {}


def run_design(
    design: str,
    workload: str,
    config: Optional[SimulationConfig] = None,
    num_cores: int = 4,
    max_accesses: Optional[int] = None,
) -> SimulationResult:
    """Simulate one (design, workload) pair under the standard methodology.

    Runs under the *default* configuration are memoised for the lifetime of
    the process — several figures (10, 11, 12, 13) report different metrics
    of the same runs, exactly as the paper does.
    """
    cache_key = None
    if config is None:
        cache_key = (design, workload, num_cores,
                     max_accesses if max_accesses is not None else trace_length(),
                     graph_scale())
        cached = _RESULT_CACHE.get(cache_key)
        if cached is not None:
            return cached
        config = default_config(num_cores)
    trace = get_trace(workload, num_cores=num_cores, max_accesses=max_accesses)
    result = simulate(design, trace, config, workload=workload)
    if cache_key is not None:
        _RESULT_CACHE[cache_key] = result
    return result


def run_design_matrix(
    designs: List[str],
    workloads: List[str],
    config: Optional[SimulationConfig] = None,
    num_cores: int = 4,
    max_accesses: Optional[int] = None,
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    timeout: Optional[float] = None,
) -> Dict[str, Dict[str, SimulationResult]]:
    """Run every (design × workload) cell through :mod:`repro.exec`.

    This is the fan-out entry point the figure/table reproductions use:
    cells become independent :class:`~repro.exec.jobs.JobSpec` jobs,
    deduplicated, answered from the on-disk result cache where possible,
    and executed on a worker pool when ``jobs > 1``.

    ``jobs``/``use_cache``/``timeout`` default to the process-wide
    execution options (CLI ``--jobs``/``--no-cache`` flags, else the
    ``REPRO_JOBS``/``REPRO_NO_CACHE``/``REPRO_JOB_TIMEOUT`` environment).

    Returns results indexed as ``matrix[workload][design]``, exactly like
    :func:`run_matrix`.
    """
    from ..exec import ParallelRunner, ResultCache, get_options, make_spec

    options = get_options()
    jobs_source = "explicit" if jobs is not None else options.jobs_source
    jobs = jobs if jobs is not None else options.jobs
    use_cache = use_cache if use_cache is not None else options.use_cache
    timeout = timeout if timeout is not None else options.timeout

    # Default-configuration cells share the in-process memo with
    # run_design(): figures 10-13 intentionally re-read the same runs.
    def memo_key(design: str, workload: str) -> Optional[tuple]:
        if config is not None or max_accesses is not None:
            return None
        return (design, workload, num_cores, trace_length(), graph_scale())

    matrix: Dict[str, Dict[str, SimulationResult]] = {w: {} for w in workloads}
    cells: List[tuple] = []  # (workload, design, job_hash)
    specs = []
    # Submit design-major: concurrent workers then start on *different*
    # workloads, so each trace is generated once and cached (.npz) before
    # the remaining designs need it, instead of every worker racing to
    # generate the same trace.
    for design in designs:
        for workload in workloads:
            key = memo_key(design, workload)
            memoised = _RESULT_CACHE.get(key) if key is not None else None
            if memoised is not None:
                matrix[workload][design] = memoised
                continue
            spec = make_spec(design, workload, config=config, num_cores=num_cores,
                             max_accesses=max_accesses)
            cells.append((workload, design, spec.content_hash()))
            specs.append(spec)

    if specs:
        root = cache_dir()
        runner = ParallelRunner(
            jobs=jobs,
            cache=ResultCache(root / "results") if use_cache else None,
            timeout=timeout,
            manifest_dir=root / "manifests",
            jobs_source=jobs_source,
        )
        results = runner.run(specs)
        for workload, design, job_hash in cells:
            result = results[job_hash]
            matrix[workload][design] = result
            key = memo_key(design, workload)
            if key is not None:
                _RESULT_CACHE[key] = result
    return matrix


def run_matrix(
    designs: List[str],
    workloads: List[str],
    config: Optional[SimulationConfig] = None,
    num_cores: int = 4,
) -> Dict[str, Dict[str, SimulationResult]]:
    """Results indexed as ``matrix[workload][design]``.

    Thin wrapper over :func:`run_design_matrix` kept for its original
    signature; inherits the process-wide parallelism/caching options.
    """
    return run_design_matrix(designs, workloads, config=config, num_cores=num_cores)
