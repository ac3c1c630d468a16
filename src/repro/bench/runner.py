"""Shared machinery for the per-figure experiment harness.

Centralises the evaluation methodology so every figure/table reproduction
uses identical settings:

* the scaled paper configuration (``scaled_paper_config(16)``; see
  EXPERIMENTS.md for the scaling substitution),
* deterministic trace generation with an on-disk cache (numpy ``.npz``),
* :func:`run_cells`, the one way an experiment simulates a (design,
  workload, config) cell: through :mod:`repro.exec`, so every sweep gets
  ``--jobs``, the result cache and a run manifest,
* environment knobs for quick runs::

      REPRO_TRACE_LEN     total accesses per trace (default 150000)
      REPRO_GRAPH_SCALE   graph size multiplier     (default 4.0)
      REPRO_QUICK=1       shrink traces 5x for smoke runs
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .. import obs
from ..exec import JobSpec, ParallelRunner, ResultCache, get_options, make_spec
from ..exec.jobs import generator_digest
from ..sim.config import SimulationConfig, scaled_paper_config
from ..sim.results import SimulationResult
from ..workloads.db import DB_WORKLOADS, generate_db_trace
from ..workloads.graph_algos import GRAPH_WORKLOADS, generate_graph_trace
from ..workloads.hammer import HAMMER_WORKLOADS, generate_hammer_trace
from ..workloads.ingest import load_external_trace, trace_digest
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
        # skipped — only the in-memory cache, keyed by the file's sha256,
        # applies.  ``num_cores``, ``seed`` and ``scale`` do not affect a
        # recorded stream.
        source = workload[len("trace:"):]
        limit = max_accesses if max_accesses is not None else trace_length()
        key = f"{workload}-n{limit}-{trace_digest(workload)}"
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
    # The generators' code is part of the key: an edited generator misses
    # the .npz cache instead of replaying a trace it no longer makes.
    key += f"-{generator_digest()[:16]}"
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
#: Results of the cells simulated or loaded in this process, keyed by
#: :meth:`~repro.exec.jobs.JobSpec.content_hash`.  Figures read the same
#: cells (10-13 report different metrics of the same runs, as the paper
#: does), and a sweep point equal to the default configuration is the
#: default cell.
_RESULT_CACHE: Dict[str, SimulationResult] = {}


def run_cells(specs: Sequence[JobSpec]) -> List[SimulationResult]:
    """The result of every cell in ``specs``, in spec order.

    Cells already in the process memo are not run again.  The rest go
    through one :class:`~repro.exec.runner.ParallelRunner` under the
    process-wide execution options (``--jobs``/``--no-cache``, else
    ``REPRO_JOBS``/``REPRO_NO_CACHE``/``REPRO_JOB_TIMEOUT``), which
    collapses duplicates, answers from the on-disk result cache and writes
    a run manifest.
    """
    hashes = [spec.content_hash() for spec in specs]
    pending = [spec for spec, job_hash in zip(specs, hashes) if job_hash not in _RESULT_CACHE]
    if pending:
        options = get_options()
        root = cache_dir()
        runner = ParallelRunner(
            jobs=options.jobs,
            cache=ResultCache(root / "results") if options.use_cache else None,
            timeout=options.timeout,
            retries=options.retries,
            manifest_dir=root / "manifests",
            jobs_source=options.jobs_source,
        )
        _RESULT_CACHE.update(runner.run(pending))
    return [_RESULT_CACHE[job_hash] for job_hash in hashes]


def run_design_matrix(
    designs: List[str],
    workloads: List[str],
    config: Optional[SimulationConfig] = None,
    num_cores: int = 4,
    max_accesses: Optional[int] = None,
) -> Dict[str, Dict[str, SimulationResult]]:
    """Every (design × workload) cell through :func:`run_cells`.

    ``config``, ``num_cores`` and ``max_accesses`` follow
    :func:`~repro.exec.jobs.make_spec`: ``None`` means the harness default.
    Returns results indexed as ``matrix[workload][design]``.
    """
    # Design-major: concurrent workers then start on *different* workloads,
    # so each trace is generated once and cached (.npz) before the
    # remaining designs need it, instead of every worker racing to generate
    # the same trace.
    cells = [(design, workload) for design in designs for workload in workloads]
    results = run_cells([
        make_spec(design, workload, config=config, num_cores=num_cores,
                  max_accesses=max_accesses)
        for design, workload in cells
    ])
    matrix: Dict[str, Dict[str, SimulationResult]] = {w: {} for w in workloads}
    for (design, workload), result in zip(cells, results):
        matrix[workload][design] = result
    return matrix
