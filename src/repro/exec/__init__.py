"""``repro.exec`` — parallel experiment orchestration with result caching.

Turns an experiment's (design × workload × config) cells into independent
:class:`JobSpec` jobs, executes them on a process pool with per-job
timeout, bounded retry and graceful serial fallback, and persists every
:class:`~repro.sim.results.SimulationResult` in a content-addressed
on-disk :class:`ResultCache` so repeated sweeps cost near-zero simulation
time.  See ``docs/architecture.md`` ("Execution & caching") for the full
picture.
"""

from .cache import CACHE_VERSION, ResultCache, write_json_atomic
from .jobs import JobSpec, canonical_config_dict, make_spec
from .options import (
    ExecutionOptions,
    auto_jobs,
    get_options,
    options_from_env,
    reset_options,
    set_options,
)
from .runner import ExecutionError, ParallelRunner, dedupe_specs
from .telemetry import (
    MANIFEST_VERSION,
    JobRecord,
    ProgressTicker,
    RunReport,
    load_manifest,
)
from .worker import run_job

__all__ = [
    "CACHE_VERSION",
    "ExecutionError",
    "ExecutionOptions",
    "JobRecord",
    "JobSpec",
    "MANIFEST_VERSION",
    "ParallelRunner",
    "ProgressTicker",
    "ResultCache",
    "RunReport",
    "auto_jobs",
    "load_manifest",
    "canonical_config_dict",
    "dedupe_specs",
    "get_options",
    "make_spec",
    "options_from_env",
    "reset_options",
    "run_job",
    "set_options",
    "write_json_atomic",
]
