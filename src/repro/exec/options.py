"""Process-wide execution options (CLI flags and environment knobs).

The CLI sets these once per invocation; ``bench.runner.run_cells``, the
one way the figure harness simulates a cell, reads them, so every
experiment in a ``reproduce`` sweep inherits ``--jobs``/``--no-cache``
without threading parameters through each figure function.

Environment fallbacks::

    REPRO_JOBS         default worker count      (default 1 = serial)
    REPRO_JOBS_CAP     cap for auto-detected worker count (default 8)
    REPRO_NO_CACHE=1   disable the result cache
    REPRO_JOB_TIMEOUT  per-job timeout, seconds  (default: none)
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Optional

_UNSET = object()

#: Ceiling for :func:`auto_jobs` — beyond this, per-process trace caches
#: and Python interpreter overhead eat the marginal core's contribution.
DEFAULT_JOBS_CAP = 8


def auto_jobs(cap: Optional[int] = None) -> int:
    """Worker count auto-detected from the machine: ``cpu_count`` capped.

    Used as the ``--jobs`` default when neither the flag nor ``REPRO_JOBS``
    picks a count; the cap (``REPRO_JOBS_CAP``, default
    :data:`DEFAULT_JOBS_CAP`) keeps a big box from forking dozens of
    workers for a handful of cells.
    """
    if cap is None:
        try:
            cap = int(os.environ.get("REPRO_JOBS_CAP", str(DEFAULT_JOBS_CAP)))
        except ValueError:
            cap = DEFAULT_JOBS_CAP
    return max(1, min(max(1, int(cap)), os.cpu_count() or 1))


@dataclass(frozen=True)
class ExecutionOptions:
    """Options applied by :func:`repro.bench.runner.run_cells`.

    Attributes:
        jobs: Worker processes; 1 executes in-process (serial).
        use_cache: Consult/populate the on-disk result cache.
        timeout: Per-job timeout in seconds (parallel mode only).
        retries: Resubmissions allowed after a failure or timeout.
        jobs_source: Where ``jobs`` came from — ``"default"``, ``"env"``,
            ``"flag"`` or ``"auto"`` (cpu-count detection); recorded in
            run manifests so a sweep's parallelism is explainable later.
    """

    jobs: int = 1
    use_cache: bool = True
    timeout: Optional[float] = None
    retries: int = 1
    jobs_source: str = "default"


def options_from_env() -> ExecutionOptions:
    """Options derived purely from the environment."""
    timeout_raw = os.environ.get("REPRO_JOB_TIMEOUT")
    jobs_raw = os.environ.get("REPRO_JOBS")
    return ExecutionOptions(
        jobs=max(1, int(jobs_raw)) if jobs_raw else 1,
        use_cache=not os.environ.get("REPRO_NO_CACHE"),
        timeout=float(timeout_raw) if timeout_raw else None,
        jobs_source="env" if jobs_raw else "default",
    )


_OPTIONS: Optional[ExecutionOptions] = None


def get_options() -> ExecutionOptions:
    """The active options (explicitly set, else environment-derived)."""
    if _OPTIONS is not None:
        return _OPTIONS
    return options_from_env()


def set_options(
    jobs: object = _UNSET,
    use_cache: object = _UNSET,
    timeout: object = _UNSET,
    retries: object = _UNSET,
    jobs_source: object = _UNSET,
) -> ExecutionOptions:
    """Override selected fields process-wide; unspecified fields keep
    their current (or environment-derived) values.  Returns the result."""
    global _OPTIONS
    current = get_options()
    updates = {}
    if jobs is not _UNSET:
        updates["jobs"] = max(1, int(jobs))  # type: ignore[arg-type]
        if jobs_source is _UNSET:
            updates["jobs_source"] = "explicit"
    if use_cache is not _UNSET:
        updates["use_cache"] = bool(use_cache)
    if timeout is not _UNSET:
        updates["timeout"] = timeout  # type: ignore[typeddict-item]
    if retries is not _UNSET:
        updates["retries"] = max(0, int(retries))  # type: ignore[arg-type]
    if jobs_source is not _UNSET:
        updates["jobs_source"] = str(jobs_source)
    _OPTIONS = replace(current, **updates)  # type: ignore[arg-type]
    return _OPTIONS


def reset_options() -> None:
    """Drop explicit overrides; fall back to the environment."""
    global _OPTIONS
    _OPTIONS = None
