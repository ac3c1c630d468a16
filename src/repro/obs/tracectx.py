"""Cross-process trace context: one ``run_id`` for a whole sweep.

A :class:`TraceContext` names the run that a job belongs to (``run_id``)
and the component that launched it (``origin`` — ``exec.run`` for a
:class:`~repro.exec.runner.ParallelRunner` sweep).  The orchestrator
activates a context before fanning work out; workers read it back and
stamp ``run_id`` plus their own pid into the per-job observability
artifacts, which is what lets :mod:`repro.obs.merge` stitch the
per-process span trees into one run-level Chrome trace with correct
pid/tid attribution.

The context lives in a module-level global.  The runner's
:class:`~repro.exec.pool.WorkerPool` forks its workers *after* the
context is activated, so every worker inherits it.

Activation is cheap (one assignment per *run*, not per job) and happens
regardless of the ``REPRO_OBS`` switch: with observability off, workers
never look at the context, so the obs-off byte-identity contract is
untouched.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, Optional

_ACTIVE: Optional["TraceContext"] = None


@dataclass(frozen=True)
class TraceContext:
    """Identity of one run, carried from orchestrator to workers."""

    run_id: str
    #: The component that started the run.
    origin: str = "exec.run"


def new_run_id(prefix: str = "run") -> str:
    """A fresh, sortable run identifier: time, pid and entropy."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    entropy = os.urandom(4).hex()
    return f"{prefix}-{stamp}-{os.getpid():x}-{entropy}"


def activate(ctx: Optional[TraceContext]) -> Optional[TraceContext]:
    """Install ``ctx`` as the process's active context; returns the old one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = ctx
    return previous


def current() -> Optional[TraceContext]:
    """The active context, if any."""
    return _ACTIVE


def reset() -> None:
    """Drop any installed context (tests)."""
    activate(None)


class propagated:
    """``with propagated(ctx):`` — activate/restore around a block.

    Accepts ``None`` so orchestrators can wrap unconditionally; the null
    case installs nothing and restores nothing.
    """

    __slots__ = ("_ctx", "_previous")

    def __init__(self, ctx: Optional[TraceContext]) -> None:
        self._ctx = ctx
        self._previous: Optional[TraceContext] = None

    def __enter__(self) -> Optional[TraceContext]:
        if self._ctx is not None:
            self._previous = activate(self._ctx)
        return self._ctx

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._ctx is not None:
            activate(self._previous)


def job_annotations(ctx: Optional[TraceContext] = None) -> Dict[str, object]:
    """The trace-context fields a worker stamps into its job artifacts."""
    ctx = ctx if ctx is not None else current()
    fields: Dict[str, object] = {"pid": os.getpid()}
    if ctx is not None:
        fields["run_id"] = ctx.run_id
        fields["origin"] = ctx.origin
    return fields
