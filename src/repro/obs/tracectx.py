"""Cross-process trace context: one ``run_id`` for a whole sweep.

A :class:`TraceContext` names the run that a job belongs to (``run_id``)
and the component that launched it (``origin`` — ``exec.run`` for a local
:class:`~repro.exec.runner.ParallelRunner` sweep, ``serve`` for jobs
executed by the experiment service).  The orchestrator activates a context
before fanning work out; workers read it back and stamp ``run_id`` plus
their own pid into the per-job observability artifacts, which is what lets
:mod:`repro.obs.merge` stitch the per-process span trees into one run-level
Chrome trace with correct pid/tid attribution.

Propagation works through **two redundant channels** so every executor
shape is covered:

* a module-level global — inherited by ``fork``-start worker processes
  (the :class:`~repro.exec.pool.WorkerPool` that the runner and the
  server share forks *after* the context is activated) and trivially
  shared with thread executors;
* the ``REPRO_TRACE_CTX`` environment variable (JSON) — survives ``spawn``
  starts and lets externally launched helpers join a run.

Activation is cheap (one dict assignment and one env write per *run*, not
per job) and happens regardless of the ``REPRO_OBS`` switch: with
observability off, workers never look at the context, so the obs-off
byte-identity contract is untouched.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Dict, Optional

#: Environment carrier for the active context (JSON payload).
TRACE_ENV = "REPRO_TRACE_CTX"

_ACTIVE: Optional["TraceContext"] = None


@dataclass(frozen=True)
class TraceContext:
    """Identity of one run, carried from orchestrator to workers."""

    run_id: str
    #: The component that started the run ("exec.run", "serve", ...).
    origin: str = "exec.run"
    #: Pid of the orchestrating process (the manifest writer).
    root_pid: int = 0

    def to_json(self) -> str:
        return json.dumps(
            {"run_id": self.run_id, "origin": self.origin,
             "root_pid": self.root_pid},
            sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> Optional["TraceContext"]:
        try:
            data = json.loads(text)
        except (TypeError, ValueError):
            return None
        if not isinstance(data, dict) or "run_id" not in data:
            return None
        return cls(run_id=str(data["run_id"]),
                   origin=str(data.get("origin", "exec.run")),
                   root_pid=int(data.get("root_pid", 0)))


def new_run_id(prefix: str = "run") -> str:
    """A fresh, sortable run identifier: time, pid and entropy."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    entropy = os.urandom(4).hex()
    return f"{prefix}-{stamp}-{os.getpid():x}-{entropy}"


def activate(ctx: Optional[TraceContext]) -> Optional[TraceContext]:
    """Install ``ctx`` as the process's active context; returns the old one.

    Also mirrors the context into ``REPRO_TRACE_CTX`` (or removes the
    variable when ``ctx`` is ``None``) so spawned subprocesses inherit it.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = ctx
    if ctx is None:
        os.environ.pop(TRACE_ENV, None)
    else:
        os.environ[TRACE_ENV] = ctx.to_json()
    return previous


def current() -> Optional[TraceContext]:
    """The active context: the installed one, else the environment's."""
    if _ACTIVE is not None:
        return _ACTIVE
    text = os.environ.get(TRACE_ENV)
    if not text:
        return None
    return TraceContext.from_json(text)


def reset() -> None:
    """Drop any installed context and the env mirror (tests)."""
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
