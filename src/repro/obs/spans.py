"""Phase spans: hierarchical wall-time breakdown of a run.

``with span("trace_gen", workload="dfs"):`` opens a timed phase; spans
nest, so a job's recorder ends up with a tree like::

    job cosmos/dfs            1.84s
    ├── trace_gen             0.31s
    └── simulate              1.52s

A :class:`SpanRecorder` collects completed spans.  When no recorder is
installed (observability off) :func:`span` returns a shared no-op context
manager — entering it allocates nothing and times nothing.

The recorded tree exports two ways: :meth:`SpanRecorder.to_dict` for the
run manifest, and :meth:`SpanRecorder.to_chrome_trace` as the Chrome
``chrome://tracing`` / Perfetto JSON array format (complete events,
``ph: "X"``, microsecond timestamps).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional


class Span:
    """One completed (or in-flight) timed phase."""

    __slots__ = ("name", "meta", "start_s", "duration_s", "children")

    def __init__(self, name: str, meta: Optional[Dict[str, object]] = None) -> None:
        self.name = name
        self.meta = meta or {}
        self.start_s = 0.0
        self.duration_s = 0.0
        self.children: List["Span"] = []

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "name": self.name,
            "start_s": round(self.start_s, 6),
            "duration_s": round(self.duration_s, 6),
        }
        if self.meta:
            data["meta"] = dict(self.meta)
        if self.children:
            data["children"] = [child.to_dict() for child in self.children]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Span":
        span = cls(str(data["name"]), dict(data.get("meta", {})) or None)
        span.start_s = float(data.get("start_s", 0.0))
        span.duration_s = float(data.get("duration_s", 0.0))
        span.children = [cls.from_dict(c) for c in data.get("children", [])]
        return span


class _SpanContext:
    """Context manager pushing one span onto a recorder's stack."""

    __slots__ = ("_recorder", "_span")

    def __init__(self, recorder: "SpanRecorder", span_obj: Span) -> None:
        self._recorder = recorder
        self._span = span_obj

    def __enter__(self) -> Span:
        self._recorder._push(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._recorder._pop(self._span)


class _NullSpanContext:
    """Shared do-nothing span used when no recorder is active."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpanContext()


class SpanRecorder:
    """Collects a tree of spans relative to its own start time."""

    def __init__(self, name: str = "run") -> None:
        self.name = name
        self.started_s = time.perf_counter()
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    # -- recording -----------------------------------------------------
    def span(self, name: str, **meta: object) -> _SpanContext:
        """A context manager timing phase ``name`` under the current span."""
        return _SpanContext(self, Span(name, meta or None))

    def _push(self, span_obj: Span) -> None:
        span_obj.start_s = time.perf_counter() - self.started_s
        if self._stack:
            self._stack[-1].children.append(span_obj)
        else:
            self.roots.append(span_obj)
        self._stack.append(span_obj)

    def _pop(self, span_obj: Span) -> None:
        span_obj.duration_s = time.perf_counter() - self.started_s - span_obj.start_s
        # Exceptions can unwind several spans at once; pop to the matching one.
        while self._stack:
            top = self._stack.pop()
            if top is span_obj:
                break

    # -- export --------------------------------------------------------
    def total_time(self) -> float:
        """Wall time covered by the top-level spans."""
        return sum(span.duration_s for span in self.roots)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "total_s": round(self.total_time(), 6),
            "spans": [span.to_dict() for span in self.roots],
        }

    def to_chrome_trace(self, pid: Optional[int] = None, tid: Optional[int] = None) -> List[Dict[str, object]]:
        """Flatten into Chrome-trace complete events (``ph: "X"``)."""
        pid = pid if pid is not None else os.getpid()
        tid = tid if tid is not None else threading.get_ident() % 100_000
        events: List[Dict[str, object]] = []

        def emit(span_obj: Span) -> None:
            event: Dict[str, object] = {
                "name": span_obj.name,
                "ph": "X",
                "ts": round(span_obj.start_s * 1e6, 1),
                "dur": round(span_obj.duration_s * 1e6, 1),
                "pid": pid,
                "tid": tid,
            }
            if span_obj.meta:
                event["args"] = {k: str(v) for k, v in span_obj.meta.items()}
            events.append(event)
            for child in span_obj.children:
                emit(child)

        for root in self.roots:
            emit(root)
        return events


# ----------------------------------------------------------------------
# Module-level "current recorder" plumbing
# ----------------------------------------------------------------------
_CURRENT: Optional[SpanRecorder] = None


def install_recorder(recorder: Optional[SpanRecorder]) -> Optional[SpanRecorder]:
    """Make ``recorder`` the process's active recorder; returns the old one."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = recorder
    return previous


def active_recorder() -> Optional[SpanRecorder]:
    """The currently installed recorder, if any."""
    return _CURRENT


def span(name: str, **meta: object):
    """Time phase ``name`` on the active recorder (no-op when none)."""
    recorder = _CURRENT
    if recorder is None:
        return _NULL_SPAN
    return recorder.span(name, **meta)


class recording:
    """``with recording(recorder):`` — install/restore around a block.

    Accepts ``None`` so callers can write ``with recording(rec or None):``
    unconditionally; the null case installs nothing and restores nothing.
    """

    __slots__ = ("_recorder", "_previous")

    def __init__(self, recorder: Optional[SpanRecorder]) -> None:
        self._recorder = recorder
        self._previous: Optional[SpanRecorder] = None

    def __enter__(self) -> Optional[SpanRecorder]:
        if self._recorder is not None:
            self._previous = install_recorder(self._recorder)
        return self._recorder

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._recorder is not None:
            install_recorder(self._previous)
