"""``repro.obs`` — zero-overhead-when-off observability.

One switch (``REPRO_OBS=1`` or :func:`set_enabled`) turns on three
cooperating facilities:

* **phase spans** (:mod:`repro.obs.spans`) — ``with span("trace_gen"):``
  builds a hierarchical wall-time breakdown exportable as Chrome-trace
  JSON; with no recorder installed, ``span()`` is a shared no-op;
* **windowed time-series** (:mod:`repro.obs.timeseries`) — every N
  accesses the simulator snapshots CTR-cache hit rate, MT verify depth,
  DRAM row-buffer hit rate and RL predictor state into an ``.npz``
  artifact;
* an **event ring** (:mod:`repro.obs.events`) — a bounded buffer of rare,
  high-value events (counter-overflow re-encryption, storms, predictor
  mode flips).

An observed run leaves one artifact directory per job
(:mod:`repro.obs.artifacts`) and a run manifest carrying the
orchestrator's span tree (:class:`~repro.exec.telemetry.RunReport`).

The cardinal rule: with observability off, the simulator's hot loops are
*byte-for-byte the same code path as before* — the only cost is one
``enabled()`` check per ``Simulator.run`` call.  The golden-metrics tests
enforce metric neutrality.
"""

from __future__ import annotations

import os
from typing import Optional

from .events import EventRing, load_jsonl
from .log import get_logger, setup_logging
from .spans import (
    Span,
    SpanRecorder,
    active_recorder,
    install_recorder,
    recording,
    span,
)
from .timeseries import SimSampler, TimeSeries, sample_interval

#: Environment switch; "0"/"false"/"no"/"" count as off.
OBS_ENV = "REPRO_OBS"

_FALSY = ("", "0", "false", "no", "off")

#: Explicit override; ``None`` defers to the environment.
_ENABLED: Optional[bool] = None


def enabled() -> bool:
    """Is observability on (override first, else ``REPRO_OBS``)?"""
    if _ENABLED is not None:
        return _ENABLED
    return os.environ.get(OBS_ENV, "").strip().lower() not in _FALSY


def set_enabled(value: Optional[bool]) -> None:
    """Force observability on/off; ``None`` restores environment control."""
    global _ENABLED
    _ENABLED = value


class overridden:
    """``with overridden(False):`` — temporarily force the switch.

    The perf harness measures with observability force-disabled so the
    tracked baseline never silently includes instrumentation cost.
    """

    __slots__ = ("_value", "_previous")

    def __init__(self, value: Optional[bool]) -> None:
        self._value = value
        self._previous: Optional[bool] = None

    def __enter__(self) -> None:
        global _ENABLED
        self._previous = _ENABLED
        _ENABLED = self._value

    def __exit__(self, exc_type, exc, tb) -> None:
        global _ENABLED
        _ENABLED = self._previous


def reset() -> None:
    """Return to a pristine state (tests): env-controlled, no installed
    span recorder."""
    set_enabled(None)
    install_recorder(None)


__all__ = [
    "EventRing",
    "OBS_ENV",
    "SimSampler",
    "Span",
    "SpanRecorder",
    "TimeSeries",
    "active_recorder",
    "enabled",
    "get_logger",
    "install_recorder",
    "load_jsonl",
    "overridden",
    "recording",
    "reset",
    "sample_interval",
    "set_enabled",
    "setup_logging",
    "span",
]
