"""Progress and telemetry for experiment runs.

Two consumers, two shapes:

* a **live stderr ticker** for humans watching a long sweep — jobs
  done/total, cache hit rate, running workers, elapsed wall time — which
  stays silent when stderr is not a terminal (or ``REPRO_NO_TICKER`` is
  set); the closing summary line is emitted through the ``repro.exec``
  logger, so even fully silent runs end with their totals;
* a **machine-readable run manifest** (JSON, version 3) recording per-job
  status, attempts, wall time and cache provenance, run-level aggregates,
  and — when observability is on — the orchestrator's phase-span tree.
  Written atomically next to the result cache; ``repro obs summarize``
  reads it.
"""

from __future__ import annotations

import os
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..obs import log as obs_log

#: Manifest layout version.  v2 added the ``spans`` and ``metrics`` keys;
#: v3 removed ``metrics``, ``run_id``, ``pid`` and ``trace``.
MANIFEST_VERSION = 3

#: Fallback ticker width when the terminal size cannot be determined.
_FALLBACK_COLUMNS = 80


@dataclass
class JobRecord:
    """Telemetry for a single job in one run."""

    job_hash: str
    design: str
    workload: str
    status: str  # "cached" | "ok" | "failed" | "timeout"
    attempts: int = 0
    wall_time: float = 0.0
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "job_hash": self.job_hash,
            "design": self.design,
            "workload": self.workload,
            "status": self.status,
            "attempts": self.attempts,
            "wall_time_s": round(self.wall_time, 4),
        }
        if self.error is not None:
            data["error"] = self.error
        return data


@dataclass
class RunReport:
    """Aggregated telemetry for one :class:`~repro.exec.runner.ParallelRunner` run."""

    jobs_requested: int = 1
    workers: int = 1
    mode: str = "serial"  # "serial" | "pool" | "pool+serial"
    #: Where the worker count came from ("default", "env", "flag", "auto",
    #: "explicit") — makes a manifest's parallelism explainable later.
    jobs_source: str = "explicit"
    #: Submitted cells that collapsed onto another cell's content hash and
    #: fanned out that job's result instead of executing again.
    duplicates: int = 0
    records: List[JobRecord] = field(default_factory=list)
    wall_time: float = 0.0
    manifest_path: Optional[Path] = None
    #: Span tree of the run (``SpanRecorder.to_dict()``), when observability
    #: recorded one.
    spans: Optional[Dict[str, object]] = None

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def cache_hits(self) -> int:
        return sum(1 for record in self.records if record.status == "cached")

    @property
    def completed(self) -> int:
        return sum(1 for record in self.records if record.status in ("ok", "cached"))

    @property
    def failed(self) -> int:
        return self.total - self.completed

    @property
    def cache_hit_rate(self) -> float:
        if self.total == 0:
            return 0.0
        return self.cache_hits / self.total

    @property
    def simulated_time(self) -> float:
        """Summed wall time of jobs that actually simulated."""
        return sum(r.wall_time for r in self.records if r.status != "cached")

    @property
    def worker_utilisation(self) -> float:
        """Busy-time over capacity: ``sum(job time) / (workers * elapsed)``."""
        if self.wall_time <= 0.0 or self.workers <= 0:
            return 0.0
        return min(1.0, self.simulated_time / (self.workers * self.wall_time))

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "manifest_version": MANIFEST_VERSION,
            "jobs_requested": self.jobs_requested,
            "workers": self.workers,
            "mode": self.mode,
            "jobs_source": self.jobs_source,
            "totals": {
                "jobs": self.total,
                "duplicates": self.duplicates,
                "completed": self.completed,
                "failed": self.failed,
                "cache_hits": self.cache_hits,
                "cache_hit_rate": round(self.cache_hit_rate, 4),
                "wall_time_s": round(self.wall_time, 4),
                "simulated_time_s": round(self.simulated_time, 4),
                "worker_utilisation": round(self.worker_utilisation, 4),
            },
            "spans": self.spans,
            "jobs": [record.to_dict() for record in self.records],
        }
        return data

    def write_manifest(self, directory: Path) -> Optional[Path]:
        """Atomically write the manifest into ``directory``; best-effort.

        The file is named ``run-<UTC second>.<nanoseconds>-<pid>.json``, so
        name order is write order and the last name is the newest run.
        """
        from .cache import write_json_atomic

        now_ns = time.time_ns()
        stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime(now_ns // 10**9))
        path = Path(directory) / (
            f"run-{stamp}.{now_ns % 10**9:09d}-{os.getpid()}.json")
        try:
            write_json_atomic(path, self.to_dict())
        except OSError:
            return None
        self.manifest_path = path
        return path

    def summary_line(self) -> str:
        """One human-readable line describing the run."""
        parts = [
            f"{self.total} jobs in {self.wall_time:.1f}s",
            f"{self.total - self.cache_hits} simulated",
            f"{self.cache_hits} cache hits ({100 * self.cache_hit_rate:.0f}%)",
            f"{self.workers} worker{'s' if self.workers != 1 else ''} ({self.mode})",
        ]
        if self.duplicates:
            parts.insert(1, f"{self.duplicates} deduped")
        if self.failed:
            parts.append(f"{self.failed} FAILED")
        if self.manifest_path is not None:
            parts.append(f"manifest {self.manifest_path}")
        return " · ".join(parts)


class ProgressTicker:
    """Single-line live progress display on stderr.

    Enabled only when stderr is a TTY and ``REPRO_NO_TICKER`` is unset;
    otherwise the drawing methods are no-ops, making the ticker safe to
    drive unconditionally from the runner.  The line is clamped to the
    terminal width (re-read on every draw, so resizes are honoured), and
    :meth:`close` always emits the final summary through the ``repro.exec``
    logger — silent runs still end with their totals.
    """

    def __init__(self, total: int, enabled: Optional[bool] = None,
                 min_interval: float = 0.1) -> None:
        if enabled is None:
            enabled = sys.stderr.isatty() and not os.environ.get("REPRO_NO_TICKER")
        self.total = total
        self.enabled = enabled
        self.min_interval = min_interval
        self._started = time.monotonic()
        self._last_draw = 0.0
        self._last_width = 0
        self._dirty = False
        if self.enabled:
            obs_log.register_ticker(self)

    @staticmethod
    def _columns() -> int:
        """Current terminal width (safe fallback when undetectable)."""
        try:
            columns = shutil.get_terminal_size(fallback=(_FALLBACK_COLUMNS, 24)).columns
        except (OSError, ValueError):  # pragma: no cover - degenerate env
            columns = _FALLBACK_COLUMNS
        return max(20, columns)

    def update(self, done: int, cache_hits: int, running: int, force: bool = False) -> None:
        """Redraw the ticker line (rate-limited unless ``force``)."""
        if not self.enabled:
            return
        now = time.monotonic()
        if not force and now - self._last_draw < self.min_interval:
            self._dirty = True
            return
        self._last_draw = now
        self._dirty = False
        elapsed = now - self._started
        line = (
            f"[repro.exec] {done}/{self.total} jobs"
            f" · {cache_hits} cached · {running} running · {elapsed:.1f}s"
        )
        # Clamp to the terminal: an overlong line would wrap and leave
        # stale fragments that \r can no longer overwrite.
        width = self._columns() - 1
        if len(line) > width:
            line = line[: max(0, width - 1)] + "…"
        self._last_width = max(self._last_width, len(line))
        sys.stderr.write("\r" + line.ljust(min(self._last_width, width)))
        sys.stderr.flush()

    def clear_line(self) -> None:
        """Erase the current ticker line (log handler hook)."""
        if self.enabled and self._last_width:
            sys.stderr.write("\r" + " " * min(self._last_width, self._columns() - 1) + "\r")
            sys.stderr.flush()

    def close(self, summary: Optional[str] = None) -> None:
        """Terminate the ticker line and emit the final summary.

        The summary goes through the ``repro.exec`` logger, so it appears
        whether or not the live ticker was enabled — a run can be silent
        while in flight but never ends without its totals.
        """
        self.clear_line()
        if self.enabled:
            obs_log.unregister_ticker(self)
        if summary is not None:
            obs_log.setup_logging()
            obs_log.get_logger("exec").info("%s", summary)
