"""Windowed time-series sampling of a running simulation.

Every N accesses the :class:`SimSampler` snapshots the cumulative counters
a design already maintains (``design.obs_counters()``) and derives
**windowed** signals from the deltas — CTR-cache hit rate, Merkle-tree
verify depth, DRAM row-buffer hit rate, RL predictor behaviour — so a
drifting predictor or a thrashing cache shows up *when it happens*, not
just in the end-of-run averages.  Designs can contribute custom probes via
``design.obs_probes()``; each probe is a zero-argument callable sampled
once per window.

The collected series is a columnar :class:`TimeSeries` saved as a compact
``.npz`` (or JSONL when numpy is unavailable) next to the run's results.
Nothing here runs on the simulator's hot path: the sampler is invoked from
the existing progress-hook slot of ``Simulator.run``, which the hookless
fast loops never touch when observability is off.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .events import EventRing

#: Environment knob for the sampling window (accesses per sample).
INTERVAL_ENV = "REPRO_OBS_INTERVAL"

#: Default sampling window.
DEFAULT_INTERVAL = 10_000

#: Windowed overflow count that flags a re-encryption storm event.
STORM_THRESHOLD = 32

#: Derived windowed signals: name -> (numerator keys, denominator keys).
#: A signal is emitted only when every key exists in the design's counter
#: snapshot; the value is sum(d numer) / sum(d denom) over the window.
RATE_SIGNALS: Sequence[Tuple[str, Tuple[str, ...], Tuple[str, ...]]] = (
    ("ctr_hit_rate", ("ctr_hits",), ("ctr_hits", "ctr_misses")),
    ("mt_verify_depth", ("mt_nodes_fetched",), ("mt_traversals",)),
    ("dram_row_hit_rate", ("dram_row_hits",), ("dram_requests",)),
    ("dram_queue_wait_per_request", ("dram_queue_cycles",), ("dram_requests",)),
    ("dram_write_share", ("dram_writes",), ("dram_requests",)),
    ("llc_miss_rate", ("llc_misses",), ("accesses",)),
    ("latency_per_access", ("total_latency",), ("accesses",)),
    ("rl_location_accuracy", ("loc_correct",), ("loc_graded",)),
    ("rl_exploration_fraction", ("rl_explorations",), ("rl_selections",)),
    ("rl_good_locality_fraction", ("ctrpred_good",), ("ctrpred_total",)),
    ("reencryptions_per_write", ("ctr_overflows",), ("writes_seen",)),
)


def sample_interval() -> int:
    """Sampling window honouring ``REPRO_OBS_INTERVAL``."""
    try:
        value = int(os.environ.get(INTERVAL_ENV, DEFAULT_INTERVAL))
    except ValueError:
        return DEFAULT_INTERVAL
    return max(1, value)


class TimeSeries:
    """Columnar samples over an access-count axis."""

    def __init__(self, interval: int, meta: Optional[Dict[str, object]] = None) -> None:
        self.interval = interval
        self.axis: List[int] = []
        self.columns: Dict[str, List[float]] = {}
        self.meta: Dict[str, object] = dict(meta or {})

    def append(self, at: int, values: Dict[str, float]) -> None:
        """Add one sample row; new columns backfill earlier rows with NaN."""
        self.axis.append(at)
        n = len(self.axis)
        for name, value in values.items():
            column = self.columns.get(name)
            if column is None:
                column = [math.nan] * (n - 1)
                self.columns[name] = column
            column.append(float(value))
        for name, column in self.columns.items():
            if len(column) < n:
                column.append(math.nan)

    def __len__(self) -> int:
        return len(self.axis)

    @property
    def signals(self) -> List[str]:
        return sorted(self.columns)

    # -- persistence ---------------------------------------------------
    def save(self, path: Path) -> Path:
        """Write the series to ``path`` (``.npz`` preferred, JSONL fallback).

        Returns the path actually written, which may swap the suffix when
        numpy is unavailable.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        meta = dict(self.meta)
        meta["interval"] = self.interval
        try:
            import numpy as np
        except ImportError:  # pragma: no cover - numpy is a core dep here
            return self._save_jsonl(path.with_suffix(".jsonl"), meta)
        arrays = {"accesses": np.asarray(self.axis, dtype=np.int64)}
        for name, column in self.columns.items():
            arrays[name] = np.asarray(column, dtype=np.float64)
        arrays["_meta"] = np.frombuffer(
            json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8
        )
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        return path

    def _save_jsonl(self, path: Path, meta: Dict[str, object]) -> Path:
        lines = [json.dumps({"_meta": meta}, sort_keys=True)]
        for i, at in enumerate(self.axis):
            row: Dict[str, object] = {"accesses": at}
            for name, column in self.columns.items():
                value = column[i]
                row[name] = None if math.isnan(value) else value
            lines.append(json.dumps(row, sort_keys=True))
        path.write_text("\n".join(lines) + "\n")
        return path

    @classmethod
    def load(cls, path: Path) -> "TimeSeries":
        """Read a series previously written by :meth:`save`."""
        path = Path(path)
        if path.suffix == ".jsonl":
            return cls._load_jsonl(path)
        import numpy as np

        with np.load(path) as data:
            meta: Dict[str, object] = {}
            if "_meta" in data.files:
                meta = json.loads(bytes(data["_meta"].tobytes()).decode())
            series = cls(int(meta.pop("interval", DEFAULT_INTERVAL)), meta)
            series.axis = [int(v) for v in data["accesses"]]
            for name in data.files:
                if name in ("accesses", "_meta"):
                    continue
                series.columns[name] = [float(v) for v in data[name]]
        return series

    @classmethod
    def _load_jsonl(cls, path: Path) -> "TimeSeries":
        rows = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
        meta = rows[0].get("_meta", {}) if rows else {}
        series = cls(int(meta.pop("interval", DEFAULT_INTERVAL)), meta)
        for row in rows[1:]:
            at = int(row.pop("accesses"))
            series.append(at, {k: (math.nan if v is None else float(v))
                               for k, v in row.items()})
        return series

    # -- analysis ------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-signal ``{mean, min, max, last}`` ignoring NaN windows."""
        out: Dict[str, Dict[str, float]] = {}
        for name in self.signals:
            values = [v for v in self.columns[name] if not math.isnan(v)]
            if not values:
                continue
            out[name] = {
                "mean": sum(values) / len(values),
                "min": min(values),
                "max": max(values),
                "last": values[-1],
            }
        return out


class SimSampler:
    """Progress-hook callable snapshotting a simulator every window.

    Args:
        simulator: The :class:`~repro.sim.simulator.Simulator` to observe.
        interval: Accesses per sample (default: :func:`sample_interval`).
        events: Ring to record detected events into (a fresh ring when
            ``None``); the engine's direct overflow events share this ring.
        storm_threshold: Windowed counter-overflow count that constitutes a
            re-encryption storm.
    """

    def __init__(
        self,
        simulator,
        interval: Optional[int] = None,
        events: Optional[EventRing] = None,
        storm_threshold: int = STORM_THRESHOLD,
    ) -> None:
        self.simulator = simulator
        self.interval = interval if interval is not None else sample_interval()
        self.events = events if events is not None else EventRing()
        self.storm_threshold = storm_threshold
        design = simulator.design
        self.series = TimeSeries(
            self.interval,
            meta={"design": design.name, "workload": simulator.workload},
        )
        self._probes: Dict[str, Callable[[], float]] = design.obs_probes()
        self._prev: Dict[str, int] = self._snapshot()
        self._prev_good: Optional[bool] = None
        self._last_at = -1

    def _snapshot(self) -> Dict[str, int]:
        counters = self.simulator.design.obs_counters()
        counters["total_latency"] = self.simulator.total_latency
        return counters

    def __call__(self, done: int, simulator=None) -> None:
        self.sample(done)

    def sample(self, done: int) -> None:
        """Take one windowed sample at access count ``done``."""
        if done == self._last_at:
            return
        self._last_at = done
        current = self._snapshot()
        prev = self._prev
        self._prev = current
        values: Dict[str, float] = {}
        for name, numer_keys, denom_keys in RATE_SIGNALS:
            if any(k not in current for k in numer_keys + denom_keys):
                continue
            numer = sum(current[k] - prev.get(k, 0) for k in numer_keys)
            denom = sum(current[k] - prev.get(k, 0) for k in denom_keys)
            values[name] = numer / denom if denom else math.nan
        for name, probe in self._probes.items():
            try:
                values[name] = float(probe())
            except Exception:  # pragma: no cover - probes must never kill a run
                values[name] = math.nan
        self.series.append(done, values)
        self._detect_events(done, current, prev, values)

    def finish(self, done: int) -> None:
        """Take the final (possibly partial) window at end of run."""
        if done > 0 and done != self._last_at:
            self.sample(done)

    def _detect_events(
        self,
        done: int,
        current: Dict[str, int],
        prev: Dict[str, int],
        values: Dict[str, float],
    ) -> None:
        overflows = current.get("ctr_overflows", 0) - prev.get("ctr_overflows", 0)
        if overflows >= self.storm_threshold:
            self.events.record(
                "reencryption_storm", at=done, overflows=overflows,
                window=self.interval,
            )
        good = values.get("rl_good_locality_fraction")
        if good is not None and not math.isnan(good):
            mode = good >= 0.5
            if self._prev_good is not None and mode != self._prev_good:
                self.events.record(
                    "predictor_mode_flip", at=done,
                    direction="good" if mode else "bad",
                    good_fraction=round(good, 4),
                )
            self._prev_good = mode
