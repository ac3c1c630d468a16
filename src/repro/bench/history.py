"""Perf-regression observatory: append-only benchmark history.

``BENCH_hotpath.json`` is a single overwritten snapshot — good for a diff,
blind to slow drift.  This module keeps the longitudinal record:
:func:`append_history` distils each perf-harness payload into one JSONL
line (git sha, timestamp, per-``design@path`` throughput, the DRAM
microbench rate) appended to ``BENCH_history.jsonl``, and
:func:`analyze_trend` compares the newest entry against the **median of
the last N comparable runs** — flagging drifts well below the blunt ≤3%
CI gate before they compound into one.

Entries are only comparable when the workload is identical, so the trend
analyzer partitions on the ``trace`` block (n/seed/write fraction) and the
Python minor version before computing medians.  ``repro obs bench-trend``
is the CLI surface.
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional

#: Default history file name (repo root, next to BENCH_hotpath.json).
HISTORY_FILENAME = "BENCH_history.jsonl"

#: History record schema; bump on incompatible shape changes.
HISTORY_SCHEMA = "repro.bench.history/v1"

#: Comparable previous runs folded into the trend median.
DEFAULT_WINDOW = 5

#: Relative drop below the median that gets flagged (1% — a third of the
#: hard CI gate, so drift is visible long before it trips the gate).
DEFAULT_THRESHOLD = 0.01


def git_sha(cwd: Optional[Path] = None) -> Optional[str]:
    """The current commit's short sha, or ``None`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def history_entry(payload: Dict[str, object],
                  sha: Optional[str] = None,
                  now: Optional[int] = None) -> Dict[str, object]:
    """Distil one perf-harness payload into a history record."""
    throughput: Dict[str, float] = {}
    for key, entry in (payload.get("results") or {}).items():
        rate = entry.get("accesses_per_sec") if isinstance(entry, dict) else None
        if rate:
            throughput[str(key)] = round(float(rate), 1)
    record: Dict[str, object] = {
        "schema": HISTORY_SCHEMA,
        "ts": int(now if now is not None else time.time()),
        "sha": sha if sha is not None else git_sha(),
        "python": platform.python_version(),
        "trace": payload.get("trace") or {},
        "throughput": throughput,
    }
    dram = payload.get("dram_microbench")
    if isinstance(dram, dict) and dram.get("requests_per_sec"):
        record["dram_rps"] = round(float(dram["requests_per_sec"]), 1)
    return record


def append_history(payload: Dict[str, object], path: Path,
                   sha: Optional[str] = None) -> Optional[Dict[str, object]]:
    """Append one record for ``payload`` to ``path``; best-effort.

    Returns the appended record, or ``None`` when the file could not be
    written (history must never fail a benchmark run).
    """
    record = history_entry(payload, sha=sha)
    try:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a") as handle:
            handle.write(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")) + "\n")
    except OSError:
        return None
    return record


def load_history(path: Path) -> List[Dict[str, object]]:
    """Every readable record in ``path``, oldest first."""
    records: List[Dict[str, object]] = []
    try:
        text = Path(path).read_text()
    except OSError:
        return records
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue  # a torn append must not poison the whole history
        if isinstance(record, dict):
            records.append(record)
    return records


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _comparable(a: Dict[str, object], b: Dict[str, object]) -> bool:
    """Same workload and interpreter generation → rates are comparable."""
    if a.get("trace") != b.get("trace"):
        return False
    pa, pb = str(a.get("python", "")), str(b.get("python", ""))
    return pa.rsplit(".", 1)[0] == pb.rsplit(".", 1)[0]


def _rates(record: Dict[str, object]) -> Dict[str, float]:
    rates = {str(k): float(v)
             for k, v in (record.get("throughput") or {}).items() if v}
    if record.get("dram_rps"):
        rates["dram_rps"] = float(record["dram_rps"])
    return rates


def analyze_trend(
    records: Iterable[Dict[str, object]],
    window: int = DEFAULT_WINDOW,
    threshold: float = DEFAULT_THRESHOLD,
) -> Dict[str, object]:
    """Latest run vs. the median of the last ``window`` comparable runs.

    Returns ``{"latest": record, "baseline_runs": n, "keys": {key: {...}}}``
    where each key entry carries ``latest``, ``median``, ``drift`` (signed
    relative change) and ``flag`` (drift below ``-threshold``).  With no
    comparable history, ``keys`` is empty and nothing is flagged.
    """
    history = [r for r in records if isinstance(r, dict)]
    if not history:
        return {"latest": None, "baseline_runs": 0, "keys": {}, "flags": []}
    latest = history[-1]
    baseline = [r for r in history[:-1] if _comparable(latest, r)][-window:]
    latest_rates = _rates(latest)
    keys: Dict[str, Dict[str, object]] = {}
    flags: List[str] = []
    for key in sorted(latest_rates):
        samples = [_rates(r).get(key) for r in baseline]
        samples = [s for s in samples if s]
        if not samples:
            continue
        median = _median(samples)
        drift = latest_rates[key] / median - 1.0 if median else 0.0
        flagged = drift < -threshold
        keys[key] = {
            "latest": latest_rates[key],
            "median": round(median, 1),
            "runs": len(samples),
            "drift": round(drift, 4),
            "flag": flagged,
        }
        if flagged:
            flags.append(key)
    return {"latest": latest, "baseline_runs": len(baseline),
            "keys": keys, "flags": flags}


def format_trend(analysis: Dict[str, object],
                 threshold: float = DEFAULT_THRESHOLD) -> str:
    """Human-readable trend table, flagged keys marked."""
    latest = analysis.get("latest")
    if not latest:
        return "no history recorded yet"
    lines = [
        f"latest: sha={latest.get('sha') or '?'}"
        f" ts={latest.get('ts')} python={latest.get('python')}"
        f" · baseline: median of {analysis.get('baseline_runs', 0)}"
        f" comparable run(s)"
    ]
    keys: Dict[str, Dict[str, object]] = analysis.get("keys", {})
    if not keys:
        lines.append("no comparable baseline runs — nothing to compare")
        return "\n".join(lines)
    for key, entry in keys.items():
        marker = " ⚠ DRIFT" if entry["flag"] else ""
        lines.append(
            f"{key:>18}: {entry['latest']:>12,.0f} /s"
            f"  median {entry['median']:>12,.0f}"
            f"  drift {100 * entry['drift']:+.2f}%"
            f" (n={entry['runs']}){marker}"
        )
    flags = analysis.get("flags", [])
    if flags:
        lines.append(
            f"{len(flags)} key(s) drifted more than {threshold:.1%} below "
            f"their median: {', '.join(flags)}")
    else:
        lines.append(f"all keys within {threshold:.1%} of their medians")
    return "\n".join(lines)
