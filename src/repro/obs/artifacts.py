"""On-disk layout of observability artifacts.

Artifacts live next to the result cache, under ``<cache_dir>/obs/``::

    obs/
      <job_hash16>/
        job.json           # design, workload, accesses, signal inventory
        timeseries.npz     # windowed signals (TimeSeries.save)
        spans.trace.json   # Chrome-trace JSON of the job's phase spans
        events.jsonl       # retained ring events, one JSON object per line

The span tree of a whole sweep is embedded in the run manifest written by
:class:`~repro.exec.telemetry.RunReport` under ``<cache_dir>/manifests/``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

from .events import EventRing
from .spans import SpanRecorder
from .timeseries import SimSampler

#: Directory name under the cache root.
OBS_DIRNAME = "obs"

#: Hash prefix length used for job artifact directories.
HASH_PREFIX = 16


def obs_root(cache_root: Path) -> Path:
    """The observability artifact root under ``cache_root``."""
    return Path(cache_root) / OBS_DIRNAME


def job_dir(root: Path, job_hash: str) -> Path:
    """Artifact directory for one job hash."""
    return Path(root) / job_hash[:HASH_PREFIX]


def write_chrome_trace(path: Path, recorder: SpanRecorder) -> Path:
    """Write ``recorder`` as a Chrome ``chrome://tracing`` JSON array."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(recorder.to_chrome_trace(), indent=1) + "\n")
    return path


def write_job_artifacts(
    root: Path,
    job_hash: str,
    recorder: Optional[SpanRecorder] = None,
    sampler: Optional[SimSampler] = None,
    events: Optional[EventRing] = None,
    meta: Optional[Dict[str, object]] = None,
) -> Dict[str, Path]:
    """Persist one job's observability artifacts; returns written paths.

    Best-effort: an unwritable cache directory downgrades observability to
    in-memory only rather than failing the job.
    """
    directory = job_dir(root, job_hash)
    written: Dict[str, Path] = {}
    try:
        directory.mkdir(parents=True, exist_ok=True)
        payload: Dict[str, object] = {"job_hash": job_hash}
        payload.update(meta or {})
        if sampler is not None:
            written["timeseries"] = sampler.series.save(directory / "timeseries.npz")
            payload["signals"] = sampler.series.signals
            payload["samples"] = len(sampler.series)
            payload["interval"] = sampler.series.interval
        if recorder is not None:
            written["trace"] = write_chrome_trace(directory / "spans.trace.json", recorder)
            payload["spans"] = recorder.to_dict()
        ring = events if events is not None else (sampler.events if sampler else None)
        if ring is not None:
            (directory / "events.jsonl").write_text(ring.to_jsonl() + "\n")
            written["events"] = directory / "events.jsonl"
            payload["events"] = ring.summary()
        meta_path = directory / "job.json"
        meta_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        written["meta"] = meta_path
    except OSError:
        return {}
    return written


def list_jobs(root: Path) -> List[Path]:
    """Job artifact directories under ``root`` (those with a ``job.json``)."""
    root = Path(root)
    if not root.is_dir():
        return []
    return sorted(p for p in root.iterdir() if (p / "job.json").is_file())


def load_job_meta(directory: Path) -> Dict[str, object]:
    """The ``job.json`` payload of one artifact directory."""
    return json.loads((Path(directory) / "job.json").read_text())


def latest_manifest(manifest_dir: Path) -> Optional[Path]:
    """Most recent ``run-*.json`` manifest, or ``None``.

    Manifest names sort in write order
    (:meth:`~repro.exec.telemetry.RunReport.write_manifest`), so the last
    name is the newest run.
    """
    directory = Path(manifest_dir)
    if not directory.is_dir():
        return None
    # Skip the merged-trace siblings that older versions wrote beside
    # their manifests.
    candidates = sorted(p for p in directory.glob("run-*.json")
                        if not p.name.endswith(".trace.json"))
    return candidates[-1] if candidates else None
