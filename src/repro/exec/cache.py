"""Content-addressed, on-disk cache of simulation results.

Entries are JSON files named by the job's content hash.  The cache is
safe for concurrent writers (atomic temp-file + ``os.replace`` writes;
racing writers of the same key keep the first winner instead of
clobbering it), tolerates corrupt or truncated entries (they read as
misses and are deleted best-effort), sweeps tempfiles torn off by
crashed writers, and carries a ``cache_version`` field so incompatible
layout changes invalidate old entries instead of mis-reading them.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Optional

from ..sim.results import SimulationResult
from .jobs import JobSpec

#: Bump whenever the entry layout (or the meaning of cached metrics)
#: changes; old entries then miss cleanly.
CACHE_VERSION = 1

#: A ``*.tmp`` file untouched for this long was torn off by a crashed
#: writer — a live ``write_json_atomic`` holds its tempfile for
#: milliseconds, so an hour is conservatively past any plausible write.
TMP_SWEEP_AGE_S = 3600.0


def write_json_atomic(path: Path, payload: object) -> None:
    """Write ``payload`` as JSON to ``path`` without exposing torn files.

    The data lands in a temporary file in the destination directory and is
    moved into place with :func:`os.replace`, which is atomic on POSIX —
    concurrent readers see either the old entry or the new one, never a
    partial write.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.stem + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "w") as stream:
            json.dump(payload, stream)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class ResultCache:
    """Persist :class:`SimulationResult` records keyed by job content hash.

    Attributes:
        directory: Where entries live (created lazily on first write).
        hits / misses: Lookup counters for telemetry.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0

    def path_for(self, job_hash: str) -> Path:
        """Entry path for ``job_hash``."""
        return self.directory / f"{job_hash}.json"

    def get(self, job_hash: str) -> Optional[SimulationResult]:
        """The cached result for ``job_hash``, or ``None`` on any miss.

        Unreadable, corrupt, mismatched-version or wrong-hash entries all
        count as misses; corrupt files are removed best-effort so they do
        not keep costing a failed parse.
        """
        path = self.path_for(job_hash)
        try:
            with open(path) as stream:
                entry = json.load(stream)
            if entry.get("cache_version") != CACHE_VERSION:
                raise ValueError("cache version mismatch")
            if entry.get("job_hash") != job_hash:
                raise ValueError("entry/job hash mismatch")
            result = SimulationResult.from_dict(entry["result"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self.hits += 1
        return result

    def put(self, spec: JobSpec, result: SimulationResult, job_hash: Optional[str] = None) -> bool:
        """Persist ``result`` for ``spec``; failures are non-fatal.

        Returns ``True`` when this call wrote the entry.  When several
        processes race on one key — two runs sharing one cache directory
        that finish the same deterministic job — the first writer wins
        and later writers leave the entry alone: readers holding the
        winner's file open are never swapped to a different inode, and a
        half-corrupt loser can never replace a good entry.  Caching is
        best-effort throughout: a read-only or full disk degrades to
        recomputation, never to an error.
        """
        job_hash = job_hash if job_hash is not None else spec.content_hash()
        path = self.path_for(job_hash)
        try:
            if path.exists():
                return False  # concurrent winner already on disk
        except OSError:
            pass
        entry = {
            "cache_version": CACHE_VERSION,
            "job_hash": job_hash,
            "spec": spec.describe(),
            "result": result.to_dict(),
        }
        try:
            write_json_atomic(path, entry)
        except OSError:
            return False
        return True

    def sweep_tmp(self, max_age_s: float = TMP_SWEEP_AGE_S) -> int:
        """Remove tempfiles abandoned by crashed writers; returns the count.

        :func:`write_json_atomic` cleans its tempfile on every failure it
        can observe, but a killed process (OOM, SIGKILL, power loss) leaves
        the ``*.tmp`` behind.  Entries younger than ``max_age_s`` are kept
        — they may belong to a write in progress.
        """
        removed = 0
        cutoff = time.time() - max_age_s
        try:
            candidates = list(self.directory.glob("*.tmp"))
        except OSError:
            return 0
        for path in candidates:
            try:
                if path.stat().st_mtime <= cutoff:
                    path.unlink()
                    removed += 1
            except OSError:
                continue  # another sweeper won the race, or perms
        return removed

    @property
    def lookups(self) -> int:
        """Total ``get`` calls observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk (0.0 with no lookups)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups
