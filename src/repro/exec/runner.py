"""Parallel job execution with caching, per-job timeout and bounded retry.

:class:`ParallelRunner` takes a list of :class:`~repro.exec.jobs.JobSpec`
and returns ``{content_hash: SimulationResult}``:

1. duplicate cells (same content hash) collapse to one job;
2. the :class:`~repro.exec.cache.ResultCache` (when attached) answers
   hashes it has seen before — a warm sweep does near-zero simulation;
3. remaining jobs run on the shared :class:`~repro.exec.pool.WorkerPool`
   (``jobs > 1``) or inline in the parent process (``jobs == 1``, or when
   the platform refuses a process pool — e.g. a sandbox forbids
   subprocesses — in which case the runner degrades gracefully to serial
   execution);
4. a job that raises, or whose worker crashes, is resubmitted up to
   ``retries`` times; a job that exceeds ``timeout`` seconds is abandoned,
   its (possibly hung) worker pool is killed, and the job is retried like
   a failure, while the jobs killed beside it re-run without losing an
   attempt;
5. progress is surfaced on a live stderr ticker and collected into a
   :class:`~repro.exec.telemetry.RunReport`, optionally persisted as a
   JSON run manifest.

Simulation is deterministic given a spec, so serial and parallel execution
produce metric-identical results — the property the determinism test in
``tests/test_exec_runner.py`` pins down.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .. import obs
from ..sim.results import SimulationResult
from .cache import ResultCache
from .jobs import JobSpec
from .pool import Generation, PoolUnavailable, WorkerPool
from .telemetry import JobRecord, ProgressTicker, RunReport
from .worker import run_job


def dedupe_specs(specs: Iterable[JobSpec]) -> List[Tuple[str, JobSpec]]:
    """Collapse duplicate specs (same content hash), preserving order.

    Returns the ordered unique ``(content_hash, spec)`` pairs.  The number
    of collapsed duplicates is ``len(specs) - len(returned)``.
    """
    ordered: List[Tuple[str, JobSpec]] = []
    seen = set()
    for spec in specs:
        job_hash = spec.content_hash()
        if job_hash not in seen:
            seen.add(job_hash)
            ordered.append((job_hash, spec))
    return ordered


class ExecutionError(RuntimeError):
    """Raised when jobs are still failing after every allowed retry."""

    def __init__(self, failures: List[JobRecord]) -> None:
        self.failures = failures
        lines = ", ".join(
            f"{record.design}/{record.workload} ({record.status}: {record.error})"
            for record in failures[:5]
        )
        more = f" and {len(failures) - 5} more" if len(failures) > 5 else ""
        super().__init__(f"{len(failures)} job(s) failed: {lines}{more}")


class ParallelRunner:
    """Execute a batch of simulation jobs with caching and retries.

    Args:
        jobs: Worker processes; ``1`` runs everything in-process.
        cache: Optional :class:`ResultCache` consulted before execution
            and populated after.
        timeout: Per-job wall-clock limit in seconds.  Enforced in pool
            mode only — an in-process job cannot be preempted.
        retries: Resubmissions allowed per job after failure/timeout.
        fn: The job function (defaults to :func:`run_job`); injectable so
            tests can exercise retry/timeout machinery with stub jobs.
        manifest_dir: When set, a JSON run manifest is written here.
        ticker: Force the progress ticker on/off (default: auto-detect).
        strict: Raise :class:`ExecutionError` if any job exhausts its
            retries; with ``strict=False`` failed hashes are simply absent
            from the returned mapping.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        timeout: Optional[float] = None,
        retries: int = 1,
        fn: Callable[[JobSpec], SimulationResult] = run_job,
        manifest_dir: Optional[Path] = None,
        ticker: Optional[bool] = None,
        strict: bool = True,
        jobs_source: str = "explicit",
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.fn = fn
        self.manifest_dir = manifest_dir
        self.ticker_enabled = ticker
        self.strict = strict
        self.jobs_source = jobs_source
        self.report = RunReport()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, specs: List[JobSpec]) -> Dict[str, SimulationResult]:
        """Execute ``specs``; returns ``{content_hash: result}``."""
        started = time.monotonic()
        # In-matrix dedupe: identical cells execute once; every requester
        # reads the one result out of the returned mapping by hash.
        ordered = dedupe_specs(specs)

        report = RunReport(jobs_requested=self.jobs, jobs_source=self.jobs_source,
                           duplicates=len(specs) - len(ordered))
        self.report = report
        if self.cache is not None:
            self.cache.sweep_tmp()
        results: Dict[str, SimulationResult] = {}
        ticker = ProgressTicker(len(ordered), enabled=self.ticker_enabled)
        recorder = obs.SpanRecorder("exec.run") if obs.enabled() else None

        with obs.recording(recorder):
            # Phase 1: answer what the cache already knows.
            misses: List[Tuple[str, JobSpec]] = []
            with obs.span("cache_probe", jobs=len(ordered)):
                for job_hash, spec in ordered:
                    cached = self.cache.get(job_hash) if self.cache is not None else None
                    if cached is not None:
                        results[job_hash] = cached
                        report.records.append(JobRecord(
                            job_hash=job_hash, design=spec.design, workload=spec.workload,
                            status="cached",
                        ))
                    else:
                        misses.append((job_hash, spec))
                    ticker.update(len(results), report.cache_hits, 0)

            # Phase 2: simulate the rest.  Pool mode is chosen by the requested
            # job count (not the pending count): even a single job benefits from
            # a worker process when a timeout must be enforceable.
            workers = min(self.jobs, max(1, len(misses)))
            with obs.span("execute", pending=len(misses)):
                if misses:
                    if self.jobs > 1:
                        pool_results = self._run_pool(
                            misses, workers, report, ticker, len(ordered))
                    else:
                        pool_results = None
                    if pool_results is None:
                        report.workers, report.mode = 1, "serial"
                        self._run_serial(misses, report, ticker, results, len(ordered))
                    else:
                        results.update(pool_results)
                else:
                    report.workers, report.mode = (
                        workers, "serial" if workers == 1 else "pool")

        report.wall_time = time.monotonic() - started
        if recorder is not None:
            report.spans = recorder.to_dict()
        if self.manifest_dir is not None:
            report.write_manifest(self.manifest_dir)
        ticker.close(summary=report.summary_line())
        failures = [record for record in report.records
                    if record.status not in ("ok", "cached")]
        if failures and self.strict:
            raise ExecutionError(failures)
        return results

    # ------------------------------------------------------------------
    # Serial fallback
    # ------------------------------------------------------------------
    def _run_serial(
        self,
        misses: List[Tuple[str, JobSpec]],
        report: RunReport,
        ticker: ProgressTicker,
        results: Dict[str, SimulationResult],
        total: int,
    ) -> None:
        for job_hash, spec in misses:
            record = JobRecord(job_hash=job_hash, design=spec.design,
                               workload=spec.workload, status="failed")
            for attempt in range(1, self.retries + 2):
                record.attempts = attempt
                job_started = time.monotonic()
                try:
                    with obs.span("job", design=spec.design,
                                  workload=spec.workload, attempt=attempt):
                        result = self.fn(spec)
                except Exception as exc:  # noqa: BLE001 - retried, then reported
                    record.wall_time += time.monotonic() - job_started
                    record.error = f"{type(exc).__name__}: {exc}"
                    continue
                record.wall_time += time.monotonic() - job_started
                record.status, record.error = "ok", None
                results[job_hash] = result
                if self.cache is not None:
                    self.cache.put(spec, result, job_hash=job_hash)
                break
            report.records.append(record)
            ticker.update(len(report.records), report.cache_hits, 0)

    # ------------------------------------------------------------------
    # Pool execution
    # ------------------------------------------------------------------
    def _run_pool(
        self,
        misses: List[Tuple[str, JobSpec]],
        workers: int,
        report: RunReport,
        ticker: ProgressTicker,
        total: int,
    ) -> Optional[Dict[str, SimulationResult]]:
        """Run ``misses`` on a process pool; ``None`` means "fall back to serial"."""
        pool = WorkerPool(workers)
        results: Dict[str, SimulationResult] = {}
        records: Dict[str, JobRecord] = {
            job_hash: JobRecord(job_hash=job_hash, design=spec.design,
                                workload=spec.workload, status="failed")
            for job_hash, spec in misses
        }
        queue = deque((job_hash, spec, 1) for job_hash, spec in misses)
        inflight: Dict[Future, Tuple[str, JobSpec, int, Generation, float]] = {}
        refused = False
        try:
            while queue or inflight:
                while queue and len(inflight) < workers and not refused:
                    job_hash, spec, attempt = queue[0]
                    try:
                        future, generation = pool.submit(self.fn, spec)
                    except PoolUnavailable:
                        if report.mode != "pool":
                            return None  # no pool on this platform at all
                        refused = True
                        break
                    queue.popleft()
                    report.workers, report.mode = workers, "pool"
                    records[job_hash].attempts = attempt
                    inflight[future] = (job_hash, spec, attempt, generation,
                                        time.monotonic())
                if refused and not inflight:
                    # The pool died and could not be rebuilt: finish serially.
                    remaining = [(job_hash, spec) for job_hash, spec, _ in queue]
                    queue.clear()
                    for job_hash, _ in remaining:
                        records.pop(job_hash, None)  # serial path records these
                    report.mode = "pool+serial"
                    self._run_serial(remaining, report, ticker, results, total)
                    break

                wait_s = None
                if self.timeout is not None:
                    oldest = min(entry[4] for entry in inflight.values())
                    wait_s = max(0.0, oldest + self.timeout - time.monotonic())
                done, _ = wait(inflight, timeout=wait_s, return_when=FIRST_COMPLETED)
                now = time.monotonic()
                for future in done:
                    job_hash, spec, attempt, generation, job_started = inflight.pop(future)
                    record = records[job_hash]
                    record.wall_time += now - job_started
                    try:
                        result = future.result()
                    except BrokenProcessPool as exc:
                        if not pool.crashed(generation):
                            # Killed because another job timed out: re-run free.
                            queue.appendleft((job_hash, spec, attempt))
                            continue
                        record.error = f"worker crashed: {exc}"
                    except Exception as exc:  # noqa: BLE001 - retried below
                        record.error = f"{type(exc).__name__}: {exc}"
                    else:
                        record.status, record.error = "ok", None
                        results[job_hash] = result
                        if self.cache is not None:
                            self.cache.put(spec, result, job_hash=job_hash)
                        continue
                    if attempt <= self.retries:
                        queue.append((job_hash, spec, attempt + 1))

                expired = [future for future, entry in inflight.items()
                           if self.timeout is not None
                           and now - entry[4] > self.timeout]
                for future in expired:
                    # The worker may be wedged: kill its pool to reclaim it.
                    # The jobs beside it come back as killed and re-run free.
                    job_hash, spec, attempt, generation, job_started = inflight.pop(future)
                    record = records[job_hash]
                    record.wall_time += now - job_started
                    record.error = f"timeout after {self.timeout:.1f}s"
                    record.status = "timeout"
                    if attempt <= self.retries:
                        record.status = "failed"
                        queue.append((job_hash, spec, attempt + 1))
                    pool.kill(generation)

                done_count = total - len(queue) - len(inflight)
                ticker.update(done_count, report.cache_hits, len(inflight))
        finally:
            pool.close()
        for job_hash, record in records.items():
            if record.status == "failed" and record.error is None:
                record.error = "not executed"
        report.records.extend(records.values())
        return results
