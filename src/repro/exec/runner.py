"""Parallel job execution with caching, per-job timeout and bounded retry.

:class:`ParallelRunner` takes a list of :class:`~repro.exec.jobs.JobSpec`
and returns ``{content_hash: SimulationResult}``:

1. duplicate cells (same content hash) collapse to one job;
2. the :class:`~repro.exec.cache.ResultCache` (when attached) answers
   hashes it has seen before — a warm sweep does near-zero simulation;
3. remaining jobs run on a ``multiprocessing`` pool (``jobs > 1``) or
   inline in the parent process (``jobs == 1``, or when pool creation
   fails — e.g. a sandbox forbids subprocesses — in which case the runner
   degrades gracefully to serial execution);
4. a job that raises is resubmitted up to ``retries`` times; a job that
   exceeds ``timeout`` seconds is abandoned, its (possibly hung) worker
   pool is rebuilt, and the job is retried like a failure;
5. progress is surfaced on a live stderr ticker and collected into a
   :class:`~repro.exec.telemetry.RunReport`, optionally persisted as a
   JSON run manifest.

Simulation is deterministic given a spec, so serial and parallel execution
produce metric-identical results — the property the determinism test in
``tests/test_exec_runner.py`` pins down.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from .. import obs
from ..sim.results import SimulationResult
from .cache import ResultCache
from .jobs import JobSpec
from .scheduler import dedupe_specs
from .telemetry import JobRecord, ProgressTicker, RunReport
from .worker import run_job

#: Seconds between scheduler polls while jobs are in flight.
_POLL_INTERVAL = 0.02


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
        # Trace context: one run_id for the whole sweep, propagated into
        # worker processes (fork inherits the active context; spawn reads
        # the env mirror) so per-job artifacts can be merged back into one
        # run-level Chrome trace.  Obs off → no context, no artifacts.
        context = None
        if recorder is not None:
            context = obs.TraceContext(run_id=obs.new_run_id(),
                                       origin="exec.run", root_pid=os.getpid())
            report.run_id = context.run_id

        with obs.propagated(context), obs.recording(recorder):
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
        self._finalize_obs(report, recorder)
        if self.manifest_dir is not None:
            report.write_manifest(self.manifest_dir)
            if recorder is not None and report.manifest_path is not None:
                self._merge_trace(report)
        ticker.close(summary=report.summary_line())
        failures = [record for record in report.records
                    if record.status not in ("ok", "cached")]
        if failures and self.strict:
            raise ExecutionError(failures)
        return results

    def _merge_trace(self, report: RunReport) -> None:
        """Stitch orchestrator and worker spans into the manifest's merged
        Chrome trace (the ``.trace.json`` sibling); best-effort."""
        from ..bench.runner import cache_dir
        from ..obs.merge import merge_manifest

        try:
            trace_path, _ = merge_manifest(report.manifest_path,
                                           cache_root=cache_dir())
        except (OSError, ValueError):
            return
        report.trace = trace_path.name

    def _finalize_obs(self, report: RunReport, recorder) -> None:
        """Fold the span tree and registry snapshot into the report."""
        if recorder is None:
            return
        report.spans = recorder.to_dict()
        registry = obs.registry()
        histogram = registry.histogram(
            "exec.job_wall_time_s", bounds=obs.WALL_TIME_BUCKETS_S)
        for record in report.records:
            if record.status != "cached":
                histogram.observe(record.wall_time)
        registry.counter("exec.jobs_total").inc(report.total)
        registry.counter("exec.jobs_cached").inc(report.cache_hits)
        registry.counter("exec.jobs_failed").inc(report.failed)
        report.metrics = registry.snapshot()
        report.metrics["exec.wall_time_s"] = round(report.wall_time, 4)
        report.metrics["exec.worker_utilisation"] = round(
            report.worker_utilisation, 4)

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
    def _make_pool(self, workers: int):
        """A worker pool, or ``None`` when the platform cannot provide one."""
        try:
            if "fork" in multiprocessing.get_all_start_methods():
                ctx = multiprocessing.get_context("fork")
            else:  # pragma: no cover - non-POSIX platforms
                ctx = multiprocessing.get_context()
            return ctx.Pool(processes=workers)
        except (OSError, ValueError, ImportError):  # pragma: no cover - sandboxed
            return None

    def _run_pool(
        self,
        misses: List[Tuple[str, JobSpec]],
        workers: int,
        report: RunReport,
        ticker: ProgressTicker,
        total: int,
    ) -> Optional[Dict[str, SimulationResult]]:
        """Run ``misses`` on a pool; ``None`` means "fall back to serial"."""
        pool = self._make_pool(workers)
        if pool is None:
            return None
        report.workers, report.mode = workers, "pool"
        results: Dict[str, SimulationResult] = {}
        records: Dict[str, JobRecord] = {
            job_hash: JobRecord(job_hash=job_hash, design=spec.design,
                                workload=spec.workload, status="failed")
            for job_hash, spec in misses
        }
        queue = deque((job_hash, spec, 1) for job_hash, spec in misses)
        inflight: Dict[str, Tuple[JobSpec, int, object, float]] = {}
        try:
            while queue or inflight:
                while queue and len(inflight) < workers and pool is not None:
                    job_hash, spec, attempt = queue.popleft()
                    records[job_hash].attempts = attempt
                    async_result = pool.apply_async(self.fn, (spec,))
                    inflight[job_hash] = (spec, attempt, async_result, time.monotonic())
                if pool is None and not inflight:
                    # The pool died and could not be rebuilt: finish serially.
                    remaining = [(job_hash, spec) for job_hash, spec, _ in queue]
                    queue.clear()
                    for job_hash, _ in remaining:
                        records.pop(job_hash, None)  # serial path records these
                    report.mode = "pool+serial"
                    self._run_serial(remaining, report, ticker, results, total)
                    break

                progressed = False
                now = time.monotonic()
                for job_hash in list(inflight):
                    spec, attempt, async_result, job_started = inflight[job_hash]
                    record = records[job_hash]
                    if async_result.ready():
                        del inflight[job_hash]
                        progressed = True
                        record.wall_time += time.monotonic() - job_started
                        try:
                            result = async_result.get()
                        except Exception as exc:  # noqa: BLE001 - retried below
                            record.error = f"{type(exc).__name__}: {exc}"
                            if attempt <= self.retries:
                                queue.append((job_hash, spec, attempt + 1))
                            continue
                        record.status, record.error = "ok", None
                        results[job_hash] = result
                        if self.cache is not None:
                            self.cache.put(spec, result, job_hash=job_hash)
                    elif self.timeout is not None and now - job_started > self.timeout:
                        # The worker may be wedged: drop the job, requeue the
                        # rest, and rebuild the pool to reclaim the process.
                        del inflight[job_hash]
                        progressed = True
                        record.wall_time += time.monotonic() - job_started
                        record.error = f"timeout after {self.timeout:.1f}s"
                        record.status = "timeout"
                        if attempt <= self.retries:
                            record.status = "failed"
                            queue.append((job_hash, spec, attempt + 1))
                        for other_hash in list(inflight):
                            other_spec, other_attempt, _, _ = inflight.pop(other_hash)
                            queue.appendleft((other_hash, other_spec, other_attempt))
                        pool.terminate()
                        pool.join()
                        pool = self._make_pool(workers)
                        break

                done = total - len(queue) - len(inflight)
                ticker.update(done, report.cache_hits, len(inflight))
                if not progressed:
                    time.sleep(_POLL_INTERVAL)
        finally:
            if pool is not None:
                pool.terminate()
                pool.join()
        for job_hash, record in records.items():
            if record.status == "failed" and record.error is None:
                record.error = "not executed"
        report.records.extend(records.values())
        return results
