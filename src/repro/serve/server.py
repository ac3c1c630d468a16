"""The experiment server: an asyncio job-queue over the result cache.

``python -m repro serve`` turns the simulator into a long-running
backend.  Clients submit design×workload×seed matrices over the NDJSON
protocol (:mod:`repro.serve.protocol`); the server

* answers **cache hits** straight from the content-addressed
  :class:`~repro.exec.cache.ResultCache` (with a small in-memory hot set
  on top) without touching a worker,
* **dedupes in-flight work** through the shared
  :class:`~repro.exec.scheduler.InflightTable` — N clients submitting the
  same cell pay for exactly one execution and all receive the result,
* **shards** the remaining cells across the worker processes of the
  shared :class:`~repro.exec.pool.WorkerPool` (reusing
  :func:`repro.exec.worker.run_job`, with per-job timeout, bounded retry
  and a rebuild after every crash or timeout kill), and
* applies **back-pressure**: a submit that would push the pending queue
  past ``queue_limit`` is rejected with a polite ``retry`` frame and a
  ``retry_after`` estimate instead of growing memory without bound.

Per-job progress streams to every submitting client as server-sent
``job`` events; a ``complete`` frame carries a standard run manifest
(:class:`~repro.exec.telemetry.RunReport` form) so downstream tooling
cannot tell a served run from a local one.  Server metrics (queue depth,
in-flight, cache-hit ratio, wall-time histograms) live in a dedicated
always-on :class:`~repro.obs.registry.MetricsRegistry` and are exported
through the ``stats`` request.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..exec.cache import ResultCache, write_json_atomic
from ..exec.jobs import JobSpec
from ..exec.options import auto_jobs
from ..exec.pool import Generation, PoolUnavailable, WorkerPool
from ..exec.scheduler import InflightTable, dedupe_specs
from ..exec.telemetry import JobRecord, RunReport
from ..exec.worker import run_job
from ..obs import tracectx
from ..obs.log import get_logger
from ..obs.registry import MetricsRegistry, WALL_TIME_BUCKETS_S
from ..sim.results import SimulationResult
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameError,
    decode_frame,
    encode_frame,
    parse_submit,
)

#: Pending (queued, not yet running) jobs the server will hold before
#: shedding load; tuned so a full queue of typical cells clears in well
#: under a client's patience, not so small that modest bursts bounce.
DEFAULT_QUEUE_LIMIT = 256

#: Deserialised results kept in memory so repeat hits skip the disk.
HOT_RESULTS = 512

log = get_logger("serve")


class _Connection:
    """One client connection: a send queue drained by a writer task.

    Producers (:meth:`send`) never await — frames go through an outbox so
    a slow reader back-pressures only its own drain task, never the
    dispatch loops.  A connection that dies mid-stream flips ``alive``;
    subsequent sends become no-ops and the submission bookkeeping still
    completes server-side.
    """

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.outbox: asyncio.Queue = asyncio.Queue()
        self.alive = True

    def send(self, frame: Dict[str, object]) -> None:
        if not self.alive:
            return
        try:
            data = encode_frame(frame)
        except FrameError as exc:  # a reply too large to frame
            data = encode_frame({"type": "error", "error": f"reply dropped: {exc}"})
        self.outbox.put_nowait(data)

    async def drain(self) -> None:
        while True:
            data = await self.outbox.get()
            if data is None:
                break
            try:
                self.writer.write(data)
                await self.writer.drain()
            except (ConnectionError, OSError):
                self.alive = False
                break

    def close(self) -> None:
        self.alive = False
        self.outbox.put_nowait(None)

    async def wait_closed(self, drain_task: asyncio.Task) -> None:
        # CancelledError is a BaseException on 3.11; it must be suppressed
        # explicitly or loop-shutdown cancellation escapes the handler task
        # (and trips the 3.11 streams callback bug, gh-109538).
        with contextlib.suppress(asyncio.CancelledError, Exception):
            await asyncio.wait_for(drain_task, timeout=5)
        with contextlib.suppress(asyncio.CancelledError, Exception):
            self.writer.close()
            await self.writer.wait_closed()


class _Submission:
    """Bookkeeping for one ``submit`` frame until its stream completes."""

    def __init__(self, server: "ExperimentServer", conn: _Connection,
                 request_id: str, total: int, duplicates: int) -> None:
        self.server = server
        self.conn = conn
        self.request_id = request_id
        self.pending: Set[str] = set()
        self.report = RunReport(
            jobs_requested=server.jobs, workers=server.jobs, mode="serve",
            jobs_source=server.jobs_source, duplicates=duplicates,
            run_id=server.run_id,
        )
        self.total = total
        self.started = time.monotonic()

    def event(self, job_hash: str, event: str, **fields: object) -> None:
        frame: Dict[str, object] = {
            "type": "job", "id": self.request_id, "event": event,
            "job_hash": job_hash,
        }
        frame.update(fields)
        self.conn.send(frame)

    def record(self, record: JobRecord) -> None:
        self.report.records.append(record)

    def finish_job(self, job_hash: str, record: JobRecord) -> None:
        """A pending job resolved (any way); completes the stream when last."""
        if job_hash not in self.pending:
            return
        self.pending.discard(job_hash)
        self.record(record)
        if not self.pending:
            self.complete()

    def complete(self) -> None:
        self.report.wall_time = time.monotonic() - self.started
        self.conn.send({
            "type": "complete",
            "id": self.request_id,
            "manifest": self.report.to_dict(),
        })


class ExperimentServer:
    """Sharded, deduplicating job server over the result cache.

    Args:
        cache: Result cache consulted before execution and populated
            after; ``None`` disables caching (every job executes).
        jobs: Worker slots (default: :func:`~repro.exec.options.auto_jobs`).
        queue_limit: Pending jobs accepted before load is shed.
        timeout: Per-job wall-clock limit in seconds.
        retries: Resubmissions allowed per job after failure/timeout.
        fn: The job function (defaults to :func:`run_job`); injectable so
            tests drive the machinery with stub jobs.
        executor: ``"auto"`` (processes; threads only when the platform
            refuses a process pool), ``"process"`` or ``"thread"``.  Thread
            mode also accepts non-picklable ``fn`` — used by tests and the
            in-process microbenchmark.
        host / port: Bind address; port 0 picks an ephemeral port,
            re-read from :attr:`port` after :meth:`start`.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        jobs: Optional[int] = None,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        timeout: Optional[float] = None,
        retries: int = 1,
        fn: Callable[[JobSpec], SimulationResult] = run_job,
        executor: str = "auto",
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        if executor not in ("auto", "process", "thread"):
            raise ValueError(f"unknown executor kind {executor!r}")
        self.cache = cache
        self.jobs = max(1, int(jobs)) if jobs is not None else auto_jobs()
        self.jobs_source = "explicit" if jobs is not None else "auto"
        self.queue_limit = max(1, int(queue_limit))
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.fn = fn
        self.executor_kind = executor
        self.host = host
        self.port = port

        self.registry = MetricsRegistry()
        self.inflight = InflightTable()
        #: Trace-context identity of everything this server executes: the
        #: run_id lands in served manifests and per-job obs artifacts (for
        #: ``repro obs merge``).
        self.run_id = tracectx.new_run_id("serve")
        self._prev_ctx: Optional[tracectx.TraceContext] = None
        self._subscribers: Dict[str, List[_Submission]] = {}
        self._queue: asyncio.Queue = asyncio.Queue()
        self._connections: Set[_Connection] = set()
        self._pool = WorkerPool(self.jobs)
        self._threads: Optional[ThreadPoolExecutor] = None
        self._executor_kind_active = "none"
        self._dispatchers: List[asyncio.Task] = []
        self._server: Optional[asyncio.base_events.Server] = None
        self._started = time.monotonic()
        self._hot: "OrderedDict[str, SimulationResult]" = OrderedDict()
        self._request_ids = iter(range(1, 1 << 62))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and start dispatch loops; returns the bound address."""
        self._started = time.monotonic()
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=MAX_FRAME_BYTES + 2)
        self.port = self._server.sockets[0].getsockname()[1]
        self._dispatchers = [
            asyncio.create_task(self._dispatch_loop()) for _ in range(self.jobs)]
        # Activate the server's trace context *before* the first worker
        # pool forks, so it propagates into the workers.
        self._prev_ctx = tracectx.activate(tracectx.TraceContext(
            run_id=self.run_id, origin="serve", root_pid=os.getpid()))
        if self.cache is not None:
            self.cache.sweep_tmp()
        self.registry.gauge("serve.queue_depth", fn=self._queue.qsize)
        self.registry.gauge("serve.inflight", fn=lambda: len(self.inflight))
        self.registry.gauge("serve.connections", fn=lambda: len(self._connections))
        self.registry.gauge("serve.workers_crashed", fn=lambda: self._pool.crashes)
        log.info("serving on %s:%d (%d worker slot%s, queue limit %d)",
                 self.host, self.port, self.jobs,
                 "s" if self.jobs != 1 else "", self.queue_limit)
        return self.host, self.port

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, cancel dispatchers, drop the worker pool."""
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        for task in self._dispatchers:
            task.cancel()
        for task in self._dispatchers:
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
        self._dispatchers = []
        tracectx.activate(self._prev_ctx)
        self._prev_ctx = None
        for conn in list(self._connections):
            conn.close()
        self._pool.close()
        if self._threads is not None:
            self._threads.shutdown(wait=False)
            self._threads = None

    def run(self) -> None:
        """Blocking entry point for the CLI; stops on Ctrl-C."""
        async def main() -> None:
            await self.start()
            try:
                await self.serve_forever()
            except asyncio.CancelledError:
                pass
            finally:
                await self.stop()

        try:
            asyncio.run(main())
        except KeyboardInterrupt:
            log.info("interrupted; shutting down")

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        conn = _Connection(writer)
        self._connections.add(conn)
        self.registry.counter("serve.connections_total").inc()
        drain_task = asyncio.create_task(conn.drain())
        conn.send({"type": "hello", "v": PROTOCOL_VERSION,
                   "server": "repro.serve/1"})
        try:
            while conn.alive:
                try:
                    line = await reader.readline()
                except ValueError:
                    # StreamReader overran its limit: oversized frame.
                    self.registry.counter("serve.frames_rejected").inc()
                    conn.send({"type": "error",
                               "error": f"frame exceeds {MAX_FRAME_BYTES} bytes"})
                    break
                except (ConnectionError, OSError):
                    break
                if not line or not line.endswith(b"\n"):
                    break  # EOF (possibly mid-line)
                try:
                    frame = decode_frame(line)
                except FrameError as exc:
                    # Unparseable input leaves the stream in an unknown
                    # state; report and drop the connection.
                    self.registry.counter("serve.frames_rejected").inc()
                    conn.send({"type": "error", "error": str(exc)})
                    break
                self._dispatch_frame(conn, frame)
        except asyncio.CancelledError:
            pass  # loop shutdown: finish normally so 3.11's streams
            # callback (task.exception() on the handler task) stays quiet
        finally:
            self._connections.discard(conn)
            conn.close()
            await conn.wait_closed(drain_task)

    def _dispatch_frame(self, conn: _Connection, frame: Dict[str, object]) -> None:
        kind = frame.get("type")
        if kind == "ping":
            conn.send({"type": "pong"})
        elif kind == "stats":
            conn.send({"type": "stats", "stats": self.stats()})
        elif kind == "submit":
            self._handle_submit(conn, frame)
        else:
            self.registry.counter("serve.frames_rejected").inc()
            conn.send({"type": "error", "error": f"unknown frame type {kind!r}"})

    # ------------------------------------------------------------------
    # Submits
    # ------------------------------------------------------------------
    def _handle_submit(self, conn: _Connection, frame: Dict[str, object]) -> None:
        self.registry.counter("serve.submits_total").inc()
        try:
            specs = parse_submit(frame)
        except FrameError as exc:
            # A malformed submit is the client's mistake, not stream
            # corruption — answer with an error, keep the connection.
            self.registry.counter("serve.submits_invalid").inc()
            conn.send({"type": "error", "id": frame.get("id"), "error": str(exc)})
            return
        request_id = str(frame.get("id") or f"req-{next(self._request_ids)}")
        pairs = dedupe_specs(specs)
        duplicates = len(specs) - len(pairs)
        self.registry.counter("serve.jobs_submitted").inc(len(specs))
        self.registry.counter("serve.submit_duplicates").inc(duplicates)

        # Classify every unique cell.  No awaits between here and the
        # enqueue below, so the free-slot check cannot race.
        cached: List[Tuple[str, JobSpec, SimulationResult]] = []
        joined: List[Tuple[str, JobSpec]] = []
        fresh: List[Tuple[str, JobSpec]] = []
        for job_hash, spec in pairs:
            if self.inflight.get(job_hash) is not None:
                joined.append((job_hash, spec))
            else:
                result = self._cache_lookup(job_hash)
                if result is not None:
                    cached.append((job_hash, spec, result))
                else:
                    fresh.append((job_hash, spec))

        free = self.queue_limit - self._queue.qsize()
        if len(fresh) > free:
            self.registry.counter("serve.submits_rejected").inc()
            conn.send({
                "type": "retry",
                "id": request_id,
                "retry_after": round(self._retry_after(len(fresh)), 3),
                "reason": (f"queue full: {self._queue.qsize()}/{self.queue_limit}"
                           f" pending, submit needs {len(fresh)} slots"),
            })
            return

        submission = _Submission(self, conn, request_id, len(pairs), duplicates)
        conn.send({
            "type": "accepted", "id": request_id,
            "jobs": len(specs), "unique": len(pairs), "duplicates": duplicates,
            "cached": len(cached), "joined": len(joined), "queued": len(fresh),
        })
        for job_hash, spec, result in cached:
            self.registry.counter("serve.cache_hits").inc()
            submission.record(JobRecord(
                job_hash=job_hash, design=spec.design, workload=spec.workload,
                status="cached"))
            submission.event(job_hash, "cached", result=result.to_dict(),
                             design=spec.design, workload=spec.workload)
        for job_hash, spec in joined:
            self.registry.counter("serve.dedup_joined").inc()
            self.inflight.claim(job_hash, spec)  # join as follower
            self._subscribers.setdefault(job_hash, []).append(submission)
            submission.pending.add(job_hash)
            submission.event(job_hash, "queued", deduped=True,
                             design=spec.design, workload=spec.workload)
        for job_hash, spec in fresh:
            self.registry.counter("serve.cache_misses").inc()
            led, _ = self.inflight.claim(job_hash, spec)
            assert led, "fresh job already in flight"
            self._subscribers.setdefault(job_hash, []).append(submission)
            submission.pending.add(job_hash)
            self._queue.put_nowait(job_hash)
            submission.event(job_hash, "queued",
                             design=spec.design, workload=spec.workload)
        if not submission.pending:
            submission.complete()

    def _cache_lookup(self, job_hash: str) -> Optional[SimulationResult]:
        """Hot-set then on-disk lookup; promotes disk hits into memory."""
        result = self._hot.get(job_hash)
        if result is not None:
            self._hot.move_to_end(job_hash)
            return result
        if self.cache is None:
            return None
        result = self.cache.get(job_hash)
        if result is not None:
            self._remember(job_hash, result)
        return result

    def _remember(self, job_hash: str, result: SimulationResult) -> None:
        self._hot[job_hash] = result
        self._hot.move_to_end(job_hash)
        while len(self._hot) > HOT_RESULTS:
            self._hot.popitem(last=False)

    def _retry_after(self, slots_needed: int) -> float:
        """Crude clearing-time estimate for a rejected submit."""
        backlog = self._queue.qsize() + len(self.inflight)
        mean = self.registry.histogram(
            "serve.job_wall_time_s", bounds=WALL_TIME_BUCKETS_S).mean
        per_job = mean if mean > 0 else 1.0
        return max(0.1, min(60.0, backlog * per_job / max(1, self.jobs)))

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        while True:
            job_hash = await self._queue.get()
            job = self.inflight.get(job_hash)
            if job is None:  # pragma: no cover - defensive
                continue
            try:
                await self._execute(job_hash, job.spec)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # pragma: no cover - last resort
                log.error("dispatch loop error on %s: %s", job_hash[:16], exc)
                self._finish_failed(job_hash, job.spec, 1, 0.0,
                                    f"{type(exc).__name__}: {exc}")

    async def _execute(self, job_hash: str, spec: JobSpec) -> None:
        error = "not executed"
        attempt = 0
        total_wall = 0.0
        while attempt <= self.retries:
            attempt += 1
            self._publish(job_hash, "started", attempt=attempt,
                          design=spec.design, workload=spec.workload)
            started = time.monotonic()
            generation: Optional[Generation] = None
            try:
                future, generation = self._submit(spec)
                result = await asyncio.wait_for(
                    asyncio.wrap_future(future), self.timeout)
            except asyncio.TimeoutError:
                error = f"timeout after {self.timeout:.1f}s"
                self.registry.counter("serve.jobs_timeout").inc()
                self._abandon(generation)
            except BrokenProcessPool as exc:
                error = f"worker crashed: {exc}"
                if not self._pool.crashed(generation):
                    attempt -= 1  # killed for another job's timeout: re-run free
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            else:
                total_wall += time.monotonic() - started
                self._finish_ok(job_hash, spec, attempt, total_wall, result)
                return
            total_wall += time.monotonic() - started
        self._finish_failed(job_hash, spec, attempt, total_wall, error)

    def _finish_ok(self, job_hash: str, spec: JobSpec, attempts: int,
                   wall: float, result: SimulationResult) -> None:
        if self.cache is not None:
            self.cache.put(spec, result, job_hash=job_hash)
        self._remember(job_hash, result)
        self.registry.counter("serve.jobs_executed").inc()
        self.registry.histogram(
            "serve.job_wall_time_s", bounds=WALL_TIME_BUCKETS_S).observe(wall)
        self.inflight.resolve(job_hash, result)
        payload = result.to_dict()
        for submission in self._subscribers.pop(job_hash, []):
            submission.event(job_hash, "done", result=payload,
                             wall_time_s=round(wall, 4), attempts=attempts,
                             design=spec.design, workload=spec.workload)
            submission.finish_job(job_hash, JobRecord(
                job_hash=job_hash, design=spec.design, workload=spec.workload,
                status="ok", attempts=attempts, wall_time=wall))

    def _finish_failed(self, job_hash: str, spec: JobSpec, attempts: int,
                       wall: float, error: str) -> None:
        self.registry.counter("serve.jobs_failed").inc()
        with contextlib.suppress(KeyError):
            self.inflight.fail(job_hash, RuntimeError(error))
        for submission in self._subscribers.pop(job_hash, []):
            submission.event(job_hash, "failed", error=error, attempts=attempts,
                             design=spec.design, workload=spec.workload)
            submission.finish_job(job_hash, JobRecord(
                job_hash=job_hash, design=spec.design, workload=spec.workload,
                status="failed", attempts=attempts, wall_time=wall, error=error))

    def _publish(self, job_hash: str, event: str, **fields: object) -> None:
        for submission in self._subscribers.get(job_hash, []):
            submission.event(job_hash, event, **fields)

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------
    def _submit(self, spec: JobSpec) -> Tuple[Future, Optional[Generation]]:
        """Start ``spec`` on the process pool, or on threads when the
        executor is ``thread`` or the platform refuses a process pool."""
        if self.executor_kind != "thread" and self._threads is None:
            try:
                future, generation = self._pool.submit(self.fn, spec)
            except PoolUnavailable as exc:
                if self.executor_kind == "process":
                    raise
                log.warning("no process pool (%s); running jobs on threads", exc)
            else:
                self._executor_kind_active = "process"
                return future, generation
        if self._threads is None:
            self._threads = ThreadPoolExecutor(
                max_workers=self.jobs, thread_name_prefix="repro-serve")
        self._executor_kind_active = "thread"
        return self._threads.submit(self.fn, spec), None

    def _abandon(self, generation: Optional[Generation]) -> None:
        """Reclaim the worker of a job that overran its timeout."""
        if generation is not None:
            self._pool.kill(generation)
        elif self._threads is not None:
            # A thread cannot be killed: let it run out unobserved and give
            # later jobs fresh threads.
            self._threads.shutdown(wait=False)
            self._threads = None

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """JSON-safe server metrics snapshot (the ``stats`` reply body)."""
        registry = self.registry
        hits = registry.counter("serve.cache_hits").value
        misses = registry.counter("serve.cache_misses").value
        lookups = hits + misses
        histogram = registry.histogram(
            "serve.job_wall_time_s", bounds=WALL_TIME_BUCKETS_S)
        return {
            "server": "repro.serve/1",
            "v": PROTOCOL_VERSION,
            "run_id": self.run_id,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "workers": self.jobs,
            "executor": self._executor_kind_active,
            "queue_depth": self._queue.qsize(),
            "queue_limit": self.queue_limit,
            "inflight": len(self.inflight),
            "connections": len(self._connections),
            "cache_hit_ratio": round(hits / lookups, 4) if lookups else 0.0,
            "dedup_led": self.inflight.led,
            "dedup_joined": self.inflight.joined,
            "counters": registry.snapshot(),
            # The full typed dump (counter/gauge/histogram structure), not
            # just the flat snapshot — mirrors what the stats artifact
            # persists so one `stats` request is a complete picture.
            "registry": registry.to_dict(),
            "job_wall_time_s": {
                "total": histogram.total,
                "mean": round(histogram.mean, 4),
                "p50": histogram.percentile(0.5),
                "p90": histogram.percentile(0.9),
                "p99": histogram.percentile(0.99),
            },
        }

    def write_stats_artifact(self, directory: Path) -> Optional[Path]:
        """Persist the metrics snapshot for CI artifact upload; best-effort."""
        path = Path(directory) / "serve-stats.json"
        try:
            write_json_atomic(path, {
                "stats": self.stats(),
                "registry": self.registry.to_dict(),
            })
        except OSError:
            return None
        return path


class ServerThread:
    """Run an :class:`ExperimentServer` on a background thread.

    Used by tests and the serve microbenchmark to embed a real
    socket-speaking server in-process::

        handle = ServerThread(ExperimentServer(executor="thread"))
        host, port = handle.start()
        ...
        handle.stop()
    """

    def __init__(self, server: ExperimentServer) -> None:
        self.server = server
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self, timeout: float = 10.0) -> Tuple[str, int]:
        async def main() -> None:
            try:
                await self.server.start()
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                raise
            self._loop = asyncio.get_running_loop()
            self._shutdown = asyncio.Event()
            self._ready.set()
            await self._shutdown.wait()
            await self.server.stop()

        def runner() -> None:
            with contextlib.suppress(Exception):
                asyncio.run(main())

        self._thread = threading.Thread(
            target=runner, name="repro-serve", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server thread failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError(f"server failed to start: {self._startup_error}")
        return self.server.host, self.server.port

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is not None and self._shutdown is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._shutdown.set)
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
