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
* **shards** the remaining cells across a pool of worker processes
  (reusing :func:`repro.exec.worker.run_job`, with per-job timeout,
  bounded retry, crashed-pool rebuild and graceful thread fallback), and
* applies **back-pressure**: a submit that would push the pending queue
  past ``queue_limit`` is rejected with a polite ``retry`` frame and a
  ``retry_after`` estimate instead of growing memory without bound, and
* **streams telemetry** (protocol v2): a ``subscribe`` frame starts a
  periodic ``window`` stream — server metrics snapshots, live
  :class:`~repro.obs.timeseries.SimSampler` rows and event-ring deltas
  fanned in through the process's :class:`~repro.obs.stream.TelemetryHub`
  — to any number of concurrent clients.  Each subscriber gets a bounded
  share of its connection's outbox: a window that would push past the
  subscriber's ``max_queue`` is dropped *and counted*, and sampler/event
  rows that age out of the hub rings before a slow subscriber catches up
  are reported as ``samples_lost``/``events_lost``.  Nothing about a v1
  client changes: stream frames only ever go to connections that sent a
  ``subscribe``.

Per-job progress streams to every subscribed client as server-sent
``job`` events; a ``complete`` frame carries a standard run manifest
(:class:`~repro.exec.telemetry.RunReport` form) so downstream tooling
cannot tell a served run from a local one.  Server metrics (queue depth,
in-flight, cache-hit ratio, wall-time histograms) live in a dedicated
always-on :class:`~repro.obs.registry.MetricsRegistry` and are exported
through the ``stats`` request.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..exec.cache import ResultCache, write_json_atomic
from ..exec.jobs import JobSpec
from ..exec.options import auto_jobs
from ..exec.scheduler import InflightTable, dedupe_specs
from ..exec.telemetry import JobRecord, RunReport
from ..exec.worker import run_job
from .. import obs
from ..obs import tracectx
from ..obs.log import get_logger
from ..obs.registry import MetricsRegistry, WALL_TIME_BUCKETS_S
from ..obs.stream import TelemetryHub, install_hub
from ..sim.results import SimulationResult
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
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

#: The worker-crash budget: after this many broken process pools the
#: ``auto`` executor stops re-forking and degrades to threads.
_BROKEN_POOL_LIMIT = 2

#: Clamp bounds for subscriber-requested stream intervals, in seconds.
#: Below the floor a chatty subscriber becomes a busy loop; above the
#: ceiling the stream is indistinguishable from polling ``stats``.
MIN_STREAM_INTERVAL = 0.05
MAX_STREAM_INTERVAL = 60.0

#: Per-subscriber outbox bound, in frames: a window is dropped (and
#: counted) rather than queued when the connection's outbox already holds
#: this many unsent frames.  Subscribers may request their own bound
#: within [1, MAX_STREAM_QUEUE].
DEFAULT_STREAM_QUEUE = 16
MAX_STREAM_QUEUE = 1024

#: Broadcaster sleep when nobody is subscribed.
_IDLE_STREAM_TICK = 0.25

log = get_logger("serve")


class _Connection:
    """One client connection: a send queue drained by a writer task.

    Producers (:meth:`send`) never await — frames go through an outbox so
    a slow reader back-pressures only its own drain task, never the
    dispatch loops.  A connection that dies mid-stream flips ``alive``;
    subsequent sends become no-ops and the submission bookkeeping still
    completes server-side.
    """

    _ids = iter(range(1, 1 << 62))

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.outbox: asyncio.Queue = asyncio.Queue()
        self.alive = True
        self.name = f"conn-{next(self._ids)}"

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


class _StreamSubscriber:
    """One live telemetry stream (``subscribe`` frame) on a connection.

    Pacing and loss semantics: a window that would overfill the
    connection's outbox is *dropped and counted* but the ring cursors do
    not advance — a slow subscriber sees data late, not missing.  Rows the
    hub rings evicted before the cursor caught up (the subscriber fell
    more than a ring capacity behind) are counted as ``samples_lost`` /
    ``events_lost`` in every subsequent window.

    Cursors start at the rings' current totals: a new subscriber streams
    what happens from now on, not history.
    """

    __slots__ = ("conn", "sub_id", "interval", "max_queue", "seq",
                 "windows_dropped", "samples_lost", "events_lost",
                 "sample_cursor", "event_cursor", "next_due")

    def __init__(self, conn: _Connection, sub_id: str, interval: float,
                 max_queue: int, now: float, hub: TelemetryHub) -> None:
        self.conn = conn
        self.sub_id = sub_id
        self.interval = interval
        self.max_queue = max_queue
        self.seq = 0
        self.windows_dropped = 0
        self.samples_lost = 0
        self.events_lost = 0
        self.sample_cursor = hub.samples.total_recorded
        self.event_cursor = hub.events.total_recorded
        self.next_due = now

    def drops(self) -> Dict[str, int]:
        return {
            "windows_dropped": self.windows_dropped,
            "samples_lost": self.samples_lost,
            "events_lost": self.events_lost,
        }


class ExperimentServer:
    """Sharded, streaming, deduplicating job server over the result cache.

    Args:
        cache: Result cache consulted before execution and populated
            after; ``None`` disables caching (every job executes).
        jobs: Worker slots (default: :func:`~repro.exec.options.auto_jobs`).
        queue_limit: Pending jobs accepted before load is shed.
        timeout: Per-job wall-clock limit in seconds.
        retries: Resubmissions allowed per job after failure/timeout.
        fn: The job function (defaults to :func:`run_job`); injectable so
            tests drive the machinery with stub jobs.
        executor: ``"auto"`` (processes, thread fallback), ``"process"``
            or ``"thread"``.  Thread mode also accepts non-picklable
            ``fn`` — used by tests and the in-process microbenchmark.
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
        #: run_id lands in served manifests, per-job obs artifacts (for
        #: ``repro obs merge``) and every stream ``window`` frame.
        self.run_id = tracectx.new_run_id("serve")
        #: Live fan-in for sampler windows and rare events; installed
        #: process-wide in :meth:`start`, drained by the broadcaster.
        self.hub = TelemetryHub()
        self._prev_hub: Optional[TelemetryHub] = None
        self._prev_ctx: Optional[tracectx.TraceContext] = None
        self._stream_subs: Dict[Tuple[str, str], _StreamSubscriber] = {}
        self._broadcaster: Optional[asyncio.Task] = None
        self._subscribers: Dict[str, List[_Submission]] = {}
        self._queue: asyncio.Queue = asyncio.Queue()
        self._connections: Set[_Connection] = set()
        self._executor: Optional[concurrent.futures.Executor] = None
        self._executor_kind_active = "none"
        self._broken_pools = 0
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
        self._broadcaster = asyncio.create_task(self._stream_loop())
        # Activate the server's trace context and telemetry hub *before*
        # the first worker pool forks, so both propagate into workers (the
        # env mirror additionally covers spawn-based pools).
        self._prev_ctx = tracectx.activate(tracectx.TraceContext(
            run_id=self.run_id, origin="serve", root_pid=os.getpid()))
        self._prev_hub = install_hub(self.hub)
        if self.cache is not None:
            self.cache.sweep_tmp()
        self.registry.gauge("serve.queue_depth", fn=self._queue.qsize)
        self.registry.gauge("serve.inflight", fn=lambda: len(self.inflight))
        self.registry.gauge("serve.connections", fn=lambda: len(self._connections))
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
        tasks = list(self._dispatchers)
        if self._broadcaster is not None:
            tasks.append(self._broadcaster)
        for task in tasks:
            task.cancel()
        for task in tasks:
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
        self._dispatchers = []
        self._broadcaster = None
        self._stream_subs.clear()
        install_hub(self._prev_hub)
        tracectx.activate(self._prev_ctx)
        self._prev_hub = None
        self._prev_ctx = None
        for conn in list(self._connections):
            conn.close()
        self._rebuild_executor(kill=False)

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
            for key in [k for k, s in self._stream_subs.items()
                        if s.conn is conn]:
                del self._stream_subs[key]
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
        elif kind == "subscribe":
            self._handle_subscribe(conn, frame)
        elif kind == "unsubscribe":
            self._handle_unsubscribe(conn, frame)
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
    # Telemetry streaming (protocol v2)
    # ------------------------------------------------------------------
    def _handle_subscribe(self, conn: _Connection, frame: Dict[str, object]) -> None:
        if frame.get("v") != PROTOCOL_VERSION:
            # v1 never defined subscribe; an explicit error beats a stream
            # of frames the client does not understand.
            self.registry.counter("serve.frames_rejected").inc()
            conn.send({"type": "error", "id": frame.get("id"),
                       "error": "subscribe requires protocol v2"})
            return
        sub_id = str(frame.get("id") or f"sub-{next(self._request_ids)}")
        try:
            interval = float(frame.get("interval", 1.0))  # type: ignore[arg-type]
        except (TypeError, ValueError):
            interval = 1.0
        interval = min(max(interval, MIN_STREAM_INTERVAL), MAX_STREAM_INTERVAL)
        try:
            max_queue = int(frame.get("max_queue", DEFAULT_STREAM_QUEUE))  # type: ignore[arg-type]
        except (TypeError, ValueError):
            max_queue = DEFAULT_STREAM_QUEUE
        max_queue = min(max(max_queue, 1), MAX_STREAM_QUEUE)
        sub = _StreamSubscriber(conn, sub_id, interval, max_queue,
                                time.monotonic(), self.hub)
        self._stream_subs[(conn.name, sub_id)] = sub
        self.registry.counter("serve.stream_subscribes").inc()
        conn.send({
            "type": "subscribed", "v": PROTOCOL_VERSION, "id": sub_id,
            "run_id": self.run_id, "interval": interval,
            "max_queue": max_queue,
        })
        # First window goes out immediately — a tail should show *something*
        # before its first full interval elapses.
        self._send_window(sub, time.monotonic())

    def _handle_unsubscribe(self, conn: _Connection, frame: Dict[str, object]) -> None:
        sub_id = str(frame.get("id", ""))
        sub = self._stream_subs.pop((conn.name, sub_id), None)
        if sub is None:
            conn.send({"type": "error", "id": sub_id,
                       "error": f"no active stream {sub_id!r}"})
            return
        conn.send({"type": "unsubscribed", "id": sub_id,
                   "drops": sub.drops()})

    async def _stream_loop(self) -> None:
        """Broadcaster: wake for the earliest-due subscriber, send windows."""
        while True:
            now = time.monotonic()
            for key, sub in list(self._stream_subs.items()):
                if not sub.conn.alive:
                    self._stream_subs.pop(key, None)
                    continue
                if now >= sub.next_due:
                    self._send_window(sub, now)
            delays = [max(0.02, s.next_due - time.monotonic())
                      for s in self._stream_subs.values()]
            await asyncio.sleep(min(delays) if delays else _IDLE_STREAM_TICK)

    def _send_window(self, sub: _StreamSubscriber, now: float) -> None:
        sub.next_due = now + sub.interval
        if sub.conn.outbox.qsize() >= sub.max_queue:
            # The subscriber's reader is behind; dropping here (without
            # advancing cursors) bounds memory while keeping data intact.
            sub.windows_dropped += 1
            self.registry.counter("serve.stream_windows_dropped").inc()
            return
        samples, samples_lost, sub.sample_cursor = \
            self.hub.tail_samples(sub.sample_cursor)
        events, events_lost, sub.event_cursor = \
            self.hub.tail_events(sub.event_cursor)
        if samples_lost or events_lost:
            sub.samples_lost += samples_lost
            sub.events_lost += events_lost
            self.registry.counter("serve.stream_rows_lost").inc(
                samples_lost + events_lost)
        sub.seq += 1
        sub.conn.send({
            "type": "window", "v": PROTOCOL_VERSION, "id": sub.sub_id,
            "seq": sub.seq, "run_id": self.run_id,
            "at_s": round(now - self._started, 3),
            "interval": sub.interval,
            "metrics": self.registry.snapshot(),
            "obs_metrics": obs.registry().snapshot(),
            "samples": samples,
            "events": events,
            "drops": dict(sub.drops(), ring=self.hub.summary()),
        })
        self.registry.counter("serve.stream_windows_sent").inc()

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
        loop = asyncio.get_running_loop()
        error = "not executed"
        attempt = 0
        total_wall = 0.0
        for attempt in range(1, self.retries + 2):
            self._publish(job_hash, "started", attempt=attempt,
                          design=spec.design, workload=spec.workload)
            started = time.monotonic()
            try:
                future = loop.run_in_executor(self._ensure_executor(), self.fn, spec)
                result = await asyncio.wait_for(future, self.timeout)
            except asyncio.TimeoutError:
                total_wall += time.monotonic() - started
                error = f"timeout after {self.timeout:.1f}s"
                self.registry.counter("serve.jobs_timeout").inc()
                # The worker may be wedged: kill the pool to reclaim it.
                self._rebuild_executor(kill=True)
                continue
            except BrokenProcessPool as exc:
                total_wall += time.monotonic() - started
                error = f"worker crashed: {exc}"
                self.registry.counter("serve.workers_crashed").inc()
                self._broken_pools += 1
                self._rebuild_executor(kill=False)
                continue
            except Exception as exc:
                total_wall += time.monotonic() - started
                error = f"{type(exc).__name__}: {exc}"
                continue
            total_wall += time.monotonic() - started
            self._finish_ok(job_hash, spec, attempt, total_wall, result)
            return
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
    def _ensure_executor(self) -> concurrent.futures.Executor:
        if self._executor is None:
            self._executor = self._make_executor()
        return self._executor

    def _make_executor(self) -> concurrent.futures.Executor:
        kind = self.executor_kind
        if kind == "auto" and self._broken_pools >= _BROKEN_POOL_LIMIT:
            kind = "thread"  # repeated pool crashes: stop re-forking
        if kind in ("auto", "process"):
            try:
                if "fork" in multiprocessing.get_all_start_methods():
                    ctx = multiprocessing.get_context("fork")
                else:  # pragma: no cover - non-POSIX platforms
                    ctx = multiprocessing.get_context()
                pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.jobs, mp_context=ctx)
                self._executor_kind_active = "process"
                return pool
            except (OSError, ValueError, ImportError):  # pragma: no cover
                if kind == "process":
                    raise
        self._executor_kind_active = "thread"
        return concurrent.futures.ThreadPoolExecutor(
            max_workers=self.jobs, thread_name_prefix="repro-serve")

    def _rebuild_executor(self, kill: bool) -> None:
        pool, self._executor = self._executor, None
        if pool is None:
            return
        if kill:
            # Best-effort reclamation of wedged workers; shutdown() alone
            # would wait on them forever.
            for proc in list(getattr(pool, "_processes", {}).values()):
                with contextlib.suppress(Exception):
                    proc.kill()
        with contextlib.suppress(Exception):
            pool.shutdown(wait=False, cancel_futures=True)

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
            "supported_versions": list(SUPPORTED_VERSIONS),
            "run_id": self.run_id,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "workers": self.jobs,
            "executor": self._executor_kind_active,
            "queue_depth": self._queue.qsize(),
            "queue_limit": self.queue_limit,
            "inflight": len(self.inflight),
            "connections": len(self._connections),
            "stream_subscribers": len(self._stream_subs),
            "cache_hit_ratio": round(hits / lookups, 4) if lookups else 0.0,
            "dedup_led": self.inflight.led,
            "dedup_joined": self.inflight.joined,
            "counters": registry.snapshot(),
            # The full typed dump (counter/gauge/histogram structure), not
            # just the flat snapshot — mirrors what the stats artifact
            # persists so one `stats` request is a complete picture.
            "registry": registry.to_dict(),
            "telemetry": self.hub.summary(),
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
