"""Synchronous client for the experiment service.

:class:`ServeClient` speaks the NDJSON protocol over a plain TCP socket:
it submits a list of :class:`~repro.exec.jobs.JobSpec` cells, streams the
per-job event frames (surfacing them through an optional callback for
progress display), and reassembles the final results plus the server-built
run manifest.

Robustness model — the service is **idempotent by construction**: jobs are
deterministic, content-addressed and cached, so the client's answer to any
mid-stream failure is simply *reconnect and resubmit*.  Work finished
before the drop is answered from the cache in microseconds; only genuinely
unfinished cells execute again (and usually not even those, if the server
survived and the submit joins them in flight).  Back-pressure ``retry``
frames are honoured by sleeping out the server's ``retry_after`` estimate
and resubmitting, up to a bounded number of attempts.
"""

from __future__ import annotations

import socket
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..exec.jobs import JobSpec
from ..obs.log import get_logger
from ..sim.results import SimulationResult
from .protocol import (
    DEFAULT_PORT,
    MAX_FRAME_BYTES,
    FrameError,
    decode_frame,
    encode_frame,
    ping_frame,
    stats_frame,
    submit_frame,
)

log = get_logger("serve.client")

#: Reconnect-and-resubmit attempts before a submit is abandoned.
DEFAULT_ATTEMPTS = 5

#: An event callback receives the raw ``job`` frame dictionaries.
EventCallback = Callable[[Dict[str, object]], None]


class ServeError(RuntimeError):
    """The service answered, but the submit could not be completed."""


class JobsFailed(ServeError):
    """Some jobs terminally failed server-side.

    Attributes:
        results: Results of the jobs that did succeed, by content hash.
        failures: ``{job_hash: error string}`` for the failed ones.
    """

    def __init__(self, message: str, results: Dict[str, SimulationResult],
                 failures: Dict[str, str]) -> None:
        super().__init__(message)
        self.results = results
        self.failures = failures


class ServeUnavailable(ServeError):
    """The service kept shedding load or dropping the connection."""


class ServeClient:
    """Blocking client for one experiment server.

    Args:
        host / port: Server address.
        timeout: Per-read socket timeout in seconds — the longest the
            client will sit without *any* frame (the server streams
            ``started`` events, so a healthy connection is never silent
            for a whole job).
        attempts: Reconnect/backoff budget per submit.
        on_event: Default per-job event callback for :meth:`submit`.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 timeout: float = 300.0, attempts: int = DEFAULT_ATTEMPTS,
                 on_event: Optional[EventCallback] = None) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.attempts = max(1, int(attempts))
        self.on_event = on_event
        self._sock: Optional[socket.socket] = None
        self._reader = None
        self.server_hello: Optional[Dict[str, object]] = None
        self._request_counter = 0

    # ------------------------------------------------------------------
    # Connection plumbing
    # ------------------------------------------------------------------
    def connect(self) -> Dict[str, object]:
        """Open the connection and consume the ``hello`` frame."""
        self.close()
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout)
        sock.settimeout(self.timeout)
        self._sock = sock
        self._reader = sock.makefile("rb")
        hello = self._recv()
        if hello.get("type") != "hello":
            raise ServeError(f"expected hello frame, got {hello.get('type')!r}")
        self.server_hello = hello
        return hello

    def close(self) -> None:
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
            self._reader = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _ensure_connected(self) -> None:
        if self._sock is None:
            self.connect()

    def _send(self, frame: Dict[str, object]) -> None:
        assert self._sock is not None
        self._sock.sendall(encode_frame(frame))

    def _recv(self) -> Dict[str, object]:
        assert self._reader is not None
        line = self._reader.readline(MAX_FRAME_BYTES + 2)
        if not line:
            raise ConnectionError("server closed the connection")
        try:
            return decode_frame(line)
        except FrameError as exc:
            raise ServeError(f"bad frame from server: {exc}") from exc

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def ping(self) -> bool:
        """Round-trip liveness probe."""
        self._ensure_connected()
        self._send(ping_frame())
        return self._recv().get("type") == "pong"

    def stats(self) -> Dict[str, object]:
        """The server's metrics snapshot."""
        self._ensure_connected()
        self._send(stats_frame())
        frame = self._recv()
        if frame.get("type") != "stats":
            raise ServeError(f"expected stats frame, got {frame.get('type')!r}")
        return frame["stats"]  # type: ignore[return-value]

    def submit(
        self,
        specs: List[JobSpec],
        on_event: Optional[EventCallback] = None,
        request_id: Optional[str] = None,
    ) -> Tuple[Dict[str, SimulationResult], Dict[str, object]]:
        """Run ``specs`` through the service.

        Streams until the submit's ``complete`` frame, reconnecting and
        resubmitting on connection loss and sleeping out back-pressure
        rejections (both bounded by the ``attempts`` budget).

        Returns:
            ``(results, manifest)`` — results keyed by job content hash,
            and the server-built run manifest dictionary.

        Raises:
            JobsFailed: When the stream completed but jobs failed.
            ServeUnavailable: When the attempts budget is exhausted.
        """
        if not specs:
            return {}, {}
        callback = on_event if on_event is not None else self.on_event
        if request_id is None:
            self._request_counter += 1
            request_id = f"{id(self) & 0xFFFFFF:06x}-{self._request_counter}"
        results: Dict[str, SimulationResult] = {}
        failures: Dict[str, str] = {}
        last_error = "no attempts made"
        for attempt in range(1, self.attempts + 1):
            try:
                self._ensure_connected()
                self._send(submit_frame(specs, request_id=request_id))
                manifest = self._stream(results, failures, callback, request_id)
            except (ConnectionError, socket.timeout, OSError) as exc:
                last_error = f"{type(exc).__name__}: {exc}"
                log.warning("connection lost mid-submit (%s); "
                            "reconnecting (attempt %d/%d)",
                            last_error, attempt, self.attempts)
                self.close()
                time.sleep(min(2.0, 0.1 * attempt))
                continue
            except _Rejected as rejected:
                last_error = rejected.reason
                if attempt == self.attempts:
                    break
                log.info("server shed load (%s); retrying in %.1fs "
                         "(attempt %d/%d)", rejected.reason,
                         rejected.retry_after, attempt, self.attempts)
                time.sleep(rejected.retry_after)
                continue
            if failures:
                raise JobsFailed(
                    f"{len(failures)} of {len(specs)} jobs failed: "
                    + "; ".join(sorted(failures.values()))[:500],
                    results, failures)
            return results, manifest
        raise ServeUnavailable(
            f"submit abandoned after {self.attempts} attempts: {last_error}")

    def run_specs(self, specs: List[JobSpec],
                  on_event: Optional[EventCallback] = None) -> List[SimulationResult]:
        """Results for ``specs`` in input order (duplicates fan out)."""
        results, _ = self.submit(specs, on_event=on_event)
        return [results[spec.content_hash()] for spec in specs]

    def _stream(self, results: Dict[str, SimulationResult],
                failures: Dict[str, str],
                callback: Optional[EventCallback],
                request_id: str) -> Dict[str, object]:
        """Consume frames for one submit until ``complete``."""
        while True:
            frame = self._recv()
            kind = frame.get("type")
            if kind == "retry":
                raise _Rejected(float(frame.get("retry_after", 1.0)),
                                str(frame.get("reason", "queue full")))
            if kind == "error":
                raise ServeError(str(frame.get("error", "unknown server error")))
            if kind == "accepted":
                continue
            if kind == "job":
                job_hash = str(frame.get("job_hash", ""))
                event = frame.get("event")
                if event in ("done", "cached"):
                    results[job_hash] = SimulationResult.from_dict(
                        frame["result"])  # type: ignore[arg-type]
                    failures.pop(job_hash, None)
                elif event == "failed":
                    failures[job_hash] = str(frame.get("error", "failed"))
                if callback is not None:
                    callback(frame)
                continue
            if kind == "complete":
                if str(frame.get("id")) != request_id:
                    continue  # stale stream from a previous attempt
                return frame.get("manifest", {})  # type: ignore[return-value]
            # Unknown server frame: tolerate for forward compatibility.

    def __enter__(self) -> "ServeClient":
        self.connect()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class _Rejected(Exception):
    """Internal: the server answered a submit with a ``retry`` frame."""

    def __init__(self, retry_after: float, reason: str) -> None:
        super().__init__(reason)
        self.retry_after = max(0.05, min(60.0, retry_after))
        self.reason = reason
