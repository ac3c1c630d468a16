"""``repro.serve`` — the experiment service over the result cache.

A long-running asyncio TCP server (:mod:`repro.serve.server`) that
shards design×workload×seed matrices across the worker processes of the
process pool it shares with the batch runner
(:class:`~repro.exec.pool.WorkerPool`), dedupes in-flight work, answers
cache hits directly from the content-addressed
:class:`~repro.exec.cache.ResultCache`, and streams per-job progress to
clients over a line-delimited JSON protocol (:mod:`repro.serve.protocol`).
The blocking client (:mod:`repro.serve.client`) reassembles results and
run manifests, so served runs are drop-in replacements for local ones.
See ``docs/serving.md``.
"""

from .client import (
    JobsFailed,
    ServeClient,
    ServeError,
    ServeUnavailable,
)
from .protocol import (
    DEFAULT_PORT,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameError,
    decode_frame,
    encode_frame,
    parse_address,
    parse_submit,
    ping_frame,
    stats_frame,
    submit_frame,
)
from .server import DEFAULT_QUEUE_LIMIT, ExperimentServer, ServerThread

__all__ = [
    "DEFAULT_PORT",
    "DEFAULT_QUEUE_LIMIT",
    "ExperimentServer",
    "FrameError",
    "JobsFailed",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ServeClient",
    "ServeError",
    "ServeUnavailable",
    "ServerThread",
    "decode_frame",
    "encode_frame",
    "parse_address",
    "parse_submit",
    "ping_frame",
    "stats_frame",
    "submit_frame",
]
