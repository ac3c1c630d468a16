"""Wire protocol of the experiment service: line-delimited JSON frames.

One **frame** is one JSON object serialised compactly on a single line and
terminated by ``\\n`` — trivially debuggable with ``nc`` and resilient to
partial reads (a receiver either has the whole line or keeps waiting).
Frames larger than :data:`MAX_FRAME_BYTES` are rejected on both sides:
the server must bound per-connection memory, and a client should not
stall forever on a runaway reply.

Client → server frames (``type`` field):

``submit``
    ``{"v": 1, "type": "submit", "id": "...", "specs": [<wire spec>...]}``
    — a design×workload×seed matrix as :meth:`JobSpec.to_wire` payloads.
``stats``
    Request a server metrics snapshot.
``ping``
    Liveness probe.

Server → client frames:

``hello``
    Sent once per connection: protocol version and server identity.
``accepted``
    Submit bookkeeping: total/unique/cached/deduped/queued cell counts.
``job``
    Per-job server-sent event stream: ``event`` is ``queued``,
    ``started``, ``done``, ``cached`` or ``failed``; ``done``/``cached``
    carry the full ``result`` payload.
``complete``
    Ends a submit stream; carries the run manifest (RunReport form).
``retry``
    Back-pressure: the queue is full, retry the submit after
    ``retry_after`` seconds.  Nothing was enqueued.
``stats`` / ``pong`` / ``error``
    Responses to the matching requests (``error`` also answers frames the
    server cannot parse).

The protocol is versioned (:data:`PROTOCOL_VERSION`): a server rejects a
submit whose ``v`` is not the version it speaks rather than guessing.
"""

from __future__ import annotations

import json
from typing import Dict, List

from ..exec.jobs import JobSpec

#: Protocol version; bump on incompatible frame-shape changes.
PROTOCOL_VERSION = 1

#: Hard ceiling for one encoded frame, newline included.  A submit of a
#: few hundred cells and a `complete` manifest for the same both fit with
#: a wide margin; per-job results stream one frame each.
MAX_FRAME_BYTES = 4 * 1024 * 1024

#: Default TCP port of ``python -m repro serve``.
DEFAULT_PORT = 7911


class FrameError(ValueError):
    """A frame violates the wire protocol (size, encoding or shape)."""


def encode_frame(payload: Dict[str, object]) -> bytes:
    """Serialise ``payload`` to one newline-terminated frame.

    Raises:
        FrameError: If the payload is not JSON-serialisable or encodes
            beyond :data:`MAX_FRAME_BYTES`.
    """
    try:
        line = json.dumps(payload, separators=(",", ":"), sort_keys=True,
                          allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise FrameError(f"unserialisable frame: {exc}") from exc
    data = line.encode("utf-8") + b"\n"
    if len(data) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(data)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit")
    return data


def decode_frame(line: bytes) -> Dict[str, object]:
    """Parse one received line back into a frame dictionary.

    Raises:
        FrameError: On oversized, truncated (no trailing newline),
            non-UTF-8, non-JSON or non-object input.
    """
    if len(line) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(line)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit")
    if not line.endswith(b"\n"):
        raise FrameError("truncated frame (missing newline terminator)")
    try:
        payload = json.loads(line.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise FrameError(f"frame is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FrameError(f"frame is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FrameError(
            f"frame must be a JSON object, got {type(payload).__name__}")
    return payload


# ----------------------------------------------------------------------
# Frame constructors (client side)
# ----------------------------------------------------------------------
def submit_frame(specs: List[JobSpec], request_id: str) -> Dict[str, object]:
    """A ``submit`` frame carrying ``specs`` losslessly."""
    return {
        "v": PROTOCOL_VERSION,
        "type": "submit",
        "id": request_id,
        "specs": [spec.to_wire() for spec in specs],
    }


def stats_frame() -> Dict[str, object]:
    return {"v": PROTOCOL_VERSION, "type": "stats"}


def ping_frame() -> Dict[str, object]:
    return {"v": PROTOCOL_VERSION, "type": "ping"}


# ----------------------------------------------------------------------
# Frame validation (server side)
# ----------------------------------------------------------------------
def parse_submit(frame: Dict[str, object]) -> List[JobSpec]:
    """Validate a ``submit`` frame and rebuild its specs.

    Raises:
        FrameError: On a version mismatch, missing/invalid ``specs`` list
            or any malformed spec payload.
    """
    if frame.get("v") != PROTOCOL_VERSION:
        raise FrameError(
            f"protocol version {frame.get('v')!r} != supported {PROTOCOL_VERSION}")
    raw = frame.get("specs")
    if not isinstance(raw, list) or not raw:
        raise FrameError("submit frame needs a non-empty 'specs' list")
    try:
        return [JobSpec.from_wire(payload) for payload in raw]
    except ValueError as exc:
        raise FrameError(str(exc)) from exc


def parse_address(address: str, default_port: int = DEFAULT_PORT) -> "tuple[str, int]":
    """Split ``host[:port]`` (``:port`` alone means localhost).

    Raises:
        ValueError: On an empty host+port or a non-numeric port.
    """
    host, sep, port = address.rpartition(":")
    if not sep:
        host, port = address, ""
    if not host:
        host = "127.0.0.1"
    if not port:
        return host, default_port
    try:
        return host, int(port)
    except ValueError as exc:
        raise ValueError(f"invalid port in address {address!r}") from exc
