"""Ingest external simulator request traces as workloads.

Lets the DRAM model (and the full secure-memory designs) be driven by
*real* request streams recorded by the reference simulators instead of
this repo's synthetic generators.  Two line formats cover the common
exports:

* **Ramulator** load-store traces (``fmt="ramulator"``): one request per
  line, an address token and an op token in either order —
  ``0x400140 R``, ``LD 4195648``, ``ST 0x400180 1`` (optional trailing
  core id).  Ops: ``R/RD/LD/READ`` read, ``W/WR/ST/P/WRITE`` write.
* **gem5** packet-trace CSV (``fmt="gem5"``): ``tick,cmd,addr[,size]``
  rows, e.g. ``1000,ReadReq,4195648`` — any ``cmd`` containing ``read``
  or ``r`` maps to a read, ``write``/``w`` to a write.  Ticks are
  ignored (the simulator re-times requests); rows are kept in file
  order.

``#`` / ``//`` comments and blank lines are skipped in both formats;
``.gz`` paths are decompressed transparently; ``fmt="auto"`` picks gem5
when the first data line contains a comma.  Addresses are byte
addresses, parsed hex (``0x`` prefix) or decimal, and land directly in
the packed :class:`~repro.workloads.trace.TraceArrays` layout — no
per-access objects are materialised.

Registered as the ``trace:<path>`` workload prefix in
:mod:`repro.bench.runner`, so any figure or bench entry point accepts
``trace:/path/to/stream.trace`` wherever a workload name is expected.
"""

from __future__ import annotations

import gzip
import hashlib
from pathlib import Path
from typing import IO, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..mem.access import AccessType
from .trace import ADDRESS_DTYPE, CORE_DTYPE, TYPE_DTYPE, Trace, TraceArrays

PathLike = Union[str, Path]

#: Op tokens accepted by the Ramulator line format (upper-cased).
_READ_OPS = frozenset({"R", "RD", "LD", "READ", "L", "LOAD"})
_WRITE_OPS = frozenset({"W", "WR", "ST", "WRITE", "S", "STORE", "P", "PIM"})


#: Largest byte address and core id the packed trace arrays can hold.
_MAX_ADDRESS = int(np.iinfo(ADDRESS_DTYPE).max)
_MAX_CORE = int(np.iinfo(CORE_DTYPE).max)


class TraceFormatError(ValueError):
    """A trace file line could not be parsed under the declared format."""


def _open_text(path: Path) -> IO[str]:
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="utf-8", errors="replace")
    return path.open("r", encoding="utf-8", errors="replace")


def _data_lines(handle: IO[str]) -> Iterator[Tuple[int, str]]:
    """Yield (1-based line number, stripped text) for non-comment lines."""
    for number, raw in enumerate(handle, start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("//"):
            continue
        yield number, line


def _parse_int(token: str) -> Optional[int]:
    try:
        return int(token, 16) if token.lower().startswith("0x") else int(token)
    except ValueError:
        return None


def _parse_ramulator(
    path: Path, number: int, line: str
) -> Tuple[int, int, int]:
    """One Ramulator line -> (address, type, core)."""
    tokens = line.split()
    address: Optional[int] = None
    access_type: Optional[int] = None
    core = 0
    extras: List[int] = []
    for token in tokens:
        upper = token.upper()
        if upper in _READ_OPS:
            access_type = int(AccessType.READ)
        elif upper in _WRITE_OPS:
            access_type = int(AccessType.WRITE)
        else:
            value = _parse_int(token)
            if value is None:
                raise TraceFormatError(
                    f"{path}:{number}: unrecognised token {token!r} in "
                    f"ramulator trace line {line!r}"
                )
            if address is None:
                address = value
            else:
                extras.append(value)
    if address is None:
        raise TraceFormatError(
            f"{path}:{number}: no address in ramulator trace line {line!r}"
        )
    if access_type is None:
        access_type = int(AccessType.READ)
    if extras:
        core = extras[0]
    return address, access_type, core


def _parse_gem5(path: Path, number: int, line: str) -> Tuple[int, int, int]:
    """One gem5 CSV row (tick,cmd,addr[,size]) -> (address, type, core)."""
    cells = [cell.strip() for cell in line.split(",")]
    if len(cells) < 3:
        raise TraceFormatError(
            f"{path}:{number}: expected tick,cmd,addr[,size], got {line!r}"
        )
    command = cells[1].lower()
    if "read" in command or command == "r":
        access_type = int(AccessType.READ)
    elif "write" in command or command == "w":
        access_type = int(AccessType.WRITE)
    else:
        raise TraceFormatError(
            f"{path}:{number}: unrecognised gem5 command {cells[1]!r}"
        )
    address = _parse_int(cells[2])
    if address is None:
        raise TraceFormatError(
            f"{path}:{number}: bad gem5 address {cells[2]!r}"
        )
    return address, access_type, 0


def detect_format(path: PathLike) -> str:
    """``"gem5"`` if the first data line contains a comma, else ``"ramulator"``."""
    path = Path(path)
    with _open_text(path) as handle:
        for _, line in _data_lines(handle):
            return "gem5" if "," in line else "ramulator"
    return "ramulator"


def load_external_trace(
    path: PathLike,
    fmt: str = "auto",
    name: Optional[str] = None,
    max_accesses: Optional[int] = None,
) -> Trace:
    """Parse an external request trace into an array-backed :class:`Trace`.

    ``fmt`` is ``"ramulator"``, ``"gem5"`` or ``"auto"`` (sniff the first
    data line).  ``max_accesses`` stops parsing early — useful for
    multi-GB traces.  Raises :class:`TraceFormatError` (with file and
    line number) on the first malformed line, including an address or
    core id outside the range of the packed arrays (a negative address, a
    core outside ``[0, 32767]``), and ``ValueError`` if the file holds no
    requests at all.
    """
    path = Path(path)
    if fmt == "auto":
        fmt = detect_format(path)
    if fmt not in ("ramulator", "gem5"):
        raise ValueError(
            f"unknown trace format {fmt!r}; expected ramulator, gem5 or auto"
        )
    parse = _parse_ramulator if fmt == "ramulator" else _parse_gem5
    addresses: List[int] = []
    types: List[int] = []
    cores: List[int] = []
    with _open_text(path) as handle:
        for number, line in _data_lines(handle):
            address, access_type, core = parse(path, number, line)
            if not 0 <= address <= _MAX_ADDRESS:
                raise TraceFormatError(
                    f"{path}:{number}: address {address} outside "
                    f"[0, {_MAX_ADDRESS}] in trace line {line!r}"
                )
            if not 0 <= core <= _MAX_CORE:
                raise TraceFormatError(
                    f"{path}:{number}: core {core} outside [0, {_MAX_CORE}] "
                    f"in trace line {line!r}"
                )
            addresses.append(address)
            types.append(access_type)
            cores.append(core)
            if max_accesses is not None and len(addresses) >= max_accesses:
                break
    if not addresses:
        raise ValueError(f"{path}: no requests found ({fmt} format)")
    arrays = TraceArrays(
        np.asarray(addresses, dtype=ADDRESS_DTYPE),
        np.asarray(types, dtype=TYPE_DTYPE),
        np.asarray(cores, dtype=CORE_DTYPE),
    )
    trace_name = name if name is not None else f"trace:{path.name}"
    return Trace.from_arrays(
        trace_name,
        arrays,
        metadata={
            "source": str(path),
            "format": fmt,
            "requests": len(arrays),
        },
    )


def trace_digest(workload: str) -> Optional[str]:
    """sha256 of a ``trace:<path>`` workload's file; ``None`` for any other.

    The file, not its path, names the stream: every cache keyed by a
    workload name folds this in, so an edited trace file misses.
    """
    if not workload.startswith("trace:"):
        return None
    return hashlib.sha256(Path(workload[len("trace:"):]).read_bytes()).hexdigest()
