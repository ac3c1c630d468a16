"""Trace containers and helpers shared by every workload generator.

A trace is a sequence of :class:`~repro.mem.access.MemoryAccess` records.
Two representations coexist:

* **object traces** — a Python list of ``MemoryAccess`` records, the
  representation generators build and tests manipulate directly;
* **array traces** — :class:`TraceArrays`, three parallel NumPy arrays
  (addresses/types/cores) with pre-shifted block addresses, the packed
  form the ``.npz`` trace cache stores and the simulator's fast path
  consumes without constructing one object per access.

:class:`Trace` can be backed by either form and converts lazily in both
directions, so existing ``Iterable[MemoryAccess]`` callers keep working
while the hot loop goes array-native.  Workloads build per-core streams;
:func:`interleave` merges them round-robin to model the paper's 4-thread
execution feeding one shared LLC and memory controller.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from ..mem.access import BLOCK_SHIFT, AccessType, MemoryAccess

#: Base of the workload heap; structures are laid out above this address.
HEAP_BASE = 0x1000_0000

#: Alignment for each allocated structure (a 4KB page).
ALLOC_ALIGN = 4096

#: Canonical dtypes of the three parallel trace arrays (and the ``.npz``
#: on-disk layout): 64-bit byte addresses, 8-bit access types, 16-bit cores.
ADDRESS_DTYPE = np.int64
TYPE_DTYPE = np.int8
CORE_DTYPE = np.int16

_WRITE = int(AccessType.WRITE)


class Allocator:
    """Bump allocator assigning page-aligned base addresses to structures."""

    def __init__(self, base: int = HEAP_BASE) -> None:
        self._next = base
        self.regions: Dict[str, tuple] = {}

    def alloc(self, name: str, size_bytes: int) -> int:
        """Reserve ``size_bytes`` for structure ``name``; returns its base."""
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        base = self._next
        rounded = (size_bytes + ALLOC_ALIGN - 1) // ALLOC_ALIGN * ALLOC_ALIGN
        self._next += rounded
        self.regions[name] = (base, size_bytes)
        return base

    @property
    def footprint_bytes(self) -> int:
        """Total bytes reserved so far."""
        return self._next - HEAP_BASE


class TraceArrays:
    """Packed trace: parallel NumPy arrays of address, type and core.

    This is the array-native representation the simulator's fast path
    consumes: no per-access Python object is ever constructed, and block
    addresses are derived once, vectorised, instead of per cache level.

    Attributes:
        addresses: Byte addresses (``int64``).
        types: :class:`~repro.mem.access.AccessType` values (``int8``).
        cores: Issuing core indices (``int16``).
    """

    __slots__ = ("addresses", "types", "cores", "_block_addresses")

    def __init__(self, addresses, types, cores) -> None:
        self.addresses = np.ascontiguousarray(addresses, dtype=ADDRESS_DTYPE)
        self.types = np.ascontiguousarray(types, dtype=TYPE_DTYPE)
        self.cores = np.ascontiguousarray(cores, dtype=CORE_DTYPE)
        if not (len(self.addresses) == len(self.types) == len(self.cores)):
            raise ValueError(
                "addresses, types and cores must have equal lengths "
                f"({len(self.addresses)}/{len(self.types)}/{len(self.cores)})"
            )
        self._block_addresses: Optional[np.ndarray] = None

    @property
    def block_addresses(self) -> np.ndarray:
        """Pre-shifted cache-block addresses (``addresses >> BLOCK_SHIFT``)."""
        if self._block_addresses is None:
            self._block_addresses = self.addresses >> BLOCK_SHIFT
        return self._block_addresses

    @property
    def is_write(self) -> np.ndarray:
        """Boolean store mask (derived, not cached — rarely on the hot path)."""
        return self.types == _WRITE

    def __len__(self) -> int:
        return len(self.addresses)

    def __iter__(self) -> Iterator[MemoryAccess]:
        """Adapter: yield one ``MemoryAccess`` per record (slow path)."""
        return iter(self.to_accesses())

    def head(self, max_accesses: int) -> "TraceArrays":
        """A view limited to the first ``max_accesses`` records."""
        return TraceArrays(
            self.addresses[:max_accesses],
            self.types[:max_accesses],
            self.cores[:max_accesses],
        )

    @classmethod
    def from_accesses(cls, accesses: Sequence[MemoryAccess]) -> "TraceArrays":
        """Pack a sequence of access records into parallel arrays."""
        count = len(accesses)
        addresses = np.fromiter(
            (access.address for access in accesses), dtype=ADDRESS_DTYPE, count=count
        )
        types = np.fromiter(
            (int(access.type) for access in accesses), dtype=TYPE_DTYPE, count=count
        )
        cores = np.fromiter(
            (access.core for access in accesses), dtype=CORE_DTYPE, count=count
        )
        return cls(addresses, types, cores)

    @classmethod
    def from_iter(
        cls, accesses: Iterable[MemoryAccess], chunk: int = 65536
    ) -> "TraceArrays":
        """Pack any iterable of access records, streaming in bounded chunks.

        Unlike :meth:`from_accesses` this never materialises the whole
        iterable as a Python list: generators are consumed ``chunk``
        records at a time straight into typed arrays, so peak overhead is
        one chunk of objects rather than the full trace.  Sequences take
        the single-pass :meth:`from_accesses` shortcut.
        """
        if isinstance(accesses, Sequence):
            return cls.from_accesses(accesses)
        address_parts: List[np.ndarray] = []
        type_parts: List[np.ndarray] = []
        core_parts: List[np.ndarray] = []
        iterator = iter(accesses)
        while True:
            part = list(itertools.islice(iterator, chunk))
            if not part:
                break
            count = len(part)
            address_parts.append(
                np.fromiter(
                    (access.address for access in part),
                    dtype=ADDRESS_DTYPE,
                    count=count,
                )
            )
            type_parts.append(
                np.fromiter(
                    (int(access.type) for access in part),
                    dtype=TYPE_DTYPE,
                    count=count,
                )
            )
            core_parts.append(
                np.fromiter(
                    (access.core for access in part), dtype=CORE_DTYPE, count=count
                )
            )
        if not address_parts:
            return cls(
                np.empty(0, dtype=ADDRESS_DTYPE),
                np.empty(0, dtype=TYPE_DTYPE),
                np.empty(0, dtype=CORE_DTYPE),
            )
        return cls(
            np.concatenate(address_parts),
            np.concatenate(type_parts),
            np.concatenate(core_parts),
        )

    def to_accesses(self) -> List[MemoryAccess]:
        """Materialise the equivalent list of ``MemoryAccess`` objects."""
        return [
            MemoryAccess(address, AccessType(kind), core)
            for address, kind, core in zip(
                self.addresses.tolist(), self.types.tolist(), self.cores.tolist()
            )
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceArrays(n={len(self)})"


class Trace:
    """A named, materialised access trace.

    Backed by an object list, a :class:`TraceArrays`, or both: whichever
    representation is asked for first is converted lazily and cached, so
    generators keep building object lists while the ``.npz`` cache and
    the simulator fast path stay array-native end to end.

    Attributes:
        name: Workload label carried through to result tables.
        metadata: Generator parameters for reproducibility reports.
    """

    def __init__(
        self,
        name: str,
        accesses: Optional[List[MemoryAccess]] = None,
        metadata: Optional[Dict[str, object]] = None,
        arrays: Optional[TraceArrays] = None,
    ) -> None:
        self.name = name
        self.metadata: Dict[str, object] = metadata if metadata is not None else {}
        self._accesses = accesses
        self._arrays = arrays
        if self._accesses is None and self._arrays is None:
            self._accesses = []

    @classmethod
    def from_arrays(
        cls,
        name: str,
        arrays: TraceArrays,
        metadata: Optional[Dict[str, object]] = None,
    ) -> "Trace":
        """Build an array-backed trace (no per-access objects created)."""
        return cls(name, metadata=metadata, arrays=arrays)

    # ------------------------------------------------------------------
    # Representations
    # ------------------------------------------------------------------
    @property
    def accesses(self) -> List[MemoryAccess]:
        """The access records in program order (materialised on demand)."""
        if self._accesses is None:
            self._accesses = self._arrays.to_accesses()
        return self._accesses

    def arrays(self) -> TraceArrays:
        """The packed array representation (converted once, then cached)."""
        if self._arrays is None:
            self._arrays = TraceArrays.from_accesses(self._accesses)
        return self._arrays

    def __len__(self) -> int:
        if self._accesses is not None:
            return len(self._accesses)
        return len(self._arrays)

    def __iter__(self) -> Iterator[MemoryAccess]:
        return iter(self.accesses)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        backing = "objects" if self._accesses is not None else "arrays"
        return f"Trace(name={self.name!r}, n={len(self)}, backing={backing})"

    # ------------------------------------------------------------------
    # Derived statistics
    # ------------------------------------------------------------------
    @property
    def write_fraction(self) -> float:
        """Fraction of accesses that are stores."""
        if len(self) == 0:
            return 0.0
        if self._accesses is None:
            return int(np.count_nonzero(self._arrays.types == _WRITE)) / len(self)
        writes = sum(1 for access in self._accesses if access.is_write)
        return writes / len(self._accesses)

    def footprint_blocks(self) -> int:
        """Number of distinct 64B blocks touched."""
        if self._accesses is None:
            return int(np.unique(self._arrays.block_addresses).size)
        return len({access.block_address for access in self._accesses})

    def truncated(self, max_accesses: int) -> "Trace":
        """A copy limited to the first ``max_accesses`` records."""
        if self._accesses is None:
            return Trace.from_arrays(
                self.name, self._arrays.head(max_accesses), dict(self.metadata)
            )
        return Trace(self.name, self._accesses[:max_accesses], dict(self.metadata))

    def core_counts(self) -> Dict[int, int]:
        """Accesses per core id."""
        if self._accesses is None:
            cores, counts = np.unique(self._arrays.cores, return_counts=True)
            return dict(zip(cores.tolist(), counts.tolist()))
        counts: Dict[int, int] = {}
        for access in self._accesses:
            counts[access.core] = counts.get(access.core, 0) + 1
        return counts


def interleave(streams: Sequence[Sequence[MemoryAccess]]) -> List[MemoryAccess]:
    """Round-robin merge of per-core access streams.

    Streams may have different lengths; exhausted streams simply drop out,
    mirroring threads that finish their partition early.
    """
    merged: List[MemoryAccess] = []
    iterators = [iter(stream) for stream in streams]
    active = list(range(len(iterators)))
    while active:
        still_active: List[int] = []
        for index in active:
            try:
                merged.append(next(iterators[index]))
            except StopIteration:
                continue
            still_active.append(index)
        active = still_active
    return merged


def multiprogram(traces: Sequence[Trace], address_stride: int = 1 << 30) -> Trace:
    """Build a multi-programmed mix: one workload per core.

    Each input trace is pinned to its own core and relocated into a
    private address-space slice (``address_stride`` apart) so the
    programs share only the LLC and the memory controller — the classic
    rate-mode setup.  Streams interleave round-robin.  The simulated
    memory must span ``len(traces) * address_stride`` bytes plus the
    largest program footprint.
    """
    if not traces:
        raise ValueError("multiprogram needs at least one trace")
    streams: List[List[MemoryAccess]] = []
    for core, trace in enumerate(traces):
        base = core * address_stride
        streams.append(
            [
                MemoryAccess(base + access.address, access.type, core)
                for access in trace.accesses
            ]
        )
    name = "+".join(trace.name for trace in traces)
    return Trace(
        name=name,
        accesses=interleave(streams),
        metadata={
            "kind": "multiprogram",
            "programs": [trace.name for trace in traces],
            "address_stride": address_stride,
        },
    )
