"""Differential oracle: the same input, two independent computations.

Two flavours of cross-checking, each reporting the *first* divergence
rather than a bare mismatch flag:

* :func:`diff_functional` — one op trace, two counter schemes, lockstep
  through two :class:`~repro.secure.functional.FunctionalSecureMemory`
  instances.  The schemes organise counters completely differently
  (monolithic vs split vs MorphCtr), but decrypted plaintext must be
  identical op-for-op.

* :func:`check_invariants` — conservation laws the timing engine must
  obey on *any* run: every counter-line DRAM fetch is authenticated
  exactly once, re-encryption traffic is exactly two background requests
  per covered block per overflow, MAC-in-ECC designs issue zero MAC
  accesses, the hierarchy funnel never widens
  (``l1_misses >= llc_misses``), and the DRAM bank-state model's
  per-class / per-channel accounting balances against the traffic
  ledger (reads = data+ctr+mt+mac, writes = data+ctr, background
  occupancy = re-encryption requests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..secure.designs import SecureDesign
from ..secure.functional import FunctionalSecureMemory
from ..sim.simulator import SimulationConfig, Simulator, build_design
from ..workloads.trace import MemoryAccess, TraceArrays
from .tamper import Op


@dataclass(frozen=True)
class Divergence:
    """One flattened field where the two computations disagree."""

    key: str
    left: object
    right: object

    def to_dict(self) -> Dict[str, object]:
        return {"key": self.key, "left": self.left, "right": self.right}


@dataclass
class DifferentialReport:
    """Outcome of one differential comparison."""

    label: str
    matched: bool
    divergences: List[Divergence] = field(default_factory=list)
    #: First access/op index where the two computations disagree
    #: (``None`` when they match, or when the divergence only shows in
    #: aggregate state).
    first_divergence_at: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "matched": self.matched,
            "divergences": [d.to_dict() for d in self.divergences],
            "first_divergence_at": self.first_divergence_at,
        }


def flatten(value: object, prefix: str = "") -> Dict[str, object]:
    """Flatten nested dicts/lists into dotted-key scalars for diffing."""
    flat: Dict[str, object] = {}
    if isinstance(value, dict):
        for key in value:
            flat.update(flatten(value[key], f"{prefix}.{key}" if prefix else str(key)))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            flat.update(flatten(item, f"{prefix}[{i}]"))
    else:
        flat[prefix] = value
    return flat


def diff_dicts(left: Dict[str, object], right: Dict[str, object], limit: int = 16) -> List[Divergence]:
    """Field-level divergences between two nested dicts, sorted by key."""
    flat_left = flatten(left)
    flat_right = flatten(right)
    missing = object()
    divergences: List[Divergence] = []
    for key in sorted(set(flat_left) | set(flat_right)):
        a = flat_left.get(key, missing)
        b = flat_right.get(key, missing)
        if a != b:
            divergences.append(
                Divergence(
                    key=key,
                    left="<absent>" if a is missing else a,
                    right="<absent>" if b is missing else b,
                )
            )
            if len(divergences) >= limit:
                break
    return divergences


# ----------------------------------------------------------------------
# Functional memory: scheme A vs scheme B
# ----------------------------------------------------------------------
def diff_functional(
    ops: Sequence[Op],
    memory_a: FunctionalSecureMemory,
    memory_b: FunctionalSecureMemory,
    label: str = "functional",
) -> DifferentialReport:
    """Lockstep two functional memories through the same op trace.

    Decrypted plaintext must agree on every read regardless of counter
    organisation; afterwards both memories must hold the same resident
    set and the same recoverable contents.
    """
    divergences: List[Divergence] = []
    first_at: Optional[int] = None
    shadow: Dict[int, bytes] = {}
    for i, op in enumerate(ops):
        if op.is_write:
            payload = op.payload.ljust(64, b"\x00")
            memory_a.write(op.block, op.payload)
            memory_b.write(op.block, op.payload)
            shadow[op.block] = payload
        else:
            value_a = memory_a.read(op.block)
            value_b = memory_b.read(op.block)
            if value_a != value_b or value_a != shadow[op.block]:
                divergences.append(
                    Divergence(
                        key=f"read[{i}].block{op.block}",
                        left=value_a.hex(),
                        right=value_b.hex(),
                    )
                )
                if first_at is None:
                    first_at = i
    if first_at is None:
        if memory_a.resident_blocks != memory_b.resident_blocks:
            divergences.append(
                Divergence(
                    key="resident_blocks",
                    left=memory_a.resident_blocks,
                    right=memory_b.resident_blocks,
                )
            )
        else:
            for block in sorted(shadow):
                value_a = memory_a.read(block)
                value_b = memory_b.read(block)
                if value_a != value_b:
                    divergences.append(
                        Divergence(
                            key=f"final.block{block}",
                            left=value_a.hex(),
                            right=value_b.hex(),
                        )
                    )
                    break
    return DifferentialReport(
        label=label,
        matched=not divergences,
        divergences=divergences,
        first_divergence_at=first_at,
    )


# ----------------------------------------------------------------------
# Conservation invariants
# ----------------------------------------------------------------------
def check_invariants(design: SecureDesign) -> List[str]:
    """Conservation laws any run must satisfy; returns violations."""
    problems: List[str] = []
    stats = design.stats
    if stats.l1_misses > stats.accesses:
        problems.append(
            f"l1_misses ({stats.l1_misses}) > accesses ({stats.accesses})"
        )
    if stats.llc_misses > stats.l1_misses:
        problems.append(
            f"llc_misses ({stats.llc_misses}) > l1_misses ({stats.l1_misses})"
        )
    if stats.bypasses > stats.l1_misses:
        problems.append(
            f"bypasses ({stats.bypasses}) > l1_misses ({stats.l1_misses})"
        )
    dram = design.dram_model()
    if dram is not None:
        dstats = dram.stats
        if dstats.row_hits + dstats.row_misses != dstats.requests:
            problems.append(
                f"dram row_hits ({dstats.row_hits}) + row_misses "
                f"({dstats.row_misses}) != requests ({dstats.requests})"
            )
        if sum(dstats.per_channel.values()) != dstats.requests:
            problems.append(
                f"dram per-channel requests ({sum(dstats.per_channel.values())}) "
                f"!= requests ({dstats.requests})"
            )
        expected_busy = (dstats.requests + dstats.background_requests) * dram.timings.burst
        if sum(dstats.per_channel_busy.values()) != expected_busy:
            problems.append(
                "dram bus occupancy: per-channel busy "
                f"({sum(dstats.per_channel_busy.values())}) != "
                f"(requests + background) x burst ({expected_busy})"
            )
    engine = getattr(design, "engine", None)
    if engine is None:
        return problems
    traffic = engine.traffic
    if dram is not None:
        dstats = dram.stats
        expected_reads = (
            traffic.data_reads + traffic.ctr_reads
            + traffic.mt_reads + traffic.mac_accesses
        )
        if dstats.reads != expected_reads:
            problems.append(
                "every traffic read must hit DRAM exactly once: dram reads "
                f"({dstats.reads}) != data+ctr+mt+mac reads ({expected_reads})"
            )
        expected_writes = traffic.data_writes + traffic.ctr_writes
        if dstats.writes != expected_writes:
            problems.append(
                f"dram writes ({dstats.writes}) != data_writes + ctr_writes "
                f"({expected_writes})"
            )
        if dstats.background_requests != traffic.reencryption_requests:
            problems.append(
                f"dram background requests ({dstats.background_requests}) != "
                f"reencryption_requests ({traffic.reencryption_requests})"
            )
    integrity = engine.integrity.stats
    for name in (
        "data_reads", "data_writes", "ctr_reads", "ctr_writes",
        "mt_reads", "mac_accesses", "reencryption_requests",
    ):
        if getattr(traffic, name) < 0:
            problems.append(f"traffic.{name} is negative")
    if integrity.traversals != traffic.ctr_reads:
        problems.append(
            "every CTR DRAM fetch must be authenticated exactly once: "
            f"mt traversals ({integrity.traversals}) != ctr_reads ({traffic.ctr_reads})"
        )
    if traffic.mt_reads != integrity.nodes_fetched:
        problems.append(
            f"mt_reads ({traffic.mt_reads}) != mt nodes fetched ({integrity.nodes_fetched})"
        )
    expected_reenc = engine.events.ctr_overflows * 2 * engine.scheme.blocks_per_ctr
    if traffic.reencryption_requests != expected_reenc:
        problems.append(
            "overflow accounting: reencryption_requests "
            f"({traffic.reencryption_requests}) != ctr_overflows x 2 x blocks_per_ctr "
            f"({expected_reenc})"
        )
    if engine.config.mac_in_ecc and traffic.mac_accesses != 0:
        problems.append(
            f"mac_in_ecc design issued {traffic.mac_accesses} MAC accesses"
        )
    ctr_stats = engine.ctr_cache.stats
    cache_stats = engine.ctr_cache.cache.stats
    if traffic.ctr_reads != ctr_stats.misses + cache_stats.prefetch_issued:
        problems.append(
            "every counter-line DRAM read is a CTR-cache miss or a CTR "
            f"prefetch: ctr_reads ({traffic.ctr_reads}) != ctr-cache misses "
            f"({ctr_stats.misses}) + prefetches ({cache_stats.prefetch_issued})"
        )
    if (ctr_stats.hits, ctr_stats.misses) != (cache_stats.hits, cache_stats.misses):
        problems.append(
            f"ctr-cache hits/misses ({ctr_stats.hits}/{ctr_stats.misses}) != "
            f"its cache's ({cache_stats.hits}/{cache_stats.misses})"
        )
    return problems


def run_with_invariants(
    design_name: str,
    trace: Union[Sequence[MemoryAccess], TraceArrays],
    config: Optional[SimulationConfig] = None,
) -> DifferentialReport:
    """Run one design over ``trace`` and apply :func:`check_invariants`."""
    config = config if config is not None else SimulationConfig()
    design = build_design(design_name, config)
    Simulator(design, config).run(trace)
    problems = check_invariants(design)
    return DifferentialReport(
        label=f"invariants:{design_name}",
        matched=not problems,
        divergences=[Divergence(key=p, left=None, right=None) for p in problems],
    )
