"""Simulation results: per-run metrics and cross-design comparisons."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..mem.stats import TrafficStats
from .smat import SmatInputs, smat, smat_unprotected


@dataclass
class SimulationResult:
    """Everything measured from running one trace through one design.

    Attributes:
        design: Design name (``np``, ``morphctr``, ``cosmos``...).
        workload: Workload name the trace came from.
        accesses: Trace records simulated.
        instructions: Instructions represented (memory + non-memory).
        cycles: Total cycles of the IPC proxy model.
        total_latency: Sum of per-access latencies (cycles, no overlap).
        l1_miss_rate / l2_miss_rate / llc_miss_rate: Hierarchy miss rates.
        ctr_miss_rate: CTR-cache miss rate (0 for NP).
        traffic: DRAM traffic breakdown.
        extra: Design-specific metrics (prediction accuracy, bypasses...).
    """

    design: str
    workload: str
    accesses: int
    instructions: int
    cycles: float
    total_latency: int
    l1_miss_rate: float
    l2_miss_rate: float
    llc_miss_rate: float
    ctr_miss_rate: float
    traffic: TrafficStats
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        """Instructions per cycle of the proxy CPU model."""
        if self.cycles <= 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def average_latency(self) -> float:
        """Mean unoverlapped latency per access."""
        if self.accesses == 0:
            return 0.0
        return self.total_latency / self.accesses

    def speedup_over(self, baseline: "SimulationResult") -> float:
        """Relative performance vs ``baseline`` (cycles ratio)."""
        if self.cycles <= 0:
            return 0.0
        return baseline.cycles / self.cycles

    def normalized_to(self, reference: "SimulationResult") -> float:
        """Performance normalised to ``reference`` (typically NP).

        1.0 means parity with the reference; the paper's Figs. 10/15/16/17
        plot exactly this quantity.
        """
        return self.speedup_over(reference)

    def smat_inputs(
        self,
        l1_latency: float,
        l2_latency: float,
        llc_latency: float,
        dram_latency: float,
        ctr_hit_latency: float,
        ctr_dram_latency: float,
        ctr_verify_latency: float,
    ) -> SmatInputs:
        """Bundle measured miss rates with supplied latencies for Eq. 1-2."""
        return SmatInputs(
            l1_latency=l1_latency,
            l2_latency=l2_latency,
            llc_latency=llc_latency,
            dram_latency=dram_latency,
            ctr_hit_latency=ctr_hit_latency,
            ctr_dram_latency=ctr_dram_latency,
            ctr_verify_latency=ctr_verify_latency,
            mr_l1=self.l1_miss_rate,
            mr_l2=self.l2_miss_rate,
            mr_llc=self.llc_miss_rate,
            mr_ctr=self.ctr_miss_rate,
        )

    def smat(self, inputs: Optional[SmatInputs] = None, **latencies) -> float:
        """Compute SMAT from this run's miss rates.

        Either pass a ready :class:`SmatInputs` or the latency keyword
        arguments accepted by :meth:`smat_inputs`.
        """
        if inputs is None:
            inputs = self.smat_inputs(**latencies)
        if self.design == "np" or self.ctr_miss_rate == 0.0 and self.traffic.ctr_reads == 0:
            return smat_unprotected(inputs)
        return smat(inputs)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dictionary losslessly capturing every field.

        Floats survive a JSON round-trip exactly (Python serialises them
        with ``repr`` precision), so :meth:`from_dict` reconstructs a
        record equal to the original — the property the on-disk result
        cache relies on.
        """
        return {
            "design": self.design,
            "workload": self.workload,
            "accesses": self.accesses,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "total_latency": self.total_latency,
            "l1_miss_rate": self.l1_miss_rate,
            "l2_miss_rate": self.l2_miss_rate,
            "llc_miss_rate": self.llc_miss_rate,
            "ctr_miss_rate": self.ctr_miss_rate,
            "traffic": {
                "data_reads": self.traffic.data_reads,
                "data_writes": self.traffic.data_writes,
                "ctr_reads": self.traffic.ctr_reads,
                "ctr_writes": self.traffic.ctr_writes,
                "mt_reads": self.traffic.mt_reads,
                "mac_accesses": self.traffic.mac_accesses,
                "reencryption_requests": self.traffic.reencryption_requests,
            },
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimulationResult":
        """Inverse of :meth:`to_dict`.

        Raises:
            KeyError/TypeError: If ``data`` does not have the expected
                shape — callers treating deserialisation as fallible (the
                result cache) catch these and discard the entry.
        """
        traffic = data["traffic"]
        return cls(
            design=str(data["design"]),
            workload=str(data["workload"]),
            accesses=int(data["accesses"]),
            instructions=int(data["instructions"]),
            cycles=float(data["cycles"]),
            total_latency=int(data["total_latency"]),
            l1_miss_rate=float(data["l1_miss_rate"]),
            l2_miss_rate=float(data["l2_miss_rate"]),
            llc_miss_rate=float(data["llc_miss_rate"]),
            ctr_miss_rate=float(data["ctr_miss_rate"]),
            traffic=TrafficStats(
                data_reads=int(traffic["data_reads"]),
                data_writes=int(traffic["data_writes"]),
                ctr_reads=int(traffic["ctr_reads"]),
                ctr_writes=int(traffic["ctr_writes"]),
                mt_reads=int(traffic["mt_reads"]),
                mac_accesses=int(traffic["mac_accesses"]),
                reencryption_requests=int(traffic["reencryption_requests"]),
            ),
            extra=dict(data.get("extra", {})),
        )

    def summary(self) -> Dict[str, object]:
        """Flat dictionary for report tables."""
        data = {
            "design": self.design,
            "workload": self.workload,
            "accesses": self.accesses,
            "ipc": round(self.ipc, 4),
            "avg_latency": round(self.average_latency, 2),
            "l1_miss_rate": round(self.l1_miss_rate, 4),
            "l2_miss_rate": round(self.l2_miss_rate, 4),
            "llc_miss_rate": round(self.llc_miss_rate, 4),
            "ctr_miss_rate": round(self.ctr_miss_rate, 4),
            "dram_requests": self.traffic.total,
            "mt_reads": self.traffic.mt_reads,
        }
        # Sorted so table columns are stable regardless of the order in
        # which ``extra`` was filled.
        data.update({key: round(value, 4)
                     for key, value in sorted(self.extra.items())})
        return data
