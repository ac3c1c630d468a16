"""Job specifications: one job = one ``simulate(design, workload, config)`` cell.

A :class:`JobSpec` is a fully-resolved, picklable description of a single
simulation: the environment knobs (trace length, graph scale) and the
default configuration are captured at *spec-creation* time, so a worker
process can execute the job without consulting any ambient state.

Every spec has a stable **content hash** — a SHA-256 over the design name,
workload, seed and the canonicalised :class:`~repro.sim.config.SimulationConfig`,
plus the file's own SHA-256 for a ``trace:<path>`` workload — which keys
the on-disk :class:`~repro.exec.cache.ResultCache` and deduplicates
identical cells inside one run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Optional

from ..sim.config import SimulationConfig
from ..workloads.ingest import trace_digest

#: Bump when the hash inputs or the simulation semantics they describe
#: change incompatibly; stale cache entries then miss instead of lying.
SPEC_VERSION = 1


def canonical_config_dict(config: SimulationConfig) -> Dict[str, object]:
    """A plain nested dictionary capturing every field of ``config``.

    ``SimulationConfig`` is a tree of dataclasses holding only primitives,
    so :func:`dataclasses.asdict` is a faithful canonical form; JSON with
    sorted keys then gives a stable byte representation for hashing.
    """
    return dataclasses.asdict(config)


@dataclass(frozen=True)
class JobSpec:
    """One simulation cell, fully resolved and ready to execute anywhere.

    Attributes:
        design: Design name (``np``, ``morphctr``, ``cosmos``...).
        workload: Workload name (any name ``bench.runner.get_trace`` accepts).
        config: The *resolved* simulation configuration (never ``None`` —
            callers substitute the harness default before building a spec).
        num_cores: Cores the trace is generated for.
        trace_length: Accesses in the trace (env knobs already applied).
        graph_scale: Graph-size multiplier (env knob already applied).
        seed: Optional trace-generator seed override.
    """

    design: str
    workload: str
    config: SimulationConfig
    num_cores: int = 4
    trace_length: int = 150_000
    graph_scale: float = 4.0
    seed: Optional[int] = None

    def content_hash(self) -> str:
        """Stable SHA-256 over every field, the configuration included.

        A ``trace:<path>`` workload also hashes the file's contents, so an
        edited trace misses the result cache instead of serving the old
        result.
        """
        fields = {
            "spec_version": SPEC_VERSION,
            "design": self.design,
            "workload": self.workload,
            "num_cores": self.num_cores,
            "trace_length": self.trace_length,
            "graph_scale": self.graph_scale,
            "seed": self.seed,
            "config": canonical_config_dict(self.config),
        }
        digest = trace_digest(self.workload)
        if digest is not None:
            fields["trace_sha256"] = digest
        blob = json.dumps(fields, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def describe(self) -> Dict[str, object]:
        """Small JSON-safe summary for manifests and error messages."""
        return {
            "design": self.design,
            "workload": self.workload,
            "num_cores": self.num_cores,
            "trace_length": self.trace_length,
            "graph_scale": self.graph_scale,
            "seed": self.seed,
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.design}/{self.workload}"


def make_spec(
    design: str,
    workload: str,
    config: Optional[SimulationConfig] = None,
    num_cores: int = 4,
    max_accesses: Optional[int] = None,
    seed: Optional[int] = None,
) -> JobSpec:
    """Resolve harness defaults and environment knobs into a :class:`JobSpec`.

    Mirrors the argument conventions of ``bench.runner.run_design``: a
    ``None`` config means the standard scaled-paper configuration, a
    ``None`` ``max_accesses`` means the environment-controlled default
    trace length.
    """
    from ..bench.runner import default_config, graph_scale, trace_length

    return JobSpec(
        design=design,
        workload=workload,
        config=config if config is not None else default_config(num_cores),
        num_cores=num_cores,
        trace_length=max_accesses if max_accesses is not None else trace_length(),
        graph_scale=graph_scale(),
        seed=seed,
    )
