"""Job specifications: one job = one ``simulate(design, workload, config)`` cell.

A :class:`JobSpec` is a fully-resolved, picklable description of a single
simulation: the environment knobs (trace length, graph scale) and the
default configuration are captured at *spec-creation* time, so a worker
process can execute the job without consulting any ambient state.

Every spec has a stable **content hash** — a SHA-256 over the design name,
workload, seed and the canonicalised :class:`~repro.sim.config.SimulationConfig`
— which keys the on-disk :class:`~repro.exec.cache.ResultCache` and
deduplicates identical cells inside one run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from dataclasses import dataclass
from typing import Dict, Optional

from ..sim.config import SimulationConfig

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


#: Resolved ``{field_name: type}`` hints per dataclass — ``get_type_hints``
#: walks string annotations and is too slow to re-run per wire message.
_HINT_CACHE: Dict[type, Dict[str, object]] = {}


def _dataclass_from_dict(cls: type, data: Dict[str, object]):
    """Rebuild a (possibly nested) config dataclass from its ``asdict`` form.

    Unknown keys are rejected rather than dropped: a spec that arrives over
    the wire with fields this build does not understand would otherwise
    hash differently from what it executes as.

    Raises:
        ValueError: If ``data`` is not a dict or carries unknown fields.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__}: expected an object, got {type(data).__name__}")
    hints = _HINT_CACHE.get(cls)
    if hints is None:
        hints = typing.get_type_hints(cls)
        _HINT_CACHE[cls] = hints
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ValueError(f"{cls.__name__}: unknown field(s) {sorted(unknown)}")
    kwargs = {}
    for field_obj in dataclasses.fields(cls):
        if field_obj.name not in data:
            continue
        value = data[field_obj.name]
        field_type = hints.get(field_obj.name)
        if dataclasses.is_dataclass(field_type) and isinstance(value, dict):
            value = _dataclass_from_dict(field_type, value)  # type: ignore[arg-type]
        kwargs[field_obj.name] = value
    return cls(**kwargs)


def config_from_dict(data: Dict[str, object]) -> SimulationConfig:
    """Inverse of :func:`canonical_config_dict`.

    The round trip is exact: every config field is a primitive or a nested
    dataclass of primitives, JSON preserves ints and ``repr``-precision
    floats, so ``config_from_dict(canonical_config_dict(c)) == c`` and the
    rebuilt config hashes to the same :meth:`JobSpec.content_hash`.
    """
    return _dataclass_from_dict(SimulationConfig, data)


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
        """Stable SHA-256 identifying this cell's inputs (its wire form)."""
        blob = json.dumps(self.to_wire(), sort_keys=True, separators=(",", ":"))
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

    def to_wire(self) -> Dict[str, object]:
        """Full JSON-safe form for the serve protocol (lossless).

        Unlike :meth:`describe` this includes the resolved configuration,
        so the receiving side rebuilds a spec with the *same* content hash
        — the property the server's dedupe and cache lookups rely on.
        """
        return {
            "spec_version": SPEC_VERSION,
            "design": self.design,
            "workload": self.workload,
            "num_cores": self.num_cores,
            "trace_length": self.trace_length,
            "graph_scale": self.graph_scale,
            "seed": self.seed,
            "config": canonical_config_dict(self.config),
        }

    @classmethod
    def from_wire(cls, data: Dict[str, object]) -> "JobSpec":
        """Inverse of :meth:`to_wire`.

        Raises:
            ValueError: On a malformed payload or a ``spec_version`` this
                build does not understand (executing it could silently
                mean something different from what the sender hashed).
        """
        if not isinstance(data, dict):
            raise ValueError(f"spec: expected an object, got {type(data).__name__}")
        version = data.get("spec_version")
        if version != SPEC_VERSION:
            raise ValueError(f"spec version {version!r} != supported {SPEC_VERSION}")
        try:
            seed = data.get("seed")
            return cls(
                design=str(data["design"]),
                workload=str(data["workload"]),
                config=config_from_dict(data["config"]),  # type: ignore[arg-type]
                num_cores=int(data["num_cores"]),
                trace_length=int(data["trace_length"]),
                graph_scale=float(data["graph_scale"]),
                seed=int(seed) if seed is not None else None,
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed spec payload: {exc}") from exc

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
