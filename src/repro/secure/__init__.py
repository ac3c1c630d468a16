"""Secure-memory substrate: AES-CTR, counters, MAC, Merkle tree, designs."""

from .aes import AES_LATENCY_CYCLES, AUTH_LATENCY_CYCLES, AesCtrEngine
from .counters import (
    CounterScheme,
    MonolithicCounters,
    MorphCtrCounters,
    ReencryptionEvent,
    SplitCounters,
    make_counter_scheme,
)
from .ctr_cache import CtrCache, CtrCacheStats
from .designs import (
    CosmosDesign,
    CosmosEarlyDesign,
    DesignStats,
    EarlyCtrDesign,
    EmccDesign,
    MorphCtrDesign,
    NonProtectedDesign,
    ProtectedDesign,
    RmccDesign,
    SecureDesign,
    make_design,
)
from .engine import EngineConfig, SecureMemoryEngine
from .functional import FunctionalSecureMemory, IntegrityViolation, SecureMemoryStats
from .layout import DEFAULT_MT_ARITY, SecureLayout
from .mac import MacStore, compute_mac
from .merkle import IntegrityTreeModel, IntegrityTreeStats, MerkleTree

__all__ = [
    "AES_LATENCY_CYCLES",
    "AUTH_LATENCY_CYCLES",
    "AesCtrEngine",
    "CosmosDesign",
    "CosmosEarlyDesign",
    "CounterScheme",
    "CtrCache",
    "CtrCacheStats",
    "DEFAULT_MT_ARITY",
    "DesignStats",
    "EarlyCtrDesign",
    "EmccDesign",
    "EngineConfig",
    "FunctionalSecureMemory",
    "IntegrityTreeModel",
    "IntegrityViolation",
    "IntegrityTreeStats",
    "MacStore",
    "MerkleTree",
    "MonolithicCounters",
    "MorphCtrCounters",
    "MorphCtrDesign",
    "NonProtectedDesign",
    "ProtectedDesign",
    "ReencryptionEvent",
    "RmccDesign",
    "SecureDesign",
    "SecureMemoryStats",
    "SecureLayout",
    "SecureMemoryEngine",
    "SplitCounters",
    "compute_mac",
    "make_counter_scheme",
    "make_design",
]
