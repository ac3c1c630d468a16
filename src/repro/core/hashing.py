"""State-space hashing for the COSMOS RL predictors.

The paper (Sec. 4.1.1) builds the RL state from bits 6..47 of the physical
address (the page-number bits) pushed through "a variant of the splitmix64
hashing function, leveraging prime multipliers" so that the 16,384-entry
Q-tables see a uniform state distribution.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1

#: First splitmix64 mixing constant (prime-derived, Vigna 2017).
_MIX1 = 0xBF58476D1CE4E5B9
#: Second splitmix64 mixing constant.
_MIX2 = 0x94D049BB133111EB
#: splitmix64 gamma (golden-ratio increment).
_GAMMA = 0x9E3779B97F4A7C15

#: Default number of RL states (paper Table 2: 16,384 Q-table entries).
DEFAULT_NUM_STATES = 16384

#: Bits 6..47 of the physical address == low 42 bits of the block address.
_STATE_MASK = (1 << 42) - 1

#: Entries a predictor's address-to-state memo holds before it is cleared:
#: above the distinct addresses of every 40k-access workload cell measured
#: (36,335 at most, mcf's L1-miss blocks; docs/architecture.md), and a
#: bound on an ingested trace with millions of distinct blocks.
STATE_MEMO_ENTRIES = 1 << 16


def splitmix64(value: int) -> int:
    """One splitmix64 finalisation round of ``value`` (64-bit)."""
    value = (value + _GAMMA) & _MASK64
    value ^= value >> 30
    value = (value * _MIX1) & _MASK64
    value ^= value >> 27
    value = (value * _MIX2) & _MASK64
    value ^= value >> 31
    return value


def address_state_bits(physical_address: int) -> int:
    """Extract bits 6..47 of a physical address (the hashing input)."""
    return (physical_address >> 6) & ((1 << 42) - 1)


def hash_address(physical_address: int, num_states: int = DEFAULT_NUM_STATES) -> int:
    """Map a physical address to an RL state index in [0, num_states).

    Args:
        physical_address: Byte address of the access.
        num_states: Size of the Q-table's state space.
    """
    if num_states <= 0:
        raise ValueError("num_states must be positive")
    return splitmix64(address_state_bits(physical_address)) % num_states


def hash_block(block_address: int, num_states: int = DEFAULT_NUM_STATES) -> int:
    """Map a 64B block address to an RL state index.

    Convenience wrapper: the simulator works in block addresses, and the
    paper's hash input (bits 6..47) is exactly the block address's low bits.

    The splitmix64 round is written out here (identical arithmetic to
    :func:`splitmix64`).  On the hot path each predictor calls this once
    per distinct address and memoises the result (up to
    :data:`STATE_MEMO_ENTRIES` entries); the reference forms
    (``predict``, ``train``, ``state_of``) call it on every access.
    """
    if num_states <= 0:
        raise ValueError("num_states must be positive")
    value = ((block_address & _STATE_MASK) + _GAMMA) & _MASK64
    value ^= value >> 30
    value = (value * _MIX1) & _MASK64
    value ^= value >> 27
    value = (value * _MIX2) & _MASK64
    value ^= value >> 31
    return value % num_states
