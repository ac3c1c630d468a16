"""Message Authentication Code (MAC) model.

Functionally, ``MAC = Hash(Ciphertext || PA || CTR)`` truncated to 64 bits
(paper Sec. 2.1).  For traffic/timing, the system stores one 64-bit MAC per
64B line, so eight MACs pack into one 64B MAC line and authentication costs
one MAC DRAM access per eight data accesses (paper Sec. 5).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

#: Width of a stored MAC in bits.
MAC_BITS = 64

#: Number of MACs per 64B MAC line; yields the 1-per-8 access ratio.
MACS_PER_LINE = 8


def compute_mac(ciphertext: bytes, physical_address: int, counter: int, key: bytes = b"cosmos-mac") -> int:
    """Return the 64-bit MAC of (ciphertext, PA, CTR) under ``key``."""
    digest = hashlib.sha256(
        key
        + ciphertext
        + physical_address.to_bytes(8, "little")
        + counter.to_bytes(16, "little", signed=False)
    ).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class MacStore:
    """Stores and verifies per-block MACs (functional model).

    Used by the functional end-to-end tests: writes record a MAC, reads
    verify it, and any tampering with ciphertext, address or counter is
    detected as a mismatch.
    """

    key: bytes = b"cosmos-mac"
    _macs: Dict[int, int] = field(default_factory=dict)
    #: Optional verification observer (``repro.verify``): called after every
    #: :meth:`verify` as ``on_verify(data_block, ok)``.  ``None`` (the
    #: default) keeps verification free of any callback cost.
    on_verify: Optional[Callable[[int, bool], None]] = field(
        default=None, repr=False, compare=False
    )

    def update(self, data_block: int, ciphertext: bytes, counter: int) -> int:
        """Recompute and store the MAC for a written block; returns it."""
        mac = compute_mac(ciphertext, data_block << 6, counter, self.key)
        self._macs[data_block] = mac
        return mac

    def verify(self, data_block: int, ciphertext: bytes, counter: int) -> bool:
        """True when the stored MAC matches the supplied contents."""
        expected = self._macs.get(data_block)
        ok = expected is not None and expected == compute_mac(
            ciphertext, data_block << 6, counter, self.key
        )
        if self.on_verify is not None:
            self.on_verify(data_block, ok)
        return ok

    def known_blocks(self) -> int:
        """Number of blocks with a recorded MAC."""
        return len(self._macs)

    # ------------------------------------------------------------------
    # Attack surface (for security testing)
    # ------------------------------------------------------------------
    def snapshot(self, data_block: int) -> Optional[int]:
        """Copy a block's stored MAC (for stale-MAC replay tests)."""
        return self._macs.get(data_block)

    def restore(self, data_block: int, mac: Optional[int]) -> None:
        """Overwrite (or erase, with ``None``) a stored MAC, as an attacker
        controlling the MAC region could."""
        if mac is None:
            self._macs.pop(data_block, None)
        else:
            self._macs[data_block] = mac

    def swap(self, block_a: int, block_b: int) -> None:
        """Exchange two blocks' stored MACs (cross-address relocation)."""
        self._macs[block_a], self._macs[block_b] = (
            self._macs.get(block_b),
            self._macs.get(block_a),
        )
        for block in (block_a, block_b):
            if self._macs[block] is None:
                del self._macs[block]
