"""CTR Evaluation Table (CET).

An LRU-managed buffer that tracks recent CTR accesses so the locality
predictor can grade its own predictions (paper Sec. 4.1.1, "Observable").
Each entry records the RL state and predicted action for one counter line;
a later access to the same line — or to one within a +/-32-line spatial
radius — counts as evidence of good locality, while an LRU eviction is
evidence of bad locality.

The paper's Algorithm 1 expresses the nearby-match as hashing every address
in ``[ctr_addr-32, ctr_addr+32]`` and probing the CET for any of those
states.  We probe outward from the line itself: the exact line first, then
distance 1, 2, ... up to the radius, the lower address first at each
distance.  The first resident line found is the closest one, and a tie
between two equally close lines goes to the lower address.  The configured
radius is 1 (two extra dict probes per miss), so no spatial index is kept.

Entries live in a plain dict kept in recency order: a touch pops and
re-inserts the entry, so the first key is the LRU victim and the last
value is the head.  This is the one definition of that layout:
:meth:`repro.core.locality_predictor.CtrLocalityPredictor.predict` does
the steps of ``probe_nearby``, ``head`` and ``insert`` directly on the
dict, in that order, and the methods here are the reference its test is
built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(slots=True)
class CetEntry:
    """One CET record: where it lives plus the prediction being graded."""

    ctr_block: int
    state: int
    action: int


class CtrEvaluationTable:
    """LRU buffer of recent CTR accesses with spatial nearby-matching.

    Args:
        capacity: Maximum resident entries (paper: 8,192).
        radius: Nearby-match radius in counter-line addresses (paper: 32).
    """

    def __init__(self, capacity: int = 8192, radius: int = 32) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if radius < 0:
            raise ValueError("radius must be >= 0")
        self.capacity = capacity
        self.radius = radius
        self._entries: Dict[int, CetEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def probe(self, ctr_block: int) -> Optional[CetEntry]:
        """Exact-match probe; refreshes LRU position on hit."""
        entries = self._entries
        entry = entries.pop(ctr_block, None)
        if entry is not None:
            entries[ctr_block] = entry
        return entry

    def probe_nearby(self, ctr_block: int) -> Optional[CetEntry]:
        """Probe for ``ctr_block`` or any resident line within the radius.

        Returns the closest matching entry (exact match preferred, the
        lower address on a tie) and refreshes its LRU position, mirroring
        Algorithm 1 line 9.
        """
        entries = self._entries
        entry = entries.pop(ctr_block, None)
        if entry is not None:
            entries[ctr_block] = entry
            return entry
        for distance in range(1, self.radius + 1):
            for candidate in (ctr_block - distance, ctr_block + distance):
                entry = entries.pop(candidate, None)
                if entry is not None:
                    entries[candidate] = entry
                    return entry
        return None

    # ------------------------------------------------------------------
    # Insertion / eviction
    # ------------------------------------------------------------------
    def insert(self, ctr_block: int, state: int, action: int) -> Optional[CetEntry]:
        """Insert or refresh an entry; returns the LRU victim if one fell out."""
        entries = self._entries
        existing = entries.pop(ctr_block, None)
        if existing is not None:
            existing.state = state
            existing.action = action
            entries[ctr_block] = existing
            return None
        evicted: Optional[CetEntry] = None
        if len(entries) >= self.capacity:
            evicted = entries.pop(next(iter(entries)))
        entries[ctr_block] = CetEntry(ctr_block, state, action)
        return evicted

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def head(self) -> Optional[CetEntry]:
        """Most recently touched entry (Algorithm 1's ``CET.head``)."""
        if not self._entries:
            return None
        return next(reversed(self._entries.values()))

    def contains(self, ctr_block: int) -> bool:
        """Exact residency check without LRU side effects."""
        return ctr_block in self._entries
