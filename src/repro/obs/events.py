"""Bounded ring buffer for rare, high-value simulation events.

Counter-overflow re-encryptions, re-encryption storms, RL predictor mode
flips — things that happen a handful of times per run but explain a
surprising result.  The ring keeps the **most recent** ``capacity`` events
(older ones are dropped, but ``total_recorded`` keeps the true count), so
a pathological run can never grow memory without bound.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional

#: Default ring capacity.
DEFAULT_CAPACITY = 256


class EventRing:
    """Fixed-capacity buffer of structured events."""

    __slots__ = ("capacity", "_ring", "total_recorded", "counts_by_kind")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._ring: Deque[Dict[str, object]] = deque(maxlen=capacity)
        self.total_recorded = 0
        self.counts_by_kind: Dict[str, int] = {}

    def record(self, kind: str, at: Optional[int] = None, **fields: object) -> None:
        """Append one event.

        Args:
            kind: Short event type (``ctr_overflow``, ``predictor_mode_flip``).
            at: Position in the run, usually the access count.
            fields: Arbitrary JSON-safe structured payload.
        """
        event: Dict[str, object] = {"kind": kind}
        if at is not None:
            event["at"] = at
        if fields:
            event.update(fields)
        self._ring.append(event)
        self.total_recorded += 1
        self.counts_by_kind[kind] = self.counts_by_kind.get(kind, 0) + 1

    @property
    def dropped(self) -> int:
        """Events evicted by the ring bound."""
        return self.total_recorded - len(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterable[Dict[str, object]]:
        return iter(self._ring)

    def to_list(self) -> List[Dict[str, object]]:
        """The retained events, oldest first."""
        return list(self._ring)

    def filter(self, kind: str) -> List[Dict[str, object]]:
        """The retained events of one ``kind``, oldest first."""
        return [event for event in self._ring if event.get("kind") == kind]

    def to_jsonl(self) -> str:
        """One JSON object per line (empty string when no events)."""
        return "\n".join(json.dumps(event, sort_keys=True) for event in self._ring)

    def summary(self) -> Dict[str, object]:
        """Counts by kind plus ring occupancy, for manifests and the CLI."""
        return {
            "total": self.total_recorded,
            "retained": len(self._ring),
            "dropped": self.dropped,
            "by_kind": dict(sorted(self.counts_by_kind.items())),
        }

    def clear(self) -> None:
        """Drop everything, including the historical counts."""
        self._ring.clear()
        self.total_recorded = 0
        self.counts_by_kind.clear()


def load_jsonl(text: str) -> List[Dict[str, object]]:
    """Parse an events JSONL blob back into a list of dictionaries."""
    events: List[Dict[str, object]] = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            events.append(json.loads(line))
    return events
