"""Prefetchers evaluated against the CTR cache in the paper's Figure 5.

Three prefetchers are modelled: Next-Line, Stride and Berti (a local-delta
prefetcher).  Each observes the demand block-address stream of a cache and
suggests block addresses to prefetch.  Because our traces carry no program
counters, the stride and Berti tables are indexed by address region (page),
which is the standard PC-less adaptation.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List


class Prefetcher:
    """Interface: observe a demand access, return blocks to prefetch."""

    name = "none"

    def observe(self, block_address: int) -> List[int]:
        """Consume one demand access; return prefetch candidates."""
        return []


class NoPrefetcher(Prefetcher):
    """Placeholder that never prefetches (the baseline)."""

    name = "none"


class NextLinePrefetcher(Prefetcher):
    """Prefetch the next ``degree`` sequential blocks after each access."""

    name = "next_line"

    def __init__(self, degree: int = 1) -> None:
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = degree

    def observe(self, block_address: int) -> List[int]:
        return [block_address + offset for offset in range(1, self.degree + 1)]


class StridePrefetcher(Prefetcher):
    """Classic stride prefetcher with a region-indexed reference table.

    For each region (64-block page) the table tracks the last block address
    and last stride; two consecutive accesses with the same stride move the
    entry to the *steady* state and trigger prefetches along that stride.
    """

    name = "stride"

    _INIT, _TRANSIENT, _STEADY = 0, 1, 2

    def __init__(self, table_entries: int = 256, degree: int = 2, region_shift: int = 6) -> None:
        self.table_entries = table_entries
        self.degree = degree
        self.region_shift = region_shift
        self._table: Dict[int, List[int]] = {}

    def _region(self, block_address: int) -> int:
        return (block_address >> self.region_shift) % self.table_entries

    _EMPTY: List[int] = []

    def observe(self, block_address: int) -> List[int]:
        # Runs on every L1 miss of every core: the region computation is
        # inlined, the table entry is mutated in place, and the no-prefetch
        # paths return a shared empty list (callers only iterate it).
        region = (block_address >> self.region_shift) % self.table_entries
        entry = self._table.get(region)
        if entry is None:
            self._table[region] = [block_address, 0, self._INIT]
            return self._EMPTY
        last_address, last_stride, state = entry
        stride = block_address - last_address
        if stride == 0:
            return self._EMPTY
        prefetches = self._EMPTY
        if stride == last_stride:
            if state == self._STEADY:
                # block + stride, ..., block + degree * stride: the same list
                # as a comprehension (stride != 0 here), without its frame.
                prefetches = list(
                    range(block_address + stride, block_address + stride * (self.degree + 1), stride)
                )
            new_state = self._STEADY
        else:
            new_state = self._TRANSIENT
        entry[0] = block_address
        entry[1] = stride
        entry[2] = new_state
        return prefetches


class BertiPrefetcher(Prefetcher):
    """Simplified Berti: learn the best-performing local delta per page.

    Berti tracks recent accesses per page and scores candidate deltas by how
    often a previous access plus the delta equals the current access (i.e.
    the delta would have produced a timely, accurate prefetch).  The delta
    with the highest confidence above a threshold is used for prefetching.
    """

    name = "berti"

    def __init__(
        self,
        history_per_page: int = 16,
        max_pages: int = 64,
        confidence_threshold: float = 0.35,
        degree: int = 1,
        page_shift: int = 6,
    ) -> None:
        self.history_per_page = history_per_page
        self.max_pages = max_pages
        self.confidence_threshold = confidence_threshold
        self.degree = degree
        self.page_shift = page_shift
        self._history: Dict[int, Deque[int]] = {}
        self._delta_hits: Dict[int, Dict[int, int]] = {}
        self._delta_tries: Dict[int, int] = {}

    def _page(self, block_address: int) -> int:
        return block_address >> self.page_shift

    def best_delta(self, page: int) -> int:
        """Highest-confidence learned delta for ``page`` (0 when none)."""
        hits = self._delta_hits.get(page)
        tries = self._delta_tries.get(page, 0)
        if not hits or tries == 0:
            return 0
        delta, count = max(hits.items(), key=lambda item: item[1])
        if count / tries >= self.confidence_threshold:
            return delta
        return 0

    def observe(self, block_address: int) -> List[int]:
        page = self._page(block_address)
        history = self._history.get(page)
        if history is None:
            if len(self._history) >= self.max_pages:
                oldest = next(iter(self._history))
                self._history.pop(oldest)
                self._delta_hits.pop(oldest, None)
                self._delta_tries.pop(oldest, None)
            history = deque(maxlen=self.history_per_page)
            self._history[page] = history
            self._delta_hits[page] = {}
            self._delta_tries[page] = 0
        # Score deltas: which previous access would have predicted this one?
        hits = self._delta_hits[page]
        self._delta_tries[page] = self._delta_tries.get(page, 0) + 1
        for previous in history:
            delta = block_address - previous
            if delta != 0 and abs(delta) <= (1 << self.page_shift):
                hits[delta] = hits.get(delta, 0) + 1
        history.append(block_address)
        delta = self.best_delta(page)
        if delta == 0:
            return []
        return [block_address + delta * step for step in range(1, self.degree + 1)]


_PREFETCHER_FACTORIES = {
    "none": NoPrefetcher,
    "next_line": NextLinePrefetcher,
    "stride": StridePrefetcher,
    "berti": BertiPrefetcher,
}


def make_prefetcher(name: str, **kwargs) -> Prefetcher:
    """Instantiate a prefetcher by name (``none``/``next_line``/``stride``/``berti``)."""
    try:
        factory = _PREFETCHER_FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(_PREFETCHER_FACTORIES))
        raise ValueError(f"unknown prefetcher {name!r}; expected one of: {known}")
    return factory(**kwargs)
