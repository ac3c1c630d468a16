"""Locality-Centric Replacement (LCR) policy for the LCR-CTR cache.

Implements the paper's Algorithm 2: within a set, the primary eviction
candidates are lines tagged bad-locality (1-bit flag = 0), evicting the one
with the *highest* bad-locality score first (most confidently bad); only
when every line in the set is tagged good does the policy fall back to
evicting the good line with the *lowest* score.  Good-locality lines with
high scores therefore survive the longest.

The literal pseudo-code is the default and performs best when the CET is
sized so that good tags are precise (our Figure 9 sweep).  Two optional
refinements are kept for mis-calibrated regimes (see EXPERIMENTS.md):
``aging`` decays resident good lines' scores under replacement pressure
and demotes them once the score crosses zero (without it a good tag is
permanent — a hazard when the predictor over-tags), and
``bad_selection="lru"`` picks the oldest rather than the most confidently
bad line among the eviction candidates.

Every COSMOS design builds the literal policy.  Under it,
:meth:`repro.secure.ctr_cache.CtrCache.access_index` evicts on the
cache's set dicts itself: it applies the rule of
:meth:`LcrReplacementPolicy.victim` in one scan, in insertion order, and
calls none of the hooks, since with ``aging=0`` and
``bad_selection="score"`` they change no state.  Any other setting, or a
subclass, goes through this class.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Optional

from ..mem.replacement import CacheLine, ReplacementPolicy

#: Locality-flag values stored in the extra cache-line bit.
FLAG_BAD = 0
FLAG_GOOD = 1

_score = attrgetter("locality_score")
_recency = attrgetter("lru_tick")


class LcrReplacementPolicy(ReplacementPolicy):
    """Algorithm 2's hierarchical locality-driven victim selection.

    Args:
        aging: Score decay applied to each resident good line every
            ``aging_period`` victim selections in its set (0 = no aging,
            the literal Algorithm 2).  With a typical learned score of ~50
            and ``aging=1, aging_period=8``, a dead good line survives
            ~400 evictions in its set before demotion.
        aging_period: Victim selections per decay step.
        demote_threshold: Good lines whose aged score falls below this are
            re-flagged bad (with a neutral score).
        bad_selection: How to pick among bad-locality candidates.
            ``"score"`` (default) follows Algorithm 2 literally and evicts
            the highest-scoring (most confidently bad) line;
            ``"lru"`` evicts the least-recently-used bad line instead,
            preserving recency within the deprioritised class.
    """

    name = "lcr"

    def __init__(
        self,
        aging: int = 0,
        aging_period: int = 8,
        demote_threshold: int = 0,
        bad_selection: str = "score",
    ) -> None:
        if aging < 0:
            raise ValueError("aging must be >= 0")
        if aging_period < 1:
            raise ValueError("aging_period must be >= 1")
        if bad_selection not in ("lru", "score"):
            raise ValueError("bad_selection must be 'lru' or 'score'")
        self.aging = aging
        self.aging_period = aging_period
        self.demote_threshold = demote_threshold
        self.bad_selection = bad_selection
        self._tick = 0
        self._pressure: dict = {}

    def _touch(self, line: CacheLine) -> None:
        self._tick += 1
        line.lru_tick = self._tick

    # Only bad_selection="lru" reads lru_tick, so only it stamps lines.
    def on_insert(self, set_index: int, line: CacheLine, context: Optional[int] = None) -> None:
        if self.bad_selection == "lru":
            self._touch(line)

    def on_hit(self, set_index: int, line: CacheLine, context: Optional[int] = None) -> None:
        if self.bad_selection == "lru":
            self._touch(line)

    def victim(self, set_index: int, lines: Iterable[CacheLine]) -> CacheLine:
        # Age resident good lines under replacement pressure; demote the
        # ones whose confidence has decayed away.
        if self.aging:
            pressure = self._pressure.get(set_index, 0) + 1
            if pressure >= self.aging_period:
                pressure = 0
                for line in lines:
                    if line.locality_flag == FLAG_GOOD:
                        line.locality_score -= self.aging
                        if line.locality_score < self.demote_threshold:
                            line.locality_flag = FLAG_BAD
                            line.locality_score = 0
            self._pressure[set_index] = pressure
        # Bad-locality lines always dominate good ones; among them pick per
        # bad_selection (oldest, or most confidently bad).  max() and min()
        # return the first extreme line in set order, as a strict scan does.
        bad = [line for line in lines if line.locality_flag == FLAG_BAD]
        if bad:
            if self.bad_selection == "lru":
                return min(bad, key=_recency)
            return max(bad, key=_score)
        evict_candidate = min(lines, key=_score, default=None)
        if evict_candidate is None:
            raise ValueError("victim() called on an empty set")
        return evict_candidate
