"""Cache replacement policies.

Implements the policies the paper evaluates in Figure 5 — LRU (the CTR-cache
baseline), RRIP, SHiP and Mockingjay — plus Random for testing.  Every policy
implements the small :class:`ReplacementPolicy` interface so caches stay
policy-agnostic; COSMOS's LCR policy (Algorithm 2) lives in
``repro.core.lcr_cache`` and plugs into the same interface.
"""

from __future__ import annotations

import random
from operator import attrgetter
from typing import Dict, Iterable, Optional


class CacheLine:
    """Metadata for one resident cache line.

    A single class is shared by all policies; each policy uses only the
    fields it needs.  ``locality_flag``/``locality_score`` are the extra 9
    bits per line that COSMOS's LCR-CTR cache adds (paper Table 2).
    """

    __slots__ = (
        "tag",
        "dirty",
        "prefetched",
        "referenced",
        "lru_tick",
        "rrpv",
        "signature",
        "outcome",
        "eta",
        "locality_flag",
        "locality_score",
    )

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.dirty = False
        self.prefetched = False
        self.referenced = False
        self.lru_tick = 0
        self.rrpv = 0
        self.signature = 0
        self.outcome = False
        self.eta = 0
        self.locality_flag = 1
        self.locality_score = 0


class ReplacementPolicy:
    """Interface every replacement policy implements.

    The cache calls :meth:`on_insert` when a line is filled, :meth:`on_hit`
    on every demand hit, :meth:`victim` to pick the line to evict from a full
    set, and :meth:`on_evict` when the chosen line leaves the cache.
    """

    name = "base"

    def on_insert(self, set_index: int, line: CacheLine, context: Optional[int] = None) -> None:
        """Initialise policy state for a newly inserted line."""

    def on_hit(self, set_index: int, line: CacheLine, context: Optional[int] = None) -> None:
        """Update policy state after a demand hit on ``line``."""

    def victim(self, set_index: int, lines: Iterable[CacheLine]) -> CacheLine:
        """Choose which of ``lines`` (a full set) to evict.

        ``lines`` is the cache's *live* set view (re-iterable, in insertion
        order) — policies may scan it as often as needed but must not
        add or remove residency; the eviction itself is the cache's job.
        """
        raise NotImplementedError

    def on_evict(self, set_index: int, line: CacheLine) -> None:
        """Observe the eviction of ``line`` (used for learning policies)."""


_BY_LRU_TICK = attrgetter("lru_tick")
_BY_ETA = attrgetter("eta")


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used via a global monotonic tick.

    :class:`~repro.mem.cache.Cache` never calls ``on_insert``, ``on_hit``
    or ``victim`` for an exact ``LRUPolicy``: it keeps each set in recency
    order instead.  Subclasses go through the hooks, which keeps this tick
    version as the reference the recency order is tested against.
    """

    name = "lru"

    def __init__(self) -> None:
        self._tick = 0

    def on_insert(self, set_index: int, line: CacheLine, context: Optional[int] = None) -> None:
        self._tick += 1
        line.lru_tick = self._tick

    def on_hit(self, set_index: int, line: CacheLine, context: Optional[int] = None) -> None:
        self._tick += 1
        line.lru_tick = self._tick

    def victim(self, set_index: int, lines: Iterable[CacheLine]) -> CacheLine:
        return min(lines, key=_BY_LRU_TICK)


class RandomPolicy(ReplacementPolicy):
    """Uniform-random eviction; useful as a control in tests."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def victim(self, set_index: int, lines: Iterable[CacheLine]) -> CacheLine:
        return self._rng.choice(list(lines))


class RRIPPolicy(ReplacementPolicy):
    """Static RRIP (re-reference interval prediction).

    Paper configuration (Sec. 3.3): insertion RRPV 2, maximum RRPV 3, hits
    promote to RRPV 0, and the victim is any line at the maximum RRPV (aging
    every line when none is found).
    """

    name = "rrip"

    def __init__(self, max_rrpv: int = 3, insert_rrpv: int = 2) -> None:
        if insert_rrpv > max_rrpv:
            raise ValueError("insert_rrpv must not exceed max_rrpv")
        self.max_rrpv = max_rrpv
        self.insert_rrpv = insert_rrpv

    def on_insert(self, set_index: int, line: CacheLine, context: Optional[int] = None) -> None:
        line.rrpv = self.insert_rrpv

    def on_hit(self, set_index: int, line: CacheLine, context: Optional[int] = None) -> None:
        line.rrpv = 0

    def victim(self, set_index: int, lines: Iterable[CacheLine]) -> CacheLine:
        while True:
            for line in lines:
                if line.rrpv >= self.max_rrpv:
                    return line
            for line in lines:
                line.rrpv += 1


class SHiPPolicy(ReplacementPolicy):
    """Signature-based Hit Predictor (SHiP-mem variant).

    Signatures are derived from the memory region of the inserted block (our
    traces carry no PCs).  A table of saturating counters (SHCT) learns, per
    signature, whether lines are re-referenced; zero-counter signatures are
    inserted at distant RRPV.  Paper configuration: 16,384-entry SHCT and a
    maximum RRPV of 7.
    """

    name = "ship"

    def __init__(self, shct_entries: int = 16384, max_rrpv: int = 7, counter_max: int = 3) -> None:
        self.shct_entries = shct_entries
        self.max_rrpv = max_rrpv
        self.counter_max = counter_max
        self._shct: Dict[int, int] = {}

    def _signature(self, context: Optional[int]) -> int:
        if context is None:
            return 0
        return (context >> 10) % self.shct_entries

    def shct_value(self, signature: int) -> int:
        """Current saturating-counter value for ``signature``."""
        return self._shct.get(signature, self.counter_max // 2)

    def on_insert(self, set_index: int, line: CacheLine, context: Optional[int] = None) -> None:
        signature = self._signature(context)
        line.signature = signature
        line.outcome = False
        if self.shct_value(signature) == 0:
            line.rrpv = self.max_rrpv
        else:
            line.rrpv = self.max_rrpv - 1

    def on_hit(self, set_index: int, line: CacheLine, context: Optional[int] = None) -> None:
        line.rrpv = 0
        if not line.outcome:
            line.outcome = True
            value = self.shct_value(line.signature)
            self._shct[line.signature] = min(self.counter_max, value + 1)

    def victim(self, set_index: int, lines: Iterable[CacheLine]) -> CacheLine:
        while True:
            for line in lines:
                if line.rrpv >= self.max_rrpv:
                    return line
            for line in lines:
                line.rrpv += 1

    def on_evict(self, set_index: int, line: CacheLine) -> None:
        if not line.outcome:
            value = self.shct_value(line.signature)
            self._shct[line.signature] = max(0, value - 1)


class MockingjayPolicy(ReplacementPolicy):
    """Simplified Mockingjay: reuse-distance learning with ETA eviction.

    A sampled structure records the last access time per sampled block and
    learns an exponential moving average of observed reuse distances per
    address region.  Each resident line carries an estimated time of arrival
    (ETA); the victim is the line with the largest ETA.  This matches the
    modelling level the paper itself uses (Sec. 3.3: a 4,096-entry sampled
    cache that updates ETA values and evicts the highest-ETA block).
    """

    name = "mockingjay"

    def __init__(self, sampler_entries: int = 4096, default_reuse: int = 1 << 16) -> None:
        self.sampler_entries = sampler_entries
        self.default_reuse = default_reuse
        self._clock = 0
        self._last_seen: Dict[int, int] = {}
        self._predicted_reuse: Dict[int, int] = {}

    def _region(self, context: Optional[int]) -> int:
        if context is None:
            return 0
        return (context >> 12) % self.sampler_entries

    def _observe(self, context: Optional[int]) -> int:
        """Record an access and return the predicted reuse distance."""
        self._clock += 1
        region = self._region(context)
        if context is not None:
            previous = self._last_seen.get(context)
            if previous is not None:
                distance = self._clock - previous
                old = self._predicted_reuse.get(region, self.default_reuse)
                self._predicted_reuse[region] = (old * 3 + distance) // 4
            if len(self._last_seen) >= self.sampler_entries:
                self._last_seen.pop(next(iter(self._last_seen)))
            self._last_seen[context] = self._clock
        return self._predicted_reuse.get(region, self.default_reuse)

    def on_insert(self, set_index: int, line: CacheLine, context: Optional[int] = None) -> None:
        line.eta = self._clock + self._observe(context)

    def on_hit(self, set_index: int, line: CacheLine, context: Optional[int] = None) -> None:
        line.eta = self._clock + self._observe(context)

    def victim(self, set_index: int, lines: Iterable[CacheLine]) -> CacheLine:
        return max(lines, key=_BY_ETA)


_POLICY_FACTORIES = {
    "lru": LRUPolicy,
    "random": RandomPolicy,
    "rrip": RRIPPolicy,
    "ship": SHiPPolicy,
    "mockingjay": MockingjayPolicy,
}


def make_policy(name: str, **kwargs) -> ReplacementPolicy:
    """Instantiate a replacement policy by name.

    Args:
        name: One of ``lru``, ``random``, ``rrip``, ``ship``, ``mockingjay``.
        **kwargs: Forwarded to the policy constructor.

    Raises:
        ValueError: If ``name`` is not a known policy.
    """
    try:
        factory = _POLICY_FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(_POLICY_FACTORIES))
        raise ValueError(f"unknown replacement policy {name!r}; expected one of: {known}")
    return factory(**kwargs)
