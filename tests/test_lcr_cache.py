"""Unit tests for the LCR replacement policy (Algorithm 2 + aging)."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.lcr_cache import FLAG_BAD, FLAG_GOOD, LcrReplacementPolicy
from repro.mem.replacement import CacheLine


def tagged_line(tag, flag, score, tick=0):
    line = CacheLine(tag)
    line.locality_flag = flag
    line.locality_score = score
    line.lru_tick = tick
    return line


def test_bad_lines_evicted_before_good():
    policy = LcrReplacementPolicy(aging=0)
    lines = [tagged_line(0, FLAG_GOOD, 1), tagged_line(1, FLAG_BAD, 1)]
    assert policy.victim(0, lines).tag == 1


def test_strict_mode_picks_highest_bad_score():
    policy = LcrReplacementPolicy(aging=0, bad_selection="score")
    lines = [
        tagged_line(0, FLAG_BAD, 10),
        tagged_line(1, FLAG_BAD, 90),
        tagged_line(2, FLAG_BAD, 50),
    ]
    assert policy.victim(0, lines).tag == 1


def test_lru_mode_picks_oldest_bad():
    policy = LcrReplacementPolicy(aging=0, bad_selection="lru")
    lines = [
        tagged_line(0, FLAG_BAD, 10, tick=5),
        tagged_line(1, FLAG_BAD, 90, tick=1),
        tagged_line(2, FLAG_BAD, 50, tick=9),
    ]
    assert policy.victim(0, lines).tag == 1


def test_all_good_evicts_lowest_score():
    policy = LcrReplacementPolicy(aging=0)
    lines = [
        tagged_line(0, FLAG_GOOD, 70),
        tagged_line(1, FLAG_GOOD, 5),
        tagged_line(2, FLAG_GOOD, 30),
    ]
    assert policy.victim(0, lines).tag == 1


def test_aging_demotes_stale_good_lines():
    policy = LcrReplacementPolicy(aging=10, aging_period=1)
    good = tagged_line(0, FLAG_GOOD, 5)
    bad = tagged_line(1, FLAG_BAD, 1)
    policy.victim(0, [good, bad])  # decays good score 5 -> -5 -> demoted
    assert good.locality_flag == FLAG_BAD
    assert good.locality_score == 0


def test_aging_period_delays_decay():
    policy = LcrReplacementPolicy(aging=10, aging_period=3)
    good = tagged_line(0, FLAG_GOOD, 15)
    bad = tagged_line(1, FLAG_BAD, 1)
    policy.victim(0, [good, bad])
    policy.victim(0, [good, bad])
    assert good.locality_score == 15  # not yet
    policy.victim(0, [good, bad])
    assert good.locality_score == 5  # third call decays once


def test_aging_is_per_set():
    policy = LcrReplacementPolicy(aging=10, aging_period=2)
    good = tagged_line(0, FLAG_GOOD, 15)
    bad = tagged_line(1, FLAG_BAD, 1)
    policy.victim(0, [good, bad])
    policy.victim(1, [good, bad])  # different set: separate pressure counter
    assert good.locality_score == 15


def test_on_hit_refreshes_recency():
    policy = LcrReplacementPolicy(aging=0, bad_selection="lru")
    a = tagged_line(0, FLAG_BAD, 1)
    b = tagged_line(1, FLAG_BAD, 1)
    policy.on_insert(0, a)
    policy.on_insert(0, b)
    policy.on_hit(0, a)
    assert policy.victim(0, [a, b]).tag == 1


def test_invalid_parameters():
    with pytest.raises(ValueError):
        LcrReplacementPolicy(aging=-1)
    with pytest.raises(ValueError):
        LcrReplacementPolicy(aging_period=0)
    with pytest.raises(ValueError):
        LcrReplacementPolicy(bad_selection="fifo")


def test_empty_set_raises():
    policy = LcrReplacementPolicy()
    with pytest.raises(ValueError):
        policy.victim(0, [])


# ----------------------------------------------------------------------
# Victim choice against Algorithm 2's literal scan
# ----------------------------------------------------------------------
class _LiteralScanLcr(LcrReplacementPolicy):
    """Algorithm 2 as a strict-comparison scan over the set, kept as the
    reference for the policy's max/min victim choice."""

    def victim(self, set_index, lines):
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
        evict_candidate = None
        best_bad_key = None
        min_good_score = None
        for line in lines:
            if line.locality_flag == FLAG_BAD:
                if self.bad_selection == "lru":
                    key = -line.lru_tick
                else:
                    key = line.locality_score
                if best_bad_key is None or key > best_bad_key:
                    evict_candidate = line
                    best_bad_key = key
            elif best_bad_key is None:
                if min_good_score is None or line.locality_score < min_good_score:
                    evict_candidate = line
                    min_good_score = line.locality_score
        return evict_candidate


_LINE_TAGS = st.tuples(
    st.sampled_from([FLAG_BAD, FLAG_GOOD]),
    st.integers(min_value=-2, max_value=3),  # few values: scores repeat
    st.integers(min_value=0, max_value=3),  # lru_tick repeats too
)


@settings(max_examples=150, deadline=None)
@given(
    tags=st.lists(_LINE_TAGS, min_size=1, max_size=16),
    refills=st.lists(_LINE_TAGS, min_size=1, max_size=12),
    bad_selection=st.sampled_from(["score", "lru"]),
    aging=st.sampled_from([(0, 8), (1, 1), (2, 3)]),
)
def test_victim_matches_literal_scan(tags, refills, bad_selection, aging):
    amount, period = aging
    policy = LcrReplacementPolicy(aging=amount, aging_period=period,
                                  bad_selection=bad_selection)
    reference = _LiteralScanLcr(aging=amount, aging_period=period,
                                bad_selection=bad_selection)
    lines = [tagged_line(tag, *tag_values) for tag, tag_values in enumerate(tags)]
    for step, refill in enumerate(refills):
        # Both policies see the same set in the same state: aging mutates
        # the lines, so the reference runs on a restored snapshot.
        snapshot = [(line.locality_flag, line.locality_score) for line in lines]
        chosen = policy.victim(0, lines)
        after = [(line.locality_flag, line.locality_score) for line in lines]
        for line, (flag, score) in zip(lines, snapshot):
            line.locality_flag, line.locality_score = flag, score
        expected = reference.victim(0, lines)
        assert chosen is expected
        assert after == [(line.locality_flag, line.locality_score) for line in lines]
        # Replace the victim in place, as the cache's fill does.
        lines[lines.index(chosen)] = tagged_line(len(tags) + step, *refill)
