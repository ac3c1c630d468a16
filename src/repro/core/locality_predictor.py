"""RL-based CTR locality predictor (paper Sec. 4.2, Algorithm 1).

For every CTR access the predictor hashes the counter-line address into a
state, picks good/bad locality epsilon-greedily from the CTR Q-table, and
grades itself against the CTR Evaluation Table: a nearby CET hit means the
line had good locality, a miss means it did not, and a CET eviction is the
final verdict of bad locality.  The resulting tag (1-bit flag + 8-bit
quantised Q-score) drives the LCR-CTR cache replacement policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .cet import CetEntry, CtrEvaluationTable
from .config import CosmosConfig
from .hashing import STATE_MEMO_ENTRIES, hash_block
from .rl import Q_MAX, Q_MIN, EpsilonGreedy, QTable

#: Action indices.
BAD_LOCALITY = 0
GOOD_LOCALITY = 1


@dataclass(slots=True)
class LocalityPredictorStats:
    """Prediction/grading counters for the locality predictor."""

    predictions: int = 0
    good_predictions: int = 0
    cet_hits: int = 0
    cet_misses: int = 0
    cet_evictions: int = 0
    rewarded_correct: int = 0
    rewarded_incorrect: int = 0

    @property
    def good_fraction(self) -> float:
        """Fraction of CTR accesses classified good locality (Fig. 13)."""
        if self.predictions == 0:
            return 0.0
        return self.good_predictions / self.predictions

    @property
    def grading_accuracy(self) -> float:
        """Fraction of graded predictions that matched the CET evidence."""
        graded = self.rewarded_correct + self.rewarded_incorrect
        if graded == 0:
            return 0.0
        return self.rewarded_correct / graded


class CtrLocalityPredictor:
    """Classifies each CTR access as good or bad locality (Algorithm 1)."""

    def __init__(self, config: Optional[CosmosConfig] = None) -> None:
        self.config = config if config is not None else CosmosConfig()
        hyper = self.config.hyper
        self.q_table = QTable(self.config.num_states, num_actions=2)
        self.cet = CtrEvaluationTable(
            capacity=self.config.cet_entries,
            radius=self.config.cet_radius_blocks,
        )
        self._selector = EpsilonGreedy(
            hyper.epsilon_c, num_actions=2, seed=self.config.seed * 2 + 1
        )
        self._alpha = hyper.alpha_c
        self._gamma = hyper.gamma_c
        self._rewards = self.config.ctr_rewards
        self._num_states = self.config.num_states
        self.stats = LocalityPredictorStats()
        # Counter line -> its state, so a repeated line skips the hash.
        # States, not Q-rows: the CET entries record states.
        self._states: Dict[int, int] = {}

    def state_of(self, ctr_block: int) -> int:
        """Hashed RL state for a counter-line address."""
        return hash_block(ctr_block, self._num_states)

    def predict(self, ctr_block: int) -> Tuple[int, int]:
        """Run one decision+training step for a CTR access.

        Follows Algorithm 1: select the action, grade it against the CET
        (nearby hit => good-locality evidence), update the Q-table with the
        head-of-CET bootstrap, insert the new observation, and settle the
        final reward for any evicted entry.

        Returns:
            Tuple ``(action, score)`` where ``action`` is
            :data:`GOOD_LOCALITY`/:data:`BAD_LOCALITY` and ``score`` is the
            8-bit quantised Q-value used by the LCR-CTR cache.

        The selection and Q-update helpers are inlined (same operations,
        RNG order and counters as the :class:`~repro.core.rl` reference
        implementations) — this runs on every CTR access of a COSMOS
        design, so the call overhead is measurable.  For the same reason
        the state comes from a memo (only a line not seen since the memo
        was last cleared is hashed), and the steps of the CET's
        ``probe_nearby``, ``head`` and ``insert`` run here, in that order,
        on its recency-ordered dict (the layout :mod:`repro.core.cet`
        defines).  ``tests/test_locality_predictor.py`` keeps a literal
        Algorithm 1 step built from those methods as the reference.
        """
        table = self.q_table._table
        states = self._states
        state = states.get(ctr_block)
        if state is None:
            if len(states) >= STATE_MEMO_ENTRIES:
                states.clear()
            state = states[ctr_block] = hash_block(ctr_block, self._num_states)
        row = table[state]
        selector = self._selector
        if selector._random() < selector.epsilon:
            selector.explorations += 1
            action = selector._randrange(2)
        else:
            selector.exploitations += 1
            action = 1 if row[1] > row[0] else 0
        stats = self.stats
        stats.predictions += 1
        if action == GOOD_LOCALITY:
            stats.good_predictions += 1

        # Grade against CET evidence (Algorithm 1 lines 9-15): probe the
        # exact line, then outward to the radius, lower address first; a
        # touched entry moves to the end of the dict.
        rewards = self._rewards
        cet = self.cet
        entries = cet._entries
        nearby = entries.pop(ctr_block, None)
        if nearby is not None:
            entries[ctr_block] = nearby
        else:
            for distance in range(1, cet.radius + 1):
                candidate = ctr_block - distance
                nearby = entries.pop(candidate, None)
                if nearby is not None:
                    entries[candidate] = nearby
                    break
                candidate = ctr_block + distance
                nearby = entries.pop(candidate, None)
                if nearby is not None:
                    entries[candidate] = nearby
                    break
        if nearby is not None:
            stats.cet_hits += 1
            correct = action == GOOD_LOCALITY
            reward = rewards.r_hg if correct else rewards.r_hb
            # The probe just made the matched entry the CET head.
            head = nearby
        else:
            stats.cet_misses += 1
            correct = action == BAD_LOCALITY
            reward = rewards.r_mb if correct else rewards.r_mg
            head = next(reversed(entries.values())) if entries else None
        if correct:
            stats.rewarded_correct += 1
        else:
            stats.rewarded_incorrect += 1

        # Bootstrap from the most recent CET entry (lines 16-17).
        alpha = self._alpha
        gamma = self._gamma
        bootstrap = max(table[head.state]) if head is not None else 0.0
        current = row[action]
        updated = current + alpha * (reward + gamma * bootstrap - current)
        if updated > Q_MAX:
            updated = Q_MAX
        elif updated < Q_MIN:
            updated = Q_MIN
        row[action] = updated

        # Record the observation; settle evicted entries (lines 18-23).
        # An existing entry is refreshed at the end; a new one evicts the
        # first (least recent) key when the CET is full.
        existing = entries.pop(ctr_block, None)
        if existing is not None:
            existing.state = state
            existing.action = action
            entries[ctr_block] = existing
            return action, round(row[action])
        evicted = None
        if len(entries) >= cet.capacity:
            evicted = entries.pop(next(iter(entries)))
        entries[ctr_block] = CetEntry(ctr_block, state, action)
        if evicted is not None:
            stats.cet_evictions += 1
            if evicted.action == GOOD_LOCALITY:
                evict_reward = rewards.r_eg
            else:
                evict_reward = rewards.r_eb
            # insert() just made this access's own entry the CET head, so
            # the bootstrap is the best value of this state's row.
            bootstrap = max(row)
            evicted_row = table[evicted.state]
            current = evicted_row[evicted.action]
            updated = current + alpha * (evict_reward + gamma * bootstrap - current)
            if updated > Q_MAX:
                updated = Q_MAX
            elif updated < Q_MIN:
                updated = Q_MIN
            evicted_row[evicted.action] = updated
        return action, round(row[action])
