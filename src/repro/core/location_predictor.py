"""RL-based data location predictor (paper Sec. 4.4, Algorithm 3).

On every L1 miss the predictor hashes the data address into a state and
classifies the block as on-chip (L2/LLC will hit) or off-chip (DRAM).  An
off-chip prediction lets COSMOS start the DRAM fetch and the CTR-cache
access immediately after the L1 miss, removing L2/LLC lookup latency from
the critical path.  The actual hit level — observed by the concurrent cache
walk — supplies the reward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .config import CosmosConfig
from .hashing import STATE_MEMO_ENTRIES, hash_block
from .rl import Q_MAX, Q_MIN, EpsilonGreedy, QTable

#: Action indices.
ON_CHIP = 0
OFF_CHIP = 1


@dataclass(slots=True)
class LocationPredictorStats:
    """Outcome accounting matching the paper's Figure 12 categories."""

    correct_on_chip: int = 0
    correct_off_chip: int = 0
    wrong_on_chip: int = 0  # predicted on-chip, data was off-chip (R_D_mi)
    wrong_off_chip: int = 0  # predicted off-chip, data was on-chip (R_D_ho)

    @property
    def predictions(self) -> int:
        """Total graded predictions."""
        return (
            self.correct_on_chip
            + self.correct_off_chip
            + self.wrong_on_chip
            + self.wrong_off_chip
        )

    @property
    def accuracy(self) -> float:
        """Fraction of predictions that matched the actual location."""
        total = self.predictions
        if total == 0:
            return 0.0
        return (self.correct_on_chip + self.correct_off_chip) / total

    @property
    def off_chip_predictions(self) -> int:
        """Total off-chip classifications (right or wrong)."""
        return self.correct_off_chip + self.wrong_off_chip

    @property
    def off_chip_misprediction_rate(self) -> float:
        """Of the off-chip predictions, the fraction that were on-chip.

        The paper reports ~12% and notes these still usefully warm the CTR
        cache (Sec. 6.1.2).
        """
        total = self.off_chip_predictions
        if total == 0:
            return 0.0
        return self.wrong_off_chip / total

    def distribution(self) -> dict:
        """Fractional breakdown of the four outcomes (Fig. 12)."""
        total = self.predictions
        if total == 0:
            return {
                "correct_on_chip": 0.0,
                "correct_off_chip": 0.0,
                "wrong_on_chip": 0.0,
                "wrong_off_chip": 0.0,
            }
        return {
            "correct_on_chip": self.correct_on_chip / total,
            "correct_off_chip": self.correct_off_chip / total,
            "wrong_on_chip": self.wrong_on_chip / total,
            "wrong_off_chip": self.wrong_off_chip / total,
        }


class DataLocationPredictor:
    """Predicts whether a block is on-chip or off-chip after an L1 miss."""

    def __init__(self, config: Optional[CosmosConfig] = None) -> None:
        self.config = config if config is not None else CosmosConfig()
        hyper = self.config.hyper
        self.q_table = QTable(self.config.num_states, num_actions=2)
        self._selector = EpsilonGreedy(
            hyper.epsilon_d, num_actions=2, seed=self.config.seed * 2
        )
        self._alpha = hyper.alpha_d
        self._gamma = hyper.gamma_d
        self._rewards = self.config.data_rewards
        self._num_states = self.config.num_states
        self.stats = LocationPredictorStats()
        # Block address -> the Q-row of its state, so a repeated block
        # skips the hash.  Only constructors assign q_table and
        # QTable._table, so a stored row is always the live row.
        self._rows: Dict[int, List[float]] = {}

    def state_of(self, block_address: int) -> int:
        """Hashed RL state for a data block address."""
        return hash_block(block_address, self._num_states)

    def predict(self, block_address: int) -> Tuple[int, int]:
        """Classify a block after an L1 miss.

        Returns:
            Tuple ``(action, state)``; the state is handed back to
            :meth:`train` once the actual location is known.
        """
        state = hash_block(block_address, self._num_states)
        action = self._selector.select(self.q_table, state)
        return action, state

    def predict_and_train(self, block_address: int, actually_on_chip: bool) -> int:
        """One fused decision+grading step (Algorithm 3, lines 5-20).

        The trace-driven simulator learns the true location from the
        concurrent cache walk before the predictor is consulted, so the
        hot path fuses :meth:`predict` and :meth:`train` — selection,
        grading and the Q-update are inlined here with the exact same
        operations, RNG order and counters as the two-call form (which
        remains the reference implementation).  This runs once per L1
        miss and is the single hottest COSMOS frame, so the block's
        Q-row comes from a memo and only a block not seen since the memo
        was last cleared is hashed.

        Returns:
            The selected action (:data:`ON_CHIP` or :data:`OFF_CHIP`).
        """
        rows = self._rows
        row = rows.get(block_address)
        if row is None:
            if len(rows) >= STATE_MEMO_ENTRIES:
                rows.clear()
            row = rows[block_address] = self.q_table._table[
                hash_block(block_address, self._num_states)
            ]
        selector = self._selector
        if selector._random() < selector.epsilon:
            selector.explorations += 1
            action = selector._randrange(2)
        else:
            selector.exploitations += 1
            action = 1 if row[1] > row[0] else 0
        stats = self.stats
        rewards = self._rewards
        if actually_on_chip:
            actual_action = ON_CHIP
            if action == ON_CHIP:
                reward = rewards.r_hi
                stats.correct_on_chip += 1
            else:
                reward = rewards.r_ho
                stats.wrong_off_chip += 1
        else:
            actual_action = OFF_CHIP
            if action == OFF_CHIP:
                reward = rewards.r_mo
                stats.correct_off_chip += 1
            else:
                reward = rewards.r_mi
                stats.wrong_on_chip += 1
        current = row[action]
        updated = current + self._alpha * (
            reward + self._gamma * row[actual_action] - current
        )
        if updated > Q_MAX:
            updated = Q_MAX
        elif updated < Q_MIN:
            updated = Q_MIN
        row[action] = updated
        return action

    def train(self, state: int, action: int, actually_on_chip: bool) -> float:
        """Grade a prediction against the observed location (lines 8-20).

        The bootstrap term follows Algorithm 3 line 19-20: the successor
        action ``a`` is the *actual* location, and the update discounts
        ``Q(S, a)``.

        Returns:
            The reward that was applied.
        """
        rewards = self._rewards
        if actually_on_chip:
            actual_action = ON_CHIP
            if action == ON_CHIP:
                reward = rewards.r_hi
                self.stats.correct_on_chip += 1
            else:
                reward = rewards.r_ho
                self.stats.wrong_off_chip += 1
        else:
            actual_action = OFF_CHIP
            if action == OFF_CHIP:
                reward = rewards.r_mo
                self.stats.correct_off_chip += 1
            else:
                reward = rewards.r_mi
                self.stats.wrong_on_chip += 1
        bootstrap = self.q_table.q(state, actual_action)
        self.q_table.update(state, action, reward, self._alpha, self._gamma, bootstrap)
        return reward
