"""Unit tests for the RL-based CTR locality predictor (Algorithm 1)."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.cet import CtrEvaluationTable
from repro.core.config import CosmosConfig, Hyperparameters
from repro.core.hashing import hash_block
from repro.core.locality_predictor import (
    BAD_LOCALITY,
    GOOD_LOCALITY,
    CtrLocalityPredictor,
    LocalityPredictorStats,
)
from repro.core.rl import EpsilonGreedy, QTable


def make_predictor(cet_entries=64, epsilon=0.0, **hyper_kwargs):
    hyper = Hyperparameters(epsilon_c=epsilon, **hyper_kwargs)
    config = CosmosConfig(num_states=1024, cet_entries=cet_entries, hyper=hyper)
    return CtrLocalityPredictor(config)


def test_prediction_returns_action_and_score():
    predictor = make_predictor()
    action, score = predictor.predict(5)
    assert action in (GOOD_LOCALITY, BAD_LOCALITY)
    assert isinstance(score, int)


def test_repeated_line_learns_good_locality():
    predictor = make_predictor()
    for _ in range(300):
        predictor.predict(42)
    action, _ = predictor.predict(42)
    assert action == GOOD_LOCALITY


def test_streaming_lines_learn_bad_locality():
    predictor = make_predictor(cet_entries=16)
    action = None
    for block in range(3000):
        action, _ = predictor.predict(block * 100)  # never re-accessed
    # After the stream, a fresh cold line should be classified bad.
    action, _ = predictor.predict(10_000_000)
    assert action == BAD_LOCALITY


def test_good_fraction_tracks_stream_mix(dfs_trace=None):
    predictor = make_predictor(cet_entries=64)
    # Alternate a hot line with a cold stream: hot accesses should push the
    # good fraction above zero but far below one.
    for index in range(2000):
        predictor.predict(7)
        predictor.predict(1000 + index * 50)
    fraction = predictor.stats.good_fraction
    assert 0.0 < fraction < 1.0


def test_cet_eviction_rewards_applied():
    predictor = make_predictor(cet_entries=4)
    for block in range(100):
        predictor.predict(block * 10)
    assert predictor.stats.cet_evictions > 0


def test_stats_accounting_consistent():
    predictor = make_predictor()
    for block in range(50):
        predictor.predict(block)
    stats = predictor.stats
    assert stats.predictions == 50
    assert stats.cet_hits + stats.cet_misses == 50
    assert stats.rewarded_correct + stats.rewarded_incorrect == 50


def test_grading_accuracy_in_unit_range():
    predictor = make_predictor()
    for block in range(200):
        predictor.predict(block % 10)
    assert 0.0 <= predictor.stats.grading_accuracy <= 1.0


def test_spatially_nearby_lines_count_as_good_evidence():
    predictor = make_predictor()
    predictor.predict(100)
    # The +/-1-line radius makes 101 a CET "hit" (good-locality evidence).
    before = predictor.stats.cet_hits
    predictor.predict(101)
    assert predictor.stats.cet_hits == before + 1


def test_deterministic_with_seed():
    a = make_predictor(epsilon=0.1)
    b = make_predictor(epsilon=0.1)
    out_a = [a.predict(block % 13)[0] for block in range(200)]
    out_b = [b.predict(block % 13)[0] for block in range(200)]
    assert out_a == out_b


# ----------------------------------------------------------------------
# predict() against a literal Algorithm 1 step
# ----------------------------------------------------------------------
class _Algorithm1:
    """Algorithm 1 built only from the RL and CET primitives."""

    def __init__(self, config):
        hyper = config.hyper
        self.config = config
        self.q_table = QTable(config.num_states, num_actions=2)
        self.cet = CtrEvaluationTable(config.cet_entries, config.cet_radius_blocks)
        self.selector = EpsilonGreedy(hyper.epsilon_c, num_actions=2,
                                      seed=config.seed * 2 + 1)
        self.stats = LocalityPredictorStats()

    def step(self, ctr_block):
        config, q_table, cet, stats = self.config, self.q_table, self.cet, self.stats
        alpha, gamma = config.hyper.alpha_c, config.hyper.gamma_c
        rewards = config.ctr_rewards
        state = hash_block(ctr_block, config.num_states)
        action = self.selector.select(q_table, state)
        stats.predictions += 1
        if action == GOOD_LOCALITY:
            stats.good_predictions += 1
        # Lines 9-15: grade against the CET.
        if cet.probe_nearby(ctr_block) is not None:
            stats.cet_hits += 1
            correct = action == GOOD_LOCALITY
            reward = rewards.r_hg if correct else rewards.r_hb
        else:
            stats.cet_misses += 1
            correct = action == BAD_LOCALITY
            reward = rewards.r_mb if correct else rewards.r_mg
        if correct:
            stats.rewarded_correct += 1
        else:
            stats.rewarded_incorrect += 1
        # Lines 16-17: bootstrap from the CET head.
        head = cet.head
        bootstrap = q_table.max_q(head.state) if head is not None else 0.0
        q_table.update(state, action, reward, alpha, gamma, bootstrap)
        # Lines 18-23: insert, then settle an evicted entry.
        evicted = cet.insert(ctr_block, state, action)
        if evicted is not None:
            stats.cet_evictions += 1
            evict_reward = (rewards.r_eg if evicted.action == GOOD_LOCALITY
                            else rewards.r_eb)
            q_table.update(evicted.state, evicted.action, evict_reward, alpha,
                           gamma, q_table.max_q(cet.head.state))
        return action, round(q_table.q(state, action))


# Counter lines from a small pool, so they repeat and fall within each
# other's radius, mixed with fresh ones; 64 states make lines share rows.
_CTR_STREAMS = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=24),
        st.integers(min_value=0, max_value=(1 << 40) - 1),
    ),
    min_size=20,
    max_size=300,
)


def _cet_entries(cet):
    return [(key, entry.ctr_block, entry.state, entry.action)
            for key, entry in cet._entries.items()]


@pytest.mark.parametrize("epsilon", [0.0, 0.05, 1.0])
@settings(max_examples=45, deadline=None)
@given(
    capacity=st.integers(min_value=2, max_value=16),
    # Up to two distances, or the paper's radius of 32 (core/cet.py).
    radius=st.one_of(st.integers(min_value=0, max_value=2), st.just(32)),
    blocks=_CTR_STREAMS,
)
def test_predict_matches_literal_algorithm1(epsilon, capacity, radius, blocks):
    config = CosmosConfig(
        num_states=64, cet_entries=capacity, cet_radius_blocks=radius,
        hyper=Hyperparameters(epsilon_c=epsilon),
    )
    predictor = CtrLocalityPredictor(config)
    reference = _Algorithm1(config)
    for block in blocks:
        assert predictor.predict(block) == reference.step(block)
    assert predictor.stats == reference.stats
    assert predictor.q_table._table == reference.q_table._table
    assert _cet_entries(predictor.cet) == _cet_entries(reference.cet)
    mine, theirs = predictor._selector, reference.selector
    assert (mine.explorations, mine.exploitations) == (
        theirs.explorations, theirs.exploitations)
    assert mine._rng.getstate() == theirs._rng.getstate()
