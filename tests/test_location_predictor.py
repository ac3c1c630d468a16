"""Unit tests for the RL-based data-location predictor (Algorithm 3)."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.config import CosmosConfig, Hyperparameters
from repro.core.location_predictor import (
    OFF_CHIP,
    ON_CHIP,
    DataLocationPredictor,
)


def make_predictor(epsilon=0.0, num_states=2048):
    hyper = Hyperparameters(epsilon_d=epsilon)
    return DataLocationPredictor(CosmosConfig(num_states=num_states, hyper=hyper))


def test_predict_returns_action_and_state():
    predictor = make_predictor()
    action, state = predictor.predict(123)
    assert action in (ON_CHIP, OFF_CHIP)
    assert state == predictor.state_of(123)


def test_learns_stable_on_chip_mapping():
    predictor = make_predictor()
    for _ in range(200):
        action, state = predictor.predict(7)
        predictor.train(state, action, actually_on_chip=True)
    action, _ = predictor.predict(7)
    assert action == ON_CHIP


def test_learns_stable_off_chip_mapping():
    predictor = make_predictor()
    for _ in range(200):
        action, state = predictor.predict(9)
        predictor.train(state, action, actually_on_chip=False)
    action, _ = predictor.predict(9)
    assert action == OFF_CHIP


def test_mixed_state_follows_reward_weighted_majority():
    """The tuned rewards bias toward off-chip for mixed regions.

    Off-chip wins when p_off * (r_mo + |r_mi|) > p_on * (|r_ho| + r_hi)
    under the Table 1 values — i.e. for p_off above ~0.41.
    """
    predictor = make_predictor()
    rng = random.Random(0)
    for _ in range(4000):
        action, state = predictor.predict(11)
        predictor.train(state, action, actually_on_chip=rng.random() < 0.4)
    action, _ = predictor.predict(11)
    assert action == OFF_CHIP


def test_accuracy_high_on_separable_workload():
    predictor = make_predictor(epsilon=0.05)
    rng = random.Random(1)
    for _ in range(50_000):
        if rng.random() < 0.5:
            block, on_chip = rng.randrange(500), True
        else:
            block, on_chip = 10_000 + rng.randrange(500), False
        action, state = predictor.predict(block)
        predictor.train(state, action, on_chip)
    assert predictor.stats.accuracy > 0.8


def test_distribution_sums_to_one():
    predictor = make_predictor(epsilon=0.2)
    rng = random.Random(2)
    for _ in range(500):
        action, state = predictor.predict(rng.randrange(100))
        predictor.train(state, action, rng.random() < 0.5)
    distribution = predictor.stats.distribution()
    assert abs(sum(distribution.values()) - 1.0) < 1e-9


def test_empty_distribution_is_zero():
    predictor = make_predictor()
    assert sum(predictor.stats.distribution().values()) == 0.0
    assert predictor.stats.accuracy == 0.0


def test_off_chip_misprediction_rate():
    predictor = make_predictor()
    stats = predictor.stats
    stats.correct_off_chip = 88
    stats.wrong_off_chip = 12
    assert abs(stats.off_chip_misprediction_rate - 0.12) < 1e-9


def test_adapts_after_phase_change():
    predictor = make_predictor(epsilon=0.1)
    for _ in range(300):
        action, state = predictor.predict(5)
        predictor.train(state, action, actually_on_chip=True)
    # Phase change: the block's region becomes off-chip.
    for _ in range(3000):
        action, state = predictor.predict(5)
        predictor.train(state, action, actually_on_chip=False)
    action, _ = predictor.predict(5)
    assert action == OFF_CHIP


# ----------------------------------------------------------------------
# The fused step against the two-call reference
# ----------------------------------------------------------------------
# Blocks come from a small pool, so they repeat, mixed with fresh ones up
# to bit 47; 64 states make distinct blocks share a Q-table row.
_LOCATION_STREAMS = st.lists(
    st.tuples(
        st.one_of(
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=0, max_value=(1 << 48) - 1),
        ),
        st.booleans(),  # actually on-chip
    ),
    min_size=20,
    max_size=300,
)


@pytest.mark.parametrize("epsilon", [0.0, 0.1, 1.0])
@settings(max_examples=60, deadline=None)
@given(steps=_LOCATION_STREAMS)
def test_fused_step_matches_predict_then_train(epsilon, steps):
    fused = make_predictor(epsilon, num_states=64)
    reference = make_predictor(epsilon, num_states=64)
    for block, on_chip in steps:
        action, state = reference.predict(block)
        reference.train(state, action, on_chip)
        assert fused.predict_and_train(block, on_chip) == action
    assert fused.stats == reference.stats
    mine, theirs = fused._selector, reference._selector
    assert (mine.explorations, mine.exploitations) == (
        theirs.explorations, theirs.exploitations)
    assert mine._rng.getstate() == theirs._rng.getstate()
    assert fused.q_table._table == reference.q_table._table
