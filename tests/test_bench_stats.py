"""Tests for the multi-seed statistics helpers."""

import sys

import pytest

from repro.bench import runner
from repro.bench.stats import SampleSummary, SeededComparison, compare_over_seeds


class TestSampleSummary:
    def test_mean_and_std(self):
        summary = SampleSummary((1.0, 2.0, 3.0))
        assert summary.mean == 2.0
        assert summary.std == pytest.approx(1.0)
        assert summary.n == 3

    def test_empty_and_single(self):
        assert SampleSummary(()).mean == 0.0
        single = SampleSummary((5.0,))
        assert single.std == 0.0
        assert single.ci_halfwidth == 0.0

    def test_interval_contains_mean(self):
        summary = SampleSummary((1.0, 1.2, 1.1, 1.3))
        low, high = summary.interval
        assert low < summary.mean < high

    def test_tight_samples_give_tight_interval(self):
        tight = SampleSummary((1.10, 1.11, 1.09, 1.10))
        loose = SampleSummary((0.5, 1.7, 1.1, 0.9))
        assert tight.ci_halfwidth < loose.ci_halfwidth

    def test_excludes(self):
        summary = SampleSummary((1.2, 1.25, 1.22, 1.18))
        assert summary.excludes(1.0)
        assert not summary.excludes(1.21)


class TestSeededComparison:
    def test_significant_gain_logic(self):
        comparison = SeededComparison("cosmos", "morphctr", "dfs",
                                      seeds=[1, 2, 3],
                                      speedups=[1.2, 1.25, 1.22])
        assert comparison.significant_gain
        noisy = SeededComparison("cosmos", "morphctr", "dfs",
                                 seeds=[1, 2], speedups=[0.8, 1.4])
        assert not noisy.significant_gain

    def test_single_seed_never_significant(self):
        single = SeededComparison("a", "b", "w", seeds=[1], speedups=[1.5])
        assert not single.significant_gain

    def test_interval_needs_no_scipy(self, monkeypatch):
        # The Student-t quantile comes from a committed table: with scipy
        # hidden, three seeds still get the t(2) interval, not a normal one
        # 2.2x too narrow that would call this spread a gain.
        monkeypatch.setitem(sys.modules, "scipy", None)
        assert SampleSummary((1.20, 1.25, 1.22)).ci_halfwidth == pytest.approx(0.0625, abs=1e-4)
        noisy = SeededComparison("cosmos", "morphctr", "dfs",
                                 seeds=[1, 2, 3], speedups=[1.05, 1.20, 1.12])
        assert not noisy.significant_gain


def test_compare_over_seeds_end_to_end(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_LEN", "6000")
    monkeypatch.setenv("REPRO_GRAPH_SCALE", "0.1")
    monkeypatch.setattr(runner, "CACHE_DIR", tmp_path / "traces")
    runner._MEMORY_CACHE.clear()
    runner._RESULT_CACHE.clear()
    comparison = compare_over_seeds("cosmos", "morphctr", "dfs", seeds=(1, 2))
    assert len(comparison.speedups) == 2
    assert all(speedup > 0 for speedup in comparison.speedups)
    # Different seeds produced genuinely different traces.
    assert comparison.speedups[0] != comparison.speedups[1]
    runner._MEMORY_CACHE.clear()
    runner._RESULT_CACHE.clear()
