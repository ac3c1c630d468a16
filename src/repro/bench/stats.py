"""Multi-seed statistics for simulation results.

The paper reports single runs; a careful reproduction should show that the
claimed gaps exceed run-to-run noise.  These helpers repeat a comparison
over several workload-generator seeds and summarise the distribution with
a 95% Student-t confidence interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..exec import make_spec
from ..sim.config import SimulationConfig
from .runner import run_cells

#: Two-sided 95% Student-t critical values, ``scipy.stats.t.ppf(0.975, df)``
#: for df = 1..30.  Larger samples use the df-30 value, so the interval can
#: only err wide (the limit is 1.959964).
T95 = (
    12.706205, 4.302653, 3.182446, 2.776445, 2.570582, 2.446912, 2.364624,
    2.306004, 2.262157, 2.228139, 2.200985, 2.178813, 2.160369, 2.144787,
    2.13145, 2.119905, 2.109816, 2.100922, 2.093024, 2.085963, 2.079614,
    2.073873, 2.068658, 2.063899, 2.059539, 2.055529, 2.051831, 2.048407,
    2.04523, 2.042272,
)


@dataclass(frozen=True)
class SampleSummary:
    """Mean / spread / 95% confidence interval of one measured quantity."""

    values: tuple

    @property
    def n(self) -> int:
        """Sample count."""
        return len(self.values)

    @property
    def mean(self) -> float:
        """Arithmetic mean."""
        if not self.values:
            return 0.0
        return sum(self.values) / len(self.values)

    @property
    def std(self) -> float:
        """Sample standard deviation (ddof=1)."""
        if len(self.values) < 2:
            return 0.0
        mean = self.mean
        return math.sqrt(sum((v - mean) ** 2 for v in self.values) / (len(self.values) - 1))

    @property
    def ci_halfwidth(self) -> float:
        """Half-width of the 95% Student-t confidence interval."""
        if len(self.values) < 2:
            return 0.0
        t_value = T95[min(self.n - 1, len(T95)) - 1]
        return t_value * self.std / math.sqrt(self.n)

    @property
    def interval(self) -> tuple:
        """(low, high) confidence bounds around the mean."""
        half = self.ci_halfwidth
        return (self.mean - half, self.mean + half)

    def excludes(self, value: float) -> bool:
        """True when ``value`` lies outside the confidence interval."""
        low, high = self.interval
        return value < low or value > high


@dataclass
class SeededComparison:
    """Per-seed speedups of one design over another."""

    design: str
    baseline: str
    workload: str
    seeds: List[int] = field(default_factory=list)
    speedups: List[float] = field(default_factory=list)

    def summary(self) -> SampleSummary:
        """Distribution summary of the measured speedups."""
        return SampleSummary(tuple(self.speedups))

    @property
    def significant_gain(self) -> bool:
        """True when the CI of the speedup excludes 1.0 from below."""
        summary = self.summary()
        return summary.n >= 2 and summary.interval[0] > 1.0


def compare_over_seeds(
    design: str,
    baseline: str,
    workload: str,
    seeds: Sequence[int] = (1, 2, 3),
    config: Optional[SimulationConfig] = None,
    max_accesses: Optional[int] = None,
) -> SeededComparison:
    """Measure ``design``'s speedup over ``baseline`` across seeds.

    Each seed generates a fresh trace (same distribution, different
    randomness); both designs see the identical trace per seed.
    """
    comparison = SeededComparison(design=design, baseline=baseline, workload=workload)
    results = iter(run_cells([
        make_spec(name, workload, config=config, max_accesses=max_accesses, seed=seed)
        for seed in seeds for name in (baseline, design)
    ]))
    for seed in seeds:
        base_result, design_result = next(results), next(results)
        comparison.seeds.append(seed)
        comparison.speedups.append(design_result.speedup_over(base_result))
    return comparison
