"""COSMOS controller: wires the two RL predictors together (paper Fig. 6).

The controller owns the data-location predictor, the CTR locality predictor
and their configuration, and exposes the three hooks the secure-memory
designs call:

* :meth:`on_l1_miss` — classify a missing block as on-/off-chip;
* :meth:`train_location` — grade that classification once the concurrent
  cache walk reveals the truth;
* :meth:`classify_ctr` — tag a CTR access with a locality flag + score for
  the LCR-CTR cache (a COSMOS design installs it as the engine's
  ``ctr_classifier``, which runs it on every CTR access).

Either predictor can be disabled to build the paper's COSMOS-DP (data
predictor only) and COSMOS-CP (CTR predictor only) ablations (Table 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .config import CosmosConfig
from .lcr_cache import FLAG_GOOD
from .locality_predictor import GOOD_LOCALITY, CtrLocalityPredictor
from .location_predictor import OFF_CHIP, DataLocationPredictor


@dataclass(frozen=True)
class CosmosVariant:
    """Which COSMOS components are active (paper Table 4)."""

    data_predictor: bool = True
    ctr_predictor: bool = True
    name: str = "cosmos"

    @classmethod
    def full(cls) -> "CosmosVariant":
        """Full RL implementation (both predictors + LCR-CTR cache)."""
        return cls(True, True, "cosmos")

    @classmethod
    def dp_only(cls) -> "CosmosVariant":
        """COSMOS-DP: data-location predictor only."""
        return cls(True, False, "cosmos-dp")

    @classmethod
    def cp_only(cls) -> "CosmosVariant":
        """COSMOS-CP: CTR locality predictor + LCR-CTR cache only."""
        return cls(False, True, "cosmos-cp")


class CosmosController:
    """Both RL predictors behind the interface the designs consume."""

    def __init__(
        self,
        config: Optional[CosmosConfig] = None,
        variant: Optional[CosmosVariant] = None,
    ) -> None:
        self.config = config if config is not None else CosmosConfig()
        self.variant = variant if variant is not None else CosmosVariant.full()
        self.location = DataLocationPredictor(self.config) if self.variant.data_predictor else None
        self.locality = CtrLocalityPredictor(self.config) if self.variant.ctr_predictor else None

    # ------------------------------------------------------------------
    # Data-location side
    # ------------------------------------------------------------------
    def on_l1_miss(self, block_address: int) -> Tuple[bool, Optional[int], Optional[int]]:
        """Classify an L1-missing block.

        Returns:
            ``(predicted_off_chip, action, state)``; action/state are None
            when the data predictor is disabled (prediction falls back to
            on-chip, i.e. the baseline sequential walk).
        """
        if self.location is None:
            return False, None, None
        action, state = self.location.predict(block_address)
        return action == OFF_CHIP, action, state

    def train_location(self, state: Optional[int], action: Optional[int], on_chip: bool) -> None:
        """Grade a pending location prediction against the truth."""
        if self.location is None or state is None or action is None:
            return
        self.location.train(state, action, on_chip)

    # ------------------------------------------------------------------
    # CTR locality side
    # ------------------------------------------------------------------
    def classify_ctr(self, ctr_block: int) -> Tuple[Optional[int], Optional[int]]:
        """Tag a CTR access with (flag, score) for the LCR-CTR cache.

        Returns ``(None, None)`` when the CTR predictor is disabled so the
        CTR cache skips tagging entirely.
        """
        if self.locality is None:
            return None, None
        action, score = self.locality.predict(ctr_block)
        flag = FLAG_GOOD if action == GOOD_LOCALITY else 0
        return flag, score

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def obs_counters(self) -> Dict[str, int]:
        """Cumulative RL counters for windowed time-series sampling.

        Read only at sample time (every N accesses) by
        :class:`~repro.obs.timeseries.SimSampler`; never on the hot path.
        """
        counters: Dict[str, int] = {}
        explorations = selections = 0
        if self.location is not None:
            stats = self.location.stats
            counters["loc_correct"] = stats.correct_on_chip + stats.correct_off_chip
            counters["loc_graded"] = stats.predictions
            selector = self.location._selector
            explorations += selector.explorations
            selections += selector.explorations + selector.exploitations
        if self.locality is not None:
            stats = self.locality.stats
            counters["ctrpred_good"] = stats.good_predictions
            counters["ctrpred_total"] = stats.predictions
            counters["cet_evictions"] = stats.cet_evictions
            selector = self.locality._selector
            explorations += selector.explorations
            selections += selector.explorations + selector.exploitations
        counters["rl_explorations"] = explorations
        counters["rl_selections"] = selections
        return counters

    def obs_probes(self) -> Dict[str, Callable[[], float]]:
        """Per-window gauge probes (sampled, not incremented)."""
        probes: Dict[str, Callable[[], float]] = {}
        if self.location is not None:
            probes["rl_epsilon_d"] = lambda: self.location._selector.epsilon
        if self.locality is not None:
            probes["rl_epsilon_c"] = lambda: self.locality._selector.epsilon
            probes["cet_occupancy"] = lambda: len(self.locality.cet)
        return probes
