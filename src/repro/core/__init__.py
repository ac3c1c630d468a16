"""COSMOS core: RL predictors, CET, LCR replacement, tuning, overhead."""

from .cet import CetEntry, CtrEvaluationTable
from .config import (
    CosmosConfig,
    CtrPredictorRewards,
    DataPredictorRewards,
    Hyperparameters,
)
from .cosmos import CosmosController, CosmosVariant
from .hashing import DEFAULT_NUM_STATES, hash_address, hash_block, splitmix64
from .lcr_cache import FLAG_BAD, FLAG_GOOD, LcrReplacementPolicy
from .locality_predictor import (
    BAD_LOCALITY,
    GOOD_LOCALITY,
    CtrLocalityPredictor,
    LocalityPredictorStats,
)
from .location_predictor import (
    OFF_CHIP,
    ON_CHIP,
    DataLocationPredictor,
    LocationPredictorStats,
)
from .overhead import ComponentOverhead, OverheadReport, compute_overhead
from .rl import EpsilonGreedy, QTable

__all__ = [
    "BAD_LOCALITY",
    "CetEntry",
    "ComponentOverhead",
    "CosmosConfig",
    "CosmosController",
    "CosmosVariant",
    "CtrEvaluationTable",
    "CtrLocalityPredictor",
    "CtrPredictorRewards",
    "DEFAULT_NUM_STATES",
    "DataLocationPredictor",
    "DataPredictorRewards",
    "EpsilonGreedy",
    "FLAG_BAD",
    "FLAG_GOOD",
    "GOOD_LOCALITY",
    "Hyperparameters",
    "LcrReplacementPolicy",
    "LocalityPredictorStats",
    "LocationPredictorStats",
    "OFF_CHIP",
    "ON_CHIP",
    "OverheadReport",
    "QTable",
    "compute_overhead",
    "hash_address",
    "hash_block",
    "splitmix64",
]
