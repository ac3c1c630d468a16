"""Trace-driven simulation layer: config (Table 3), runner, results, SMAT."""

from .config import CpuModel, SimulationConfig, small_test_config
from .results import SimulationResult
from .simulator import Simulator, build_design, build_layout, simulate
from .smat import SmatInputs, ctr_term, smat, smat_unprotected

__all__ = [
    "CpuModel",
    "SimulationConfig",
    "SimulationResult",
    "Simulator",
    "SmatInputs",
    "build_design",
    "build_layout",
    "ctr_term",
    "simulate",
    "small_test_config",
    "smat",
    "smat_unprotected",
]
