"""repro.verify: adversarial tamper injection + differential correctness.

The trust story for the rest of the repository: the functional secure
memory must *detect every physical attack* (no false negatives), stay
silent on honest runs (no false positives), and the timing stack must
obey its conservation laws on every run.  This package attacks both
claims mechanically — seeded tamper schedules through :mod:`~repro.verify.
attack`, differential and invariant oracles through :mod:`~repro.verify.
differential`, a fuzz campaign over both through :mod:`~repro.verify.
fuzz` (``python -m repro verify fuzz``), and a RowHammer disturbance
model through :mod:`~repro.verify.hammer` (``python -m repro verify
hammer``) that earns its bit flips from DRAM activation pressure instead
of drawing them at random.  :mod:`~repro.verify.dram` (``python -m repro
verify dram-calib``) checks the DRAM timing model against closed-form DDR
timing algebra.
"""

from .attack import AttackError, AttackHarness, AttackReport, Detection, run_attack
from .differential import (
    DifferentialReport,
    Divergence,
    check_invariants,
    diff_functional,
    run_with_invariants,
)
from .fuzz import replay, run_fuzz, shrink_case
from .hammer import (
    HammerConfig,
    HammerFlip,
    HammerPlan,
    PhysicalMap,
    boundary_hammer_ops,
    ops_from_trace,
    plan_hammer,
    run_hammer_attack,
    run_hammer_sweep,
)
from .tamper import (
    ATTACK_CLASSES,
    ATTACK_KINDS,
    EXPECTED_DETECTOR,
    HAMMER_TARGETS,
    TAMPER_KINDS,
    AttackClass,
    Op,
    TamperSpec,
    affected_blocks,
    expected_detector,
    expected_level,
    generate_ops,
    generate_schedule,
)

__all__ = [
    "ATTACK_CLASSES",
    "ATTACK_KINDS",
    "AttackClass",
    "AttackError",
    "AttackHarness",
    "AttackReport",
    "Detection",
    "DifferentialReport",
    "Divergence",
    "EXPECTED_DETECTOR",
    "HAMMER_TARGETS",
    "HammerConfig",
    "HammerFlip",
    "HammerPlan",
    "Op",
    "PhysicalMap",
    "TAMPER_KINDS",
    "TamperSpec",
    "affected_blocks",
    "boundary_hammer_ops",
    "check_invariants",
    "diff_functional",
    "expected_detector",
    "expected_level",
    "generate_ops",
    "generate_schedule",
    "ops_from_trace",
    "plan_hammer",
    "replay",
    "run_attack",
    "run_fuzz",
    "run_hammer_attack",
    "run_hammer_sweep",
    "run_with_invariants",
    "shrink_case",
]
