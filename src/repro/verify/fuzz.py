"""Seeded fuzz driver: random traces x random tamper schedules x designs.

Each trial deterministically derives everything from ``(seed, trial)``:

* a random op trace and tamper schedule against a functional memory with
  the trial's counter scheme (cycled monolithic / split / MorphCtr) —
  the :class:`~repro.verify.attack.AttackHarness` asserts every
  injection is detected and nothing else fires;
* a schedule-free **control** run of the same trace — must be silent;
* a **functional differential** of the same ops through the next scheme;
* the engine conservation invariants over a random simulator trace
  through the trial's design (cycled through all designs);
* a **RowHammer** leg: a seeded aggressor workload planned into
  disturbance flips, every one of which must be detected.

Failures are shrunk greedily — drop tamper events one at a time, then
binary-truncate the op trace — and the minimal case is written to disk
as a JSON repro file that :func:`replay` (and ``python -m repro verify
replay``) re-executes bit-for-bit.

The summary is a plain dict with no timestamps or machine state, so the
same seed and budget produce byte-identical output anywhere (the CI
fuzz step relies on this).
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..mem.access import AccessType, MemoryAccess
from ..secure.counters import make_counter_scheme
from ..secure.functional import FunctionalSecureMemory
from ..sim.simulator import SimulationConfig
from .attack import AttackError, AttackHarness, AttackReport
from .differential import diff_functional, run_with_invariants
from .tamper import Op, TamperSpec, generate_ops, generate_schedule

#: Counter schemes cycled across trials.
SCHEMES = ("monolithic", "split", "morphctr")

#: Designs cycled across trials for the invariants leg.
DESIGNS = [
    "np", "morphctr", "early", "emcc", "rmcc",
    "cosmos-dp", "cosmos-cp", "cosmos", "cosmos-early",
    "synergy", "cosmos-synergy",
]

REPRO_VERSION = 1


def _trial_rng(seed: int, trial: int) -> random.Random:
    return random.Random(f"cosmos-verify:{seed}:{trial}")


def _make_memory(scheme_name: str, num_blocks: int) -> FunctionalSecureMemory:
    return FunctionalSecureMemory(
        num_blocks=num_blocks, scheme=make_counter_scheme(scheme_name)
    )


def _random_accesses(rng: random.Random, count: int, footprint_blocks: int) -> List[MemoryAccess]:
    """A small simulator trace with enough reuse to exercise the caches."""
    accesses: List[MemoryAccess] = []
    hot = [rng.randrange(footprint_blocks) for _ in range(max(4, footprint_blocks // 8))]
    for _ in range(count):
        block = rng.choice(hot) if rng.random() < 0.6 else rng.randrange(footprint_blocks)
        kind = AccessType.WRITE if rng.random() < 0.3 else AccessType.READ
        accesses.append(MemoryAccess(block << 6, kind, core=0))
    return accesses


def _attack_failures(
    scheme_name: str,
    num_blocks: int,
    ops: Sequence[Op],
    schedule: Sequence[TamperSpec],
) -> Tuple[List[str], Optional[AttackReport]]:
    """Run one attack on a fresh memory; returns (failures, report)."""
    memory = _make_memory(scheme_name, num_blocks)
    harness = AttackHarness(memory)
    try:
        report = harness.run(ops, schedule)
    except AttackError as exc:
        return [f"attack error: {exc}"], getattr(harness, "report", None)
    return report.failures(), report


def shrink_case(
    scheme_name: str,
    num_blocks: int,
    ops: List[Op],
    schedule: List[TamperSpec],
) -> Tuple[List[Op], List[TamperSpec]]:
    """Greedily minimise a failing (ops, schedule) pair.

    First drops tamper events one at a time, then truncates the op trace
    by halves (dropping schedule entries the shorter trace can no longer
    host).  Every candidate re-runs on a fresh memory, so the result is
    the smallest case this strategy finds that still fails.
    """

    def still_fails(candidate_ops: Sequence[Op], candidate_schedule: Sequence[TamperSpec]) -> bool:
        failures, _ = _attack_failures(scheme_name, num_blocks, candidate_ops, candidate_schedule)
        return bool(failures)

    changed = True
    while changed:
        changed = False
        for i in range(len(schedule) - 1, -1, -1):
            candidate = schedule[:i] + schedule[i + 1:]
            if still_fails(ops, candidate):
                schedule = candidate
                changed = True
        length = len(ops)
        while length > 1:
            length //= 2
            candidate_ops = ops[:length]
            candidate_schedule = [
                s for s in schedule
                if s.inject_at <= length and s.snapshot_at <= length
            ]
            if still_fails(candidate_ops, candidate_schedule):
                ops = candidate_ops
                schedule = candidate_schedule
                changed = True
            else:
                break
    return list(ops), list(schedule)


def write_repro(
    path: Path,
    seed: int,
    trial: int,
    scheme_name: str,
    num_blocks: int,
    ops: Sequence[Op],
    schedule: Sequence[TamperSpec],
    failures: Sequence[str],
) -> None:
    """Persist a minimised failing case as a replayable JSON file."""
    case = {
        "version": REPRO_VERSION,
        "seed": seed,
        "trial": trial,
        "scheme": scheme_name,
        "num_blocks": num_blocks,
        "ops": [op.to_dict() for op in ops],
        "schedule": [spec.to_dict() for spec in schedule],
        "failures": list(failures),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(case, indent=2, sort_keys=True) + "\n")


def replay(path: Path) -> Tuple[List[str], Optional[AttackReport]]:
    """Re-execute a repro file; returns current (failures, report)."""
    case = json.loads(Path(path).read_text())
    if case.get("version") != REPRO_VERSION:
        raise ValueError(f"unsupported repro version {case.get('version')!r}")
    ops = [Op.from_dict(record) for record in case["ops"]]
    schedule = [TamperSpec.from_dict(record) for record in case["schedule"]]
    return _attack_failures(case["scheme"], int(case["num_blocks"]), ops, schedule)


def run_fuzz(
    seed: int,
    budget: int,
    out_dir: Optional[Path] = None,
    designs: Sequence[str] = tuple(DESIGNS),
    sim_accesses: int = 300,
) -> Dict[str, object]:
    """Run ``budget`` fuzz trials; returns a byte-reproducible summary.

    Args:
        seed: Master seed; with the same budget, output is identical.
        budget: Number of trials (each trial = attack + control +
            functional differential + one design's invariants + hammer).
        out_dir: Where minimised repro files land (created on demand);
            defaults to ``verify-repros/`` under the current directory.
        designs: Design pool for the invariants leg.
        sim_accesses: Length of each trial's simulator trace.
    """
    from ..workloads.hammer import HAMMER_WORKLOADS, generate_hammer_trace
    from .hammer import HammerConfig, ops_from_trace, plan_hammer

    out_dir = Path(out_dir) if out_dir is not None else Path("verify-repros")
    injections = 0
    detections = 0
    hammer_injections = 0
    hammer_detections = 0
    repro_files: List[str] = []
    failure_summaries: List[Dict[str, object]] = []
    schemes_checked: set = set()
    designs_checked: set = set()

    for trial in range(budget):
        rng = _trial_rng(seed, trial)
        scheme_name = SCHEMES[trial % len(SCHEMES)]
        schemes_checked.add(scheme_name)
        num_blocks = rng.choice((64, 128, 256))
        ops = generate_ops(
            rng,
            num_ops=rng.randrange(40, 90),
            num_blocks=num_blocks,
            footprint_blocks=max(8, num_blocks // 2),
            write_fraction=0.6,
        )
        schedule = generate_schedule(
            rng, ops, _make_memory(scheme_name, num_blocks),
            max_events=rng.randrange(1, 5),
        )
        failures, report = _attack_failures(scheme_name, num_blocks, ops, schedule)
        if report is not None:
            injections += len(report.schedule)
            detections += len(report.detections)

        control_failures, _ = _attack_failures(scheme_name, num_blocks, ops, ())
        failures.extend(f"control run: {f}" for f in control_failures)

        other_scheme = SCHEMES[(trial + 1) % len(SCHEMES)]
        functional = diff_functional(
            ops,
            _make_memory(scheme_name, num_blocks),
            _make_memory(other_scheme, num_blocks),
            label=f"functional:{scheme_name}-vs-{other_scheme}",
        )
        if not functional.matched:
            failures.append(f"functional differential diverged: {functional.to_dict()}")

        design = designs[trial % len(designs)]
        designs_checked.add(design)
        accesses = _random_accesses(rng, sim_accesses, footprint_blocks=512)
        invariants = run_with_invariants(design, accesses, SimulationConfig())
        if not invariants.matched:
            failures.append(f"invariants violated: {invariants.to_dict()}")

        # RowHammer leg: a seeded aggressor workload is planned into
        # disturbance flips from the activation ledger, then every flip
        # must be caught with correct attribution.  Pattern, threshold
        # and refresh-window proxy are all trial-varied; the planned
        # schedule round-trips the same repro format as the other kinds.
        hammer_failures: List[str] = []
        pattern = HAMMER_WORKLOADS[trial % len(HAMMER_WORKLOADS)]
        hammer_config = HammerConfig(
            threshold=rng.choice((48, 64, 96)),
            window_ops=rng.choice((256, 384)),
        )
        hammer_blocks = 1 << 12
        hammer_trace = generate_hammer_trace(
            pattern, num_cores=2, max_accesses=600,
            seed=rng.randrange(1 << 16), start=0,
        )
        hammer_ops = ops_from_trace(hammer_trace, hammer_blocks)
        hammer_plan = plan_hammer(
            hammer_ops, _make_memory(scheme_name, hammer_blocks),
            hammer_config, seed=trial,
        )
        if not hammer_plan.flips:
            hammer_failures.append(
                f"hammer leg planned no flips for {pattern} "
                f"(threshold {hammer_config.threshold}, max pressure "
                f"{hammer_plan.max_pressure})"
            )
        leg_failures, hammer_report = _attack_failures(
            scheme_name, hammer_blocks, hammer_ops, hammer_plan.schedule
        )
        hammer_failures.extend(leg_failures)
        if hammer_report is not None:
            hammer_injections += len(hammer_report.schedule)
            hammer_detections += len(hammer_report.detections)
        if hammer_failures:
            min_ops, min_schedule = shrink_case(
                scheme_name, hammer_blocks,
                list(hammer_ops), list(hammer_plan.schedule),
            )
            repro_path = out_dir / f"repro-{seed}-{trial}-hammer.json"
            write_repro(
                repro_path, seed, trial, scheme_name, hammer_blocks,
                min_ops, min_schedule, hammer_failures,
            )
            repro_files.append(repro_path.name)
            failures.extend(f"hammer leg ({pattern}): {f}" for f in hammer_failures)

        if failures:
            min_ops, min_schedule = (list(ops), list(schedule))
            attack_related = any(
                not f.startswith(("invariants", "functional", "hammer leg"))
                for f in failures
            )
            if attack_related and schedule:
                min_ops, min_schedule = shrink_case(scheme_name, num_blocks, list(ops), list(schedule))
            repro_path = out_dir / f"repro-{seed}-{trial}.json"
            write_repro(
                repro_path, seed, trial, scheme_name, num_blocks,
                min_ops, min_schedule, failures,
            )
            repro_files.append(repro_path.name)
            failure_summaries.append(
                {"trial": trial, "scheme": scheme_name, "design": design, "failures": failures}
            )

    return {
        "seed": seed,
        "budget": budget,
        "trials": budget,
        "injections": injections,
        "detections": detections,
        "hammer_injections": hammer_injections,
        "hammer_detections": hammer_detections,
        "schemes_checked": sorted(schemes_checked),
        "designs_checked": sorted(designs_checked),
        "failing_trials": failure_summaries,
        "repro_files": sorted(repro_files),
        "clean": not failure_summaries,
    }
