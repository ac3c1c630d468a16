"""CLI for the verification harness: ``python -m repro verify ...``.

Subcommands:

* ``fuzz`` — seeded fuzz campaign (attack + differential legs); prints a
  byte-reproducible JSON summary and exits non-zero on any failure.
* ``attack`` — one seeded tamper-injection run against the functional
  memory; prints the attack report.
* ``diff`` — engine conservation invariants for one design on a seeded
  random trace.
* ``replay`` — re-execute a minimised fuzz repro file.
* ``hammer`` — RowHammer disturbance-error sweep: aggressor workloads
  and region-boundary scenarios, every planned flip must be detected
  with correct attribution and benign traffic must stay silent.
* ``dram-calib`` — check the DRAM model against closed-form DDR timing
  algebra (:mod:`~repro.verify.dram`) at the figures' geometry; every
  point's measured integer must equal its expectation.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

from ..secure.counters import make_counter_scheme
from ..secure.functional import FunctionalSecureMemory
from ..sim.simulator import SimulationConfig
from .attack import AttackError, AttackHarness
from .differential import run_with_invariants
from .dram import run_check
from .fuzz import DESIGNS, SCHEMES, _random_accesses, replay, run_fuzz
from .hammer import (
    HammerConfig,
    run_hammer_attack,
    run_hammer_sweep,
)
from .tamper import TAMPER_KINDS, generate_ops, generate_schedule


def _print(payload: object) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_fuzz(args: argparse.Namespace) -> int:
    summary = run_fuzz(
        seed=args.seed,
        budget=args.budget,
        out_dir=Path(args.out),
        sim_accesses=args.sim_accesses,
    )
    _print(summary)
    return 0 if summary["clean"] else 1


def _cmd_attack(args: argparse.Namespace) -> int:
    rng = random.Random(f"cosmos-verify:attack:{args.seed}")
    memory = FunctionalSecureMemory(
        num_blocks=args.blocks, scheme=make_counter_scheme(args.scheme)
    )
    ops = generate_ops(rng, num_ops=args.ops, num_blocks=args.blocks)
    schedule = generate_schedule(
        rng, ops, memory, max_events=args.events, kinds=tuple(args.kinds)
    )
    harness = AttackHarness(memory)
    try:
        report = harness.run(ops, schedule)
    except AttackError as exc:
        print(f"ATTACK ERROR: {exc}")
        return 1
    _print(report.to_dict())
    return 0 if report.clean else 1


def _cmd_diff(args: argparse.Namespace) -> int:
    rng = random.Random(f"cosmos-verify:diff:{args.seed}")
    accesses = _random_accesses(rng, args.accesses, footprint_blocks=512)
    invariants = run_with_invariants(args.design, accesses, SimulationConfig())
    _print({"invariants": invariants.to_dict()})
    return 0 if invariants.matched else 1


def _cmd_hammer(args: argparse.Namespace) -> int:
    config = HammerConfig(threshold=args.threshold, window_ops=args.window_ops)
    if args.pattern is not None:
        from ..workloads.hammer import generate_hammer_trace
        from .hammer import ops_from_trace

        trace = generate_hammer_trace(
            args.pattern, num_cores=2, max_accesses=args.accesses,
            seed=args.seed, start=0,
        )
        ops = ops_from_trace(trace, args.blocks)
        plan, report = run_hammer_attack(
            ops, scheme=args.scheme, num_blocks=args.blocks,
            config=config, seed=args.seed,
        )
        payload = {"plan": plan.to_dict(), "report": report.to_dict()}
        clean = report.clean and bool(plan.flips)
    else:
        payload = run_hammer_sweep(
            seed=args.seed, num_blocks=args.blocks,
            accesses=args.accesses, config=config,
        )
        clean = bool(payload["clean"])
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _print(payload)
    return 0 if clean else 1


def _cmd_dram_calib(args: argparse.Namespace) -> int:
    report = run_check()
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    _print(report)
    return 0 if report["ok"] else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    failures, report = replay(Path(args.file))
    payload: dict = {"failures": failures}
    if report is not None:
        payload["report"] = report.to_dict()
    _print(payload)
    return 1 if failures else 0


def add_verify_parser(sub: argparse._SubParsersAction) -> None:
    """Register the ``verify`` subcommand on the repro CLI."""
    verify_parser = sub.add_parser(
        "verify", help="adversarial tamper injection and differential checking"
    )
    verify_sub = verify_parser.add_subparsers(dest="verify_command", required=True)

    fuzz = verify_sub.add_parser(
        "fuzz", help="seeded fuzz campaign over traces x tampers x designs"
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--budget", type=int, default=25, help="number of trials")
    fuzz.add_argument(
        "--out", default="verify-repros", help="directory for minimised repro files"
    )
    fuzz.add_argument(
        "--sim-accesses", type=int, default=300,
        help="simulator trace length for the invariants leg",
    )
    fuzz.set_defaults(func=_cmd_fuzz)

    attack = verify_sub.add_parser(
        "attack", help="one seeded tamper-injection run (functional memory)"
    )
    attack.add_argument("--seed", type=int, default=0)
    attack.add_argument("--ops", type=int, default=80)
    attack.add_argument("--events", type=int, default=4)
    attack.add_argument("--blocks", type=int, default=256)
    attack.add_argument("--scheme", choices=SCHEMES, default="monolithic")
    attack.add_argument(
        "--kinds", nargs="+", choices=TAMPER_KINDS, default=list(TAMPER_KINDS)
    )
    attack.set_defaults(func=_cmd_attack)

    diff = verify_sub.add_parser(
        "diff", help="engine conservation invariants on a seeded trace"
    )
    diff.add_argument("--design", choices=DESIGNS, default="cosmos")
    diff.add_argument("--seed", type=int, default=0)
    diff.add_argument("--accesses", type=int, default=2000)
    diff.set_defaults(func=_cmd_diff)

    calib = verify_sub.add_parser(
        "dram-calib",
        help="DRAM model against closed-form DDR timing algebra",
    )
    calib.add_argument(
        "--out", default="",
        help="also write the JSON report to this file (CI artifact)",
    )
    calib.set_defaults(func=_cmd_dram_calib)

    replay_parser = verify_sub.add_parser(
        "replay", help="re-execute a minimised fuzz repro file"
    )
    replay_parser.add_argument("file", help="path to a repro-*.json file")
    replay_parser.set_defaults(func=_cmd_replay)

    hammer = verify_sub.add_parser(
        "hammer", help="RowHammer disturbance-error sweep (sixth attack class)"
    )
    hammer.add_argument("--seed", type=int, default=0)
    hammer.add_argument(
        "--pattern", choices=("hammer-single", "hammer-double",
                              "hammer-many", "hammer-mixed"),
        default=None,
        help="run a single aggressor workload instead of the full sweep",
    )
    hammer.add_argument("--scheme", choices=SCHEMES, default="monolithic")
    hammer.add_argument("--blocks", type=int, default=1 << 12)
    hammer.add_argument("--accesses", type=int, default=1200)
    hammer.add_argument(
        "--threshold", type=int, default=96,
        help="HC threshold (combined neighbour activations per window)",
    )
    hammer.add_argument(
        "--window-ops", type=int, default=384,
        help="ops per refresh window (tREFI proxy)",
    )
    hammer.add_argument(
        "--out", default="", help="also write the JSON summary to this file"
    )
    hammer.set_defaults(func=_cmd_hammer)
