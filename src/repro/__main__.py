"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``reproduce [EXPERIMENT ...]`` — run the named figure/table
  reproductions (``fig2`` ... ``fig17``, ``tab1``, ``tab2``, ``tab4``,
  ablations), or all of them when none are named.
* ``simulate -w WORKLOAD -d DESIGN [...]`` — one ad-hoc simulation.
* ``obs summarize|dump|plot`` — inspect observability artifacts collected
  by runs with ``REPRO_OBS=1`` (or the ``--obs`` flag).
* ``list`` — show available experiments, designs and workloads.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict

from .bench import experiments
from .bench.report import format_table
from .workloads.graph_algos import GRAPH_WORKLOADS
from .workloads.hammer import HAMMER_WORKLOADS
from .workloads.ml import ML_WORKLOADS
from .workloads.spec import SPEC_WORKLOADS

EXPERIMENTS: Dict[str, Callable] = {
    "fig2": experiments.figure2,
    "fig3": experiments.figure3,
    "fig4": experiments.figure4,
    "fig5": experiments.figure5,
    "fig8": experiments.figure8,
    "fig9": experiments.figure9,
    "fig10": experiments.figure10,
    "fig11": experiments.figure11,
    "fig12": experiments.figure12,
    "fig13": experiments.figure13,
    "fig14": experiments.figure14,
    "fig15": experiments.figure15,
    "fig16": experiments.figure16,
    "fig17": experiments.figure17,
    "tab1": experiments.table1,
    "tab2": experiments.table2,
    "tab4": experiments.table4,
    "ablation-counters": experiments.ablation_counter_schemes,
    "ablation-mtcache": experiments.ablation_mt_cache,
    "ablation-exploration": experiments.ablation_exploration,
    "ablation-hybrid": experiments.ablation_hybrid,
    "ablation-cpu-model": experiments.ablation_cpu_model,
    "ablation-paging": experiments.ablation_paging,
    "generality-db": experiments.generality_db,
    "ablation-synergy": experiments.ablation_synergy,
    "ablation-lcr": experiments.ablation_lcr_policy,
}

DESIGNS = [
    "np", "morphctr", "early", "emcc", "rmcc",
    "cosmos-dp", "cosmos-cp", "cosmos", "cosmos-early",
    "synergy", "cosmos-synergy",
]


def _apply_execution_flags(args: argparse.Namespace) -> None:
    """Propagate --jobs/--no-cache/--obs into process-wide options."""
    import os

    from .exec import auto_jobs, set_options

    if getattr(args, "jobs", None) is not None:
        set_options(jobs=args.jobs, jobs_source="flag")
    elif "REPRO_JOBS" not in os.environ:
        # No flag, no env: the CLI defaults to every available core
        # (capped; see auto_jobs).  Library callers keep the serial
        # default — only the command line opts into auto-parallelism.
        set_options(jobs=auto_jobs(), jobs_source="auto")
    if getattr(args, "no_cache", False):
        set_options(use_cache=False)
    if getattr(args, "obs", False):
        from . import obs

        obs.set_enabled(True)


def _cmd_reproduce(args: argparse.Namespace) -> int:
    _apply_execution_flags(args)
    names = args.experiments or list(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    for name in names:
        rows = EXPERIMENTS[name]()
        if args.export:
            from .bench.export import export_experiment

            paths = export_experiment(rows, args.export, name)
            for path in paths:
                print(f"  wrote {path}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    _apply_execution_flags(args)
    from .bench.runner import run_design_matrix

    matrix = run_design_matrix(
        [args.design], [args.workload], max_accesses=args.accesses
    )
    result = matrix[args.workload][args.design]
    print(format_table([result.summary()]))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .bench.summary import generate_report

    path = generate_report(output=args.output, include=args.include or None)
    print(f"wrote {path}")
    return 0


def _cmd_list(_: argparse.Namespace) -> int:
    print("experiments:", ", ".join(EXPERIMENTS))
    print("designs:    ", ", ".join(DESIGNS))
    print(
        "workloads:  ",
        ", ".join(
            list(GRAPH_WORKLOADS) + list(SPEC_WORKLOADS) + list(ML_WORKLOADS)
            + ["mlp"] + list(HAMMER_WORKLOADS)
        ),
    )
    print(
        "            trace:<path>  (external Ramulator/gem5 request trace, "
        ".gz ok)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="COSMOS reproduction: experiments and ad-hoc simulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    reproduce = sub.add_parser("reproduce", help="reproduce paper figures/tables")
    reproduce.add_argument("experiments", nargs="*", help="e.g. fig10 tab2 (default: all)")
    reproduce.add_argument(
        "--export", metavar="DIR", default=None,
        help="also write each experiment's rows to DIR as CSV + JSON",
    )
    reproduce.add_argument(
        "-j", "--jobs", type=int, default=None, metavar="N",
        help="worker processes for simulation cells (default: REPRO_JOBS or 1)",
    )
    reproduce.add_argument(
        "--no-cache", action="store_true",
        help="do not read or write the on-disk simulation-result cache",
    )
    reproduce.add_argument(
        "--obs", action="store_true",
        help="enable observability (spans, time-series, events; like REPRO_OBS=1)",
    )
    reproduce.set_defaults(func=_cmd_reproduce)

    simulate = sub.add_parser("simulate", help="run one design on one workload")
    simulate.add_argument("-d", "--design", choices=DESIGNS, default="cosmos")
    simulate.add_argument("-w", "--workload", default="dfs")
    simulate.add_argument("-n", "--accesses", type=int, default=None)
    simulate.add_argument(
        "-j", "--jobs", type=int, default=None, metavar="N",
        help="worker processes for simulation cells (default: REPRO_JOBS or 1)",
    )
    simulate.add_argument(
        "--no-cache", action="store_true",
        help="do not read or write the on-disk simulation-result cache",
    )
    simulate.add_argument(
        "--obs", action="store_true",
        help="enable observability (spans, time-series, events; like REPRO_OBS=1)",
    )
    simulate.set_defaults(func=_cmd_simulate)

    report = sub.add_parser("report", help="run experiments and write REPORT.md")
    report.add_argument("-o", "--output", default="REPORT.md")
    report.add_argument("include", nargs="*",
                        help="substrings selecting sections (default: all)")
    report.set_defaults(func=_cmd_report)

    lister = sub.add_parser("list", help="list experiments, designs, workloads")
    lister.set_defaults(func=_cmd_list)

    from .obs.cli import add_obs_parser

    add_obs_parser(sub)

    from .verify.cli import add_verify_parser

    add_verify_parser(sub)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    from .obs.log import setup_logging

    setup_logging()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
