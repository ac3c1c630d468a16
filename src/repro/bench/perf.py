"""Paired perfbench runs of this checkout against a git revision.

A shared host's speed can drift by up to 2x between sessions, so a speed
claim is a paired ratio from runs interleaved in one session, never a
comparison with numbers pinned earlier.  The command extracts REV with
``git archive`` and runs the unchanged ``perfbench/run.py --trace 0`` in REV's
tree and in this checkout as pairs, REV first in even-numbered pairs.
Each run lasts ``BENCHMARK.json``'s ``run_seconds``.  Every end-to-end
metric of ``BENCHMARK.json`` gets one verdict per workload (see
:func:`verdict`), and the design work fingerprints of the two trees are
compared.

Usage, from inside the repository::

    python -m repro.bench.perf --against REV [--workload W ...] [--pairs 10] [--seed 1]

The last line of the output is one JSON object.  Exit status: 2 when REV
has no ``perfbench/`` or its ``perfbench/`` or ``BENCHMARK.json`` differs
from this checkout's (nothing runs); 1 when a run was not ``correct`` or
a verdict is ``regression``; 0 otherwise.  For a per-function profile,
run ``python -m cProfile -s tottime perfbench/run.py --workload ml-dlrm
--seconds 5``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Files REV must have, and must have identical to this checkout, so that
#: both trees are measured by the same benchmark.
BENCHMARK_FILES = ("perfbench/run.py", "BENCHMARK.json")


class RevisionError(Exception):
    """REV cannot be compared with this checkout."""


@dataclass
class Run:
    """The parsed output of one ``perfbench/run.py`` run."""

    correct: bool
    metrics: Dict[str, float]
    #: Design name -> its ``work`` fingerprint line (JSON).
    work: Dict[str, str]


def tally(rev: Sequence[float], this: Sequence[float], better: str) -> Tuple[int, int, int]:
    """Pairs won, lost and tied by this checkout; pair ``i`` is ``rev[i]``, ``this[i]``."""
    sign = 1 if better == "higher" else -1
    won = sum(sign * (t - r) > 0 for r, t in zip(rev, this))
    lost = sum(sign * (t - r) < 0 for r, t in zip(rev, this))
    return won, lost, len(rev) - won - lost


def verdict(rev: Sequence[float], this: Sequence[float], better: str, bound: float) -> str:
    """The simplicity-review verdict on one metric of one workload.

    ``rev[i]`` and ``this[i]`` are pair ``i``; quartiles are
    ``statistics.quantiles(values, n=4)``.

    * ``gain``: this checkout wins at least 0.9 of the pairs (ties count
      for neither side) and the medians differ in the ``better`` direction
      by more than REV's interquartile range;
    * ``regression``: not a gain, and this checkout's median is worse than
      REV's by more than ``bound`` of REV's median;
    * ``unresolved``: neither, either side's IQR / median exceeds
      ``bound``, and not every run of this checkout beats every run of REV;
    * ``unchanged``: everything else.
    """
    sign = 1 if better == "higher" else -1
    won, _, _ = tally(rev, this, better)
    rev_q1, rev_median, rev_q3 = statistics.quantiles(rev, n=4)
    this_q1, this_median, this_q3 = statistics.quantiles(this, n=4)
    change = sign * (this_median - rev_median)
    if 10 * won >= 9 * len(rev) and change > rev_q3 - rev_q1:
        return "gain"
    if change < -bound * rev_median:
        return "regression"
    noisy = max((rev_q3 - rev_q1) / rev_median, (this_q3 - this_q1) / this_median) > bound
    beats_all = min(sign * t for t in this) > max(sign * r for r in rev)
    return "unresolved" if noisy and not beats_all else "unchanged"


def _git(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)


def check_revision(root: Path, rev: str) -> str:
    """The commit ``rev`` names, once it is known to run the same benchmark."""
    resolved = _git(root, "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}")
    if resolved.returncode:
        raise RevisionError(f"{rev} is not a commit")
    commit = resolved.stdout.strip()
    for name in BENCHMARK_FILES:
        if _git(root, "cat-file", "-e", f"{commit}:{name}").returncode:
            raise RevisionError(f"{rev} has no {name}")
    diff = _git(root, "diff", "--name-only", commit, "--", "perfbench", "BENCHMARK.json")
    if diff.returncode:
        raise RevisionError(diff.stderr.strip())
    if diff.stdout.strip():
        raise RevisionError(f"{rev} runs a different benchmark: {' '.join(diff.stdout.split())}"
                            " differ")
    return commit


def extract(root: Path, commit: str, dest: Path) -> None:
    """Write the tree of ``commit`` into ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=root,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float) -> Run:
    """One ``perfbench/run.py --trace 0`` run in ``tree``."""
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = process.stdout.splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        report = {}
    work = {}
    for line in lines:
        if line.startswith("work "):
            design, _, fingerprint = line[len("work "):].partition(": ")
            work[design] = fingerprint
    correct = process.returncode == 0 and report.get("correct") is True
    if not correct:
        print(f"perfbench in {tree} ({workload}) was not correct:\n{process.stderr[-2000:]}",
              file=sys.stderr)
    metrics = {name: entry["value"] for name, entry in report.get("metrics", {}).items()}
    return Run(correct, metrics, work)


def compare(root: Path, commit: str, spec: dict, workloads: Sequence[str], pairs: int,
            seed: int) -> Dict[str, Dict[str, List[Run]]]:
    """Interleaved runs of both trees: workload -> {"rev", "this"} -> runs."""
    runs = {workload: {"rev": [], "this": []} for workload in workloads}
    with tempfile.TemporaryDirectory(prefix="perf-against-") as scratch:
        trees = {"rev": Path(scratch), "this": root}
        extract(root, commit, trees["rev"])
        for pair in range(pairs):
            for workload in workloads:
                for side in ("rev", "this") if pair % 2 == 0 else ("this", "rev"):
                    run = run_perfbench(trees[side], workload, seed, spec["run_seconds"])
                    runs[workload][side].append(run)
                    print(f"pair {pair + 1}/{pairs} {workload} {side}:"
                          f" {'correct' if run.correct else 'NOT CORRECT'}", file=sys.stderr)
    return runs


def summarise(spec: dict, runs: Dict[str, Dict[str, List[Run]]]) -> Dict[str, dict]:
    """Per workload: fingerprint agreement and each end-to-end metric's verdict."""
    report = {}
    for workload, sides in runs.items():
        fingerprints = {side: {item for run in side_runs for item in run.work.items()}
                        for side, side_runs in sides.items()}
        differ = sorted({design for design, _ in fingerprints["rev"] ^ fingerprints["this"]})
        metrics = {}
        for entry in spec["end_to_end"]:
            name = entry["name"]
            paired = [(rev.metrics[name], this.metrics[name])
                      for rev, this in zip(sides["rev"], sides["this"])
                      if name in rev.metrics and name in this.metrics]
            if len(paired) < 2:
                metrics[name] = {"verdict": None, "pairs": len(paired)}
                continue
            rev_values, this_values = zip(*paired)
            won, lost, tied = tally(rev_values, this_values, entry["better"])
            metrics[name] = {
                "verdict": verdict(rev_values, this_values, entry["better"], entry["bound"]),
                "ratio": statistics.median(t / r for r, t in paired),
                "won": won, "lost": lost, "tied": tied,
                "rev": statistics.quantiles(rev_values, n=4),
                "this": statistics.quantiles(this_values, n=4),
            }
        report[workload] = {"work_identical": bool(fingerprints["rev"]) and not differ,
                            "work_differs": differ, "metrics": metrics}
    return report


def print_report(rev: str, pairs: int, report: Dict[str, dict]) -> None:
    """One table per workload: both sides' quartiles, ratio, pairs and verdict."""
    for workload, entry in report.items():
        work = ("identical" if entry["work_identical"]
                else "NOT identical (" + ", ".join(entry["work_differs"] or ["missing"]) + ")")
        print(f"\n{workload}: {pairs} pairs against {rev}; work fingerprints {work}")
        print(f"  {'metric':<20} {'REV median [q1, q3]':>30} {'this median [q1, q3]':>30}"
              f" {'this/REV':>9} {'won/lost/tied':>14}  verdict")
        for name, metric in entry["metrics"].items():
            if metric["verdict"] is None:
                print(f"  {name:<20} too few complete pairs ({metric['pairs']})")
                continue
            sides = [f"{_number(median)} [{_number(q1)}, {_number(q3)}]"
                     for q1, median, q3 in (metric["rev"], metric["this"])]
            tally_text = f"{metric['won']}/{metric['lost']}/{metric['tied']}"
            print(f"  {name:<20} {sides[0]:>30} {sides[1]:>30} {metric['ratio']:>9.4f}"
                  f" {tally_text:>14}  {metric['verdict']}")


def _number(value: float) -> str:
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.5g}"


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (``python -m repro.bench.perf``)."""
    parser = argparse.ArgumentParser(prog="python -m repro.bench.perf", allow_abbrev=False,
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="git revision to compare this checkout with")
    parser.add_argument("--workload", nargs="+", metavar="W",
                        help="workloads to run (default: every one in BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="runs of each tree per workload (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=1,
                        help="perfbench workload seed (default: %(default)s)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    toplevel = _git(Path.cwd(), "rev-parse", "--show-toplevel")
    if toplevel.returncode:
        print("perf: run this from inside the repository's git checkout", file=sys.stderr)
        return 2
    root = Path(toplevel.stdout.strip())
    try:
        commit = check_revision(root, args.against)
    except RevisionError as error:
        print(f"perf: {error}; nothing was run", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    known = [workload["name"] for workload in spec["workloads"]]
    unknown = sorted(set(args.workload or ()) - set(known))
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)};"
                     f" BENCHMARK.json has {', '.join(known)}")
    workloads = args.workload or known
    runs = compare(root, commit, spec, workloads, args.pairs, args.seed)
    report = summarise(spec, runs)
    print_report(args.against, args.pairs, report)
    correct = all(run.correct for sides in runs.values() for side in sides.values() for run in side)
    regressions = sorted(f"{workload}:{name}" for workload, entry in report.items()
                         for name, metric in entry["metrics"].items()
                         if metric["verdict"] == "regression")
    print(json.dumps({"against": args.against, "commit": commit, "pairs": args.pairs,
                      "seed": args.seed, "correct": correct, "regressions": regressions,
                      "workloads": report}))
    return 0 if correct and not regressions else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
