"""``python -m repro obs`` — inspect observability artifacts.

Subcommands:

* ``summarize [MANIFEST]`` — one line per job artifact (design, workload,
  samples, events, ring drops), plus a run manifest's totals, top-level
  metrics and phase-span tree (the latest one by default, or an explicit
  manifest path);
* ``dump JOB`` — full ``job.json`` payload and per-signal statistics of
  one job (``JOB`` is a hash prefix, an index from ``summarize``, or a
  job artifact directory path);
* ``plot JOB`` — unicode sparklines of the job's windowed signals;
* ``merge MANIFEST`` — stitch a run manifest's orchestrator spans and its
  jobs' per-process span trees into one run-level Chrome trace
  (``MANIFEST`` may be ``latest``).

Artifacts are looked up under the cache root (``REPRO_CACHE_DIR`` /
``.trace_cache``), where workers write them; ``--cache-dir`` overrides.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Iterable, List, Optional

from .artifacts import latest_manifest, list_jobs, load_job_meta, obs_root
from .spans import Span
from .timeseries import TimeSeries


def _cache_root(args: argparse.Namespace) -> Path:
    if args.cache_dir is not None:
        return Path(args.cache_dir)
    from ..bench.runner import cache_dir

    return cache_dir()


def _resolve_job(root: Path, token: str) -> Optional[Path]:
    """A job directory by hash prefix, ``summarize`` index or path."""
    as_path = Path(token)
    if (as_path.is_dir() and ("/" in token or token.startswith("."))
            and (as_path / "job.json").is_file()):
        return as_path
    jobs = list_jobs(root)
    if token.isdigit() and int(token) < len(jobs):
        return jobs[int(token)]
    matches = [job for job in jobs if job.name.startswith(token)]
    return matches[0] if len(matches) == 1 else None


def _format_span_tree(spans: Iterable[dict], depth: int = 1) -> List[str]:
    lines: List[str] = []
    for payload in spans:
        node = Span.from_dict(payload)
        meta = ""
        if node.meta:
            meta = " (" + ", ".join(f"{k}={v}" for k, v in node.meta.items()) + ")"
        lines.append(f"{'  ' * depth}{node.name}{meta}  {node.duration_s:.3f}s")
        lines.extend(_format_span_tree(payload.get("children", []), depth + 1))
    return lines


def _load_series(directory: Path) -> Optional[TimeSeries]:
    for name in ("timeseries.npz", "timeseries.jsonl"):
        path = directory / name
        if path.is_file():
            return TimeSeries.load(path)
    return None


def _cmd_summarize(args: argparse.Namespace) -> int:
    root = _cache_root(args)
    jobs = list_jobs(obs_root(root))
    if not jobs:
        print(f"no observability artifacts under {obs_root(root)}")
        print("run with REPRO_OBS=1 to collect them")
    for index, directory in enumerate(jobs):
        meta = load_job_meta(directory)
        events = meta.get("events", {}) or {}
        line = (
            f"[{index}] {directory.name}"
            f"  {meta.get('design', '?')}/{meta.get('workload', '?')}"
            f"  samples={meta.get('samples', 0)}"
            f"  signals={len(meta.get('signals', []))}"
            f"  events={events.get('total', 0)}"
        )
        # Ring overflow is silent data loss; make it visible here.
        if events.get("dropped"):
            line += f"  dropped={events['dropped']}"
        if meta.get("run_id"):
            line += f"  run={meta['run_id']}"
        print(line)
    label = "latest manifest"
    if getattr(args, "manifest", None):
        manifest = Path(args.manifest)
        label = "manifest"
        if not manifest.is_file():
            print(f"no manifest at {manifest}", file=sys.stderr)
            return 2
    else:
        manifest = latest_manifest(Path(root) / "manifests")
        if manifest is None:
            return 0
    payload = json.loads(manifest.read_text())
    totals = payload.get("totals", {})
    print(f"\n{label}: {manifest.name} (v{payload.get('manifest_version', 1)})")
    if payload.get("run_id"):
        trace = f" · trace {payload['trace']}" if payload.get("trace") else ""
        print(f"  run {payload['run_id']} (pid {payload.get('pid', '?')}){trace}")
    print(
        f"  {totals.get('jobs', 0)} jobs"
        f" · {totals.get('cache_hits', 0)} cached"
        f" · {totals.get('failed', 0)} failed"
        f" · {totals.get('wall_time_s', 0.0):.1f}s wall"
    )
    metrics = payload.get("metrics") or {}
    for name in sorted(metrics):
        print(f"  {name} = {metrics[name]:.4g}")
    spans = payload.get("spans") or {}
    if spans.get("spans"):
        print(f"  span tree ({spans.get('total_s', 0.0):.3f}s):")
        for line in _format_span_tree(spans["spans"], depth=2):
            print(line)
    return 0


def _cmd_dump(args: argparse.Namespace) -> int:
    root = obs_root(_cache_root(args))
    directory = _resolve_job(root, args.job)
    if directory is None:
        print(f"no unique job matching {args.job!r} under {root}", file=sys.stderr)
        return 2
    print(json.dumps(load_job_meta(directory), indent=2, sort_keys=True))
    series = _load_series(directory)
    if series is not None and len(series):
        print(f"\nsignals over {len(series)} windows of {series.interval} accesses:")
        for name, stats in sorted(series.summary().items()):
            print(
                f"  {name:<28} mean={stats['mean']:.4g}"
                f" min={stats['min']:.4g} max={stats['max']:.4g}"
                f" last={stats['last']:.4g}"
            )
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    from ..bench.charts import sparkline

    root = obs_root(_cache_root(args))
    directory = _resolve_job(root, args.job)
    if directory is None:
        print(f"no unique job matching {args.job!r} under {root}", file=sys.stderr)
        return 2
    series = _load_series(directory)
    if series is None or not len(series):
        print(f"{directory.name}: no time-series samples", file=sys.stderr)
        return 1
    names = args.signals or series.signals
    for name in names:
        column = series.columns.get(name)
        if column is None:
            print(f"  {name:<28} (unknown signal)")
            continue
        values = [v for v in column if not math.isnan(v)]
        spark = sparkline(values) or "(no data)"
        last = f"{values[-1]:.4g}" if values else "-"
        print(f"  {name:<28} {spark}  last={last}")
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    from .merge import merge_manifest

    root = _cache_root(args)
    if args.manifest == "latest":
        manifest = latest_manifest(Path(root) / "manifests")
        if manifest is None:
            print(f"no run manifests under {Path(root) / 'manifests'}",
                  file=sys.stderr)
            return 2
    else:
        manifest = Path(args.manifest)
        if not manifest.is_file():
            print(f"no manifest at {manifest}", file=sys.stderr)
            return 2
    try:
        trace_path, count = merge_manifest(
            manifest, cache_root=root,
            output=Path(args.output) if args.output else None)
    except (OSError, ValueError) as exc:
        print(f"merge failed: {exc}", file=sys.stderr)
        return 1
    print(f"{trace_path}: {count} trace events")
    return 0


def add_obs_parser(sub: argparse._SubParsersAction) -> None:
    """Attach the ``obs`` subcommand to the top-level CLI parser."""
    obs_parser = sub.add_parser("obs", help="inspect observability artifacts")
    obs_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache root holding obs/ and manifests/ (default: auto)",
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)

    summarize = obs_sub.add_parser(
        "summarize", help="list job artifacts and a run manifest")
    summarize.add_argument(
        "manifest", nargs="?", default=None,
        help="run-manifest path to summarize (default: the latest)")
    summarize.set_defaults(func=_cmd_summarize)

    dump = obs_sub.add_parser("dump", help="print one job's metadata and signal stats")
    dump.add_argument("job", help="job hash prefix or summarize index")
    dump.set_defaults(func=_cmd_dump)

    plot = obs_sub.add_parser("plot", help="sparkline a job's windowed signals")
    plot.add_argument("job", help="job hash prefix or summarize index")
    plot.add_argument("signals", nargs="*", help="signal names (default: all)")
    plot.set_defaults(func=_cmd_plot)

    merge = obs_sub.add_parser(
        "merge", help="stitch a run's span trees into one Chrome trace")
    merge.add_argument(
        "manifest", help="run-manifest path, or 'latest'")
    merge.add_argument(
        "--output", default=None, metavar="FILE",
        help="trace output path (default: next to the manifest)")
    merge.set_defaults(func=_cmd_merge)
