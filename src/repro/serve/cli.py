"""CLI surface of the experiment service.

``python -m repro serve``
    Run the server in the foreground over the repository's result cache.

``python -m repro submit``
    Submit a design×workload×seed matrix to a running server, stream
    per-job progress, and optionally write the canonical results file and
    the run manifest.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

from .protocol import DEFAULT_PORT, parse_address


def _cmd_serve(args: argparse.Namespace) -> int:
    from ..bench.runner import cache_dir
    from ..exec import ResultCache
    from .server import ExperimentServer

    cache = None if args.no_cache else ResultCache(cache_dir() / "results")
    server = ExperimentServer(
        cache=cache,
        jobs=args.jobs,
        queue_limit=args.queue_limit,
        timeout=args.timeout,
        retries=args.retries,
        host=args.host,
        port=args.port,
    )
    try:
        server.run()
    finally:
        if args.stats_dir:
            path = server.write_stats_artifact(Path(args.stats_dir))
            if path is not None:
                print(f"wrote {path}", file=sys.stderr)
    return 0


def _split(values: List[str]) -> List[str]:
    """Flatten repeated and comma-separated CLI list arguments."""
    out: List[str] = []
    for value in values:
        out.extend(part for part in value.split(",") if part)
    return out


def _progress_printer(quiet: bool):
    if quiet:
        return None

    def on_event(frame: Dict[str, object]) -> None:
        event = frame.get("event")
        if event in ("queued", "started"):
            return  # only terminal events are worth a line
        label = f"{frame.get('design')}/{frame.get('workload')}"
        if event == "failed":
            print(f"  [submit] FAILED {label}: {frame.get('error')}",
                  file=sys.stderr)
        else:
            print(f"  [submit] {event} {label}", file=sys.stderr)

    return on_event


def _cmd_submit(args: argparse.Namespace) -> int:
    from ..exec import make_spec
    from .client import JobsFailed, ServeClient, ServeError

    designs = _split(args.designs)
    workloads = _split(args.workloads)
    seeds = [int(s) for s in _split(args.seeds)] if args.seeds else [None]
    if not designs or not workloads:
        print("submit needs at least one design and one workload",
              file=sys.stderr)
        return 2

    specs = [
        make_spec(design, workload, num_cores=args.cores,
                  max_accesses=args.accesses, seed=seed)
        for design in designs
        for workload in workloads
        for seed in seeds
    ]
    host, port = parse_address(args.address)
    client = ServeClient(host=host, port=port, timeout=args.timeout)
    manifest: Dict[str, object] = {}
    try:
        with client:
            results, manifest = client.submit(
                specs, on_event=_progress_printer(args.quiet))
            stats = client.stats() if args.stats else None
    except JobsFailed as failed:
        for job_hash, error in sorted(failed.failures.items()):
            print(f"FAILED {job_hash[:16]}: {error}", file=sys.stderr)
        return 1
    except (ServeError, ConnectionError, OSError) as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1

    # Canonical results payload: deterministic bytes for identical
    # matrices, so concurrent clients can be diffed file-for-file.
    payload = {job_hash: results[job_hash].to_dict()
               for job_hash in sorted(results)}
    rendered = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(rendered)
        if not args.quiet:
            print(f"wrote {args.out}", file=sys.stderr)
    if args.manifest_out:
        Path(args.manifest_out).write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        if not args.quiet:
            print(f"wrote {args.manifest_out}", file=sys.stderr)
    totals = manifest.get("totals", {}) if isinstance(manifest, dict) else {}
    if not args.quiet:
        print(f"{len(results)} results "
              f"({totals.get('cache_hits', 0)} cached, "
              f"{totals.get('duplicates', 0)} deduped) "
              f"in {totals.get('wall_time_s', 0.0)}s", file=sys.stderr)
    if stats is not None:
        print(json.dumps(stats, sort_keys=True, indent=2))
    elif not args.out:
        sys.stdout.write(rendered)
    return 0


def add_serve_parser(sub: "argparse._SubParsersAction") -> None:
    """Attach the ``serve`` and ``submit`` commands."""
    serve = sub.add_parser(
        "serve", help="run the experiment service over the result cache")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=DEFAULT_PORT,
                       help=f"TCP port (default: {DEFAULT_PORT}; 0 = ephemeral)")
    serve.add_argument("-j", "--jobs", type=int, default=None, metavar="N",
                       help="worker slots (default: auto-detected CPU count)")
    serve.add_argument("--queue-limit", type=int, default=256, metavar="N",
                       help="pending jobs accepted before load shedding")
    serve.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                       help="per-job wall-clock limit")
    serve.add_argument("--retries", type=int, default=1, metavar="N",
                       help="per-job retries after failure/timeout")
    serve.add_argument("--no-cache", action="store_true",
                       help="serve without the on-disk result cache")
    serve.add_argument("--stats-dir", default=None, metavar="DIR",
                       help="write a serve-stats.json artifact on shutdown")
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a design×workload matrix to a running server")
    submit.add_argument("-d", "--designs", action="append", default=[],
                        metavar="D[,D...]", help="designs (repeat or comma-list)")
    submit.add_argument("-w", "--workloads", action="append", default=[],
                        metavar="W[,W...]", help="workloads (repeat or comma-list)")
    submit.add_argument("-s", "--seeds", action="append", default=[],
                        metavar="S[,S...]", help="trace seeds (default: one unseeded run)")
    submit.add_argument("-c", "--cores", type=int, default=4,
                        help="simulated cores per cell")
    submit.add_argument("-n", "--accesses", type=int, default=None,
                        help="trace length override")
    submit.add_argument("-a", "--address", default=f"127.0.0.1:{DEFAULT_PORT}",
                        metavar="HOST[:PORT]", help="server address")
    submit.add_argument("--timeout", type=float, default=300.0,
                        help="client read timeout in seconds")
    submit.add_argument("--out", default=None, metavar="FILE",
                        help="write canonical results JSON here (else stdout)")
    submit.add_argument("--manifest-out", default=None, metavar="FILE",
                        help="write the server-built run manifest here")
    submit.add_argument("--stats", action="store_true",
                        help="print server stats after the submit")
    submit.add_argument("-q", "--quiet", action="store_true",
                        help="suppress progress output")
    submit.set_defaults(func=_cmd_submit)
