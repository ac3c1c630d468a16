"""Hot-path throughput: accesses/sec per design on the fixed Zipf trace.

Unlike the figure/table benchmarks this one tracks the *simulator itself*:
it runs :func:`repro.bench.perf.run_benchmark` once and writes the
``BENCH_hotpath.json`` report next to the current directory, so CI can
archive throughput over time.  Run standalone via::

    python -m repro.bench.perf [--profile DESIGN]

``REPRO_PERF_GATE=1`` additionally asserts the measured throughput stays
within 3% of the committed ``BENCH_hotpath.json`` baseline — the
observability layer's zero-overhead-when-off budget.  Off by default
because shared CI runners are too noisy to gate on.
"""

import json
import os
from pathlib import Path

from repro.bench.history import HISTORY_FILENAME, append_history
from repro.bench.perf import (
    DEFAULT_DESIGNS,
    measure_dram,
    measure_serve,
    run_benchmark,
    write_report,
)

#: Allowed obs-disabled throughput regression vs. the committed baseline.
PERF_BUDGET = 0.03

#: The committed baseline (repo root, one level above this file).
BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"


def _load_baseline() -> dict:
    # Snapshot at import: test_hotpath_throughput rewrites the report in
    # the current directory (the repo root when pytest runs from there),
    # and the gate must compare against the *committed* numbers, not a
    # fresh sample from the same session.
    try:
        return json.loads(BASELINE_PATH.read_text())
    except (OSError, ValueError):
        return {}


BASELINE = _load_baseline()


def test_hotpath_throughput(run_once):
    payload = run_once(run_benchmark)
    write_report(payload, Path("BENCH_hotpath.json"))
    # Longitudinal record for the perf observatory (`repro obs bench-trend`):
    # the snapshot above catches step regressions, the history catches drift.
    append_history(payload, Path(HISTORY_FILENAME))
    results = payload["results"]
    assert set(results) == set(DEFAULT_DESIGNS)
    for entry in results.values():
        assert entry["accesses"] > 0
        assert entry["accesses_per_sec"] > 0
    # The unprotected design does strictly less work per access than the
    # secure ones; if it is not the fastest, timing is broken.
    assert (
        payload["results"]["np"]["accesses_per_sec"]
        >= payload["results"]["cosmos"]["accesses_per_sec"]
    )
    if os.environ.get("REPRO_PERF_GATE") and BASELINE:
        baseline = BASELINE.get("results", {})
        for name, entry in results.items():
            reference = baseline.get(name, {}).get("accesses_per_sec")
            if not reference:
                continue
            floor = reference * (1.0 - PERF_BUDGET)
            assert entry["accesses_per_sec"] >= floor, (
                f"{name}: {entry['accesses_per_sec']:,.0f} acc/s is more than "
                f"{PERF_BUDGET:.0%} below the committed baseline "
                f"({reference:,.0f} acc/s)"
            )


def test_dram_microbench(run_once):
    """Bare ``DramModel.request`` throughput — the innermost hot-path call.

    Sanity-checks the bank-state model's behaviour on the seeded mixed
    stream (row hits from the sequential runs, honest per-class averages)
    and, under ``REPRO_PERF_GATE=1``, holds its throughput to the same
    ≤3% budget against the committed baseline's ``dram_microbench`` entry.
    """
    entry = run_once(measure_dram)
    assert entry["requests"] > 0
    assert entry["requests_per_sec"] > 0
    # Sequential runs inside rows must produce some row-buffer hits, and
    # writes (tCWL < tCL) must average cheaper service than reads unless
    # queueing dominates — both are direction checks, not tight bounds.
    assert 0.0 < entry["row_hit_rate"] < 1.0
    assert entry["avg_read_latency"] > 0
    assert entry["avg_write_latency"] > 0
    if os.environ.get("REPRO_PERF_GATE") and BASELINE:
        baseline = BASELINE.get("dram_microbench", {})
        reference = baseline.get("requests_per_sec")
        if reference:
            floor = reference * (1.0 - PERF_BUDGET)
            assert entry["requests_per_sec"] >= floor, (
                f"dram: {entry['requests_per_sec']:,.0f} req/s is more than "
                f"{PERF_BUDGET:.0%} below the committed baseline "
                f"({reference:,.0f} req/s)"
            )


def test_serve_microbench(run_once):
    """Experiment-service cache-hit fast path — requests/second over TCP.

    A warm repeated submit must be answered from the result cache without
    touching the worker pool (``jobs_executed`` stays at the warm-up
    count), and the round-trip rate must clear the 500 req/s floor the
    service promises for cache hits.  The floor is absolute, not
    baseline-relative: socket round-trip times swing far more than the
    ±3% simulator budget run-to-run, so a relative gate would only
    measure scheduler noise.
    """
    entry = run_once(measure_serve)
    assert entry["requests"] > 0
    assert entry["jobs_executed"] == entry["warm_specs"], (
        "timed phase leaked onto a worker — not measuring the fast path"
    )
    assert entry["requests_per_sec"] >= 500, (
        f"serve fast path {entry['requests_per_sec']:,.0f} req/s is below "
        f"the 500 req/s cache-hit floor"
    )


if __name__ == "__main__":  # pragma: no cover
    from repro.bench.perf import main

    raise SystemExit(main())
