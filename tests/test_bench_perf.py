"""Smoke test for the tracked hot-path performance harness.

The full benchmark (100k accesses x 3 repeats x 3 designs) is far too slow
for the unit suite, so this runs the same code path on a few thousand
accesses and validates the ``BENCH_hotpath.json`` schema.  Guarded by
``REPRO_QUICK=1`` (set by the CI workflow) so plain local runs skip it.
"""

import json
import os

import pytest

from repro.bench.perf import (
    DEFAULT_DESIGNS,
    SCHEMA,
    format_report,
    main,
    measure_dram,
    run_benchmark,
    write_report,
)

# Evaluated at collection time, before the hermetic-env fixture strips the
# variable: the guard reflects the environment pytest was launched with.
QUICK = os.environ.get("REPRO_QUICK") == "1"

pytestmark = pytest.mark.skipif(
    not QUICK, reason="perf smoke runs under REPRO_QUICK=1 (the CI tier-1 job)"
)

PAYLOAD_KEYS = {"schema", "generated_unix", "python", "trace", "repeats", "results"}
ENTRY_KEYS = {
    "accesses",
    "best_seconds",
    "runs_seconds",
    "accesses_per_sec",
    "cycles",
    "total_latency",
    "ctr_miss_rate",
}


def test_run_benchmark_payload_schema():
    payload = run_benchmark(designs=("np", "cosmos"), n=3000, repeats=1)
    assert payload["schema"] == SCHEMA
    assert PAYLOAD_KEYS <= set(payload)
    assert payload["trace"]["kind"] == "zipf"
    assert payload["trace"]["n"] == 3000
    assert set(payload["results"]) == {"np", "cosmos"}
    for entry in payload["results"].values():
        assert set(entry) == ENTRY_KEYS
        assert entry["accesses"] == 3000
        assert entry["best_seconds"] > 0
        assert entry["accesses_per_sec"] > 0
        assert len(entry["runs_seconds"]) == 1
    assert "accesses/sec" in format_report(payload)


def test_dram_microbench_entry():
    entry = measure_dram(n=5000, repeats=1)
    assert entry["requests"] == 5000
    assert entry["requests_per_sec"] > 0
    assert 0.0 < entry["row_hit_rate"] < 1.0
    assert entry["avg_read_latency"] > 0
    assert entry["avg_write_latency"] > 0
    payload = run_benchmark(designs=("np",), n=2000, repeats=1)
    assert set(payload["dram_microbench"]) == set(entry)
    assert "requests/sec" in format_report(payload)


def test_dram_only_cli(capsys):
    assert main(["--dram-only", "--dram-n", "3000", "--repeats", "1"]) == 0
    assert "requests/sec" in capsys.readouterr().out


def test_cli_writes_valid_report(tmp_path, capsys):
    output = tmp_path / "BENCH_hotpath.json"
    code = main(
        ["--designs", "np", "--n", "2000", "--repeats", "1", "--output", str(output)]
    )
    assert code == 0
    loaded = json.loads(output.read_text())
    assert loaded["schema"] == SCHEMA
    assert set(loaded["results"]) == {"np"}
    assert capsys.readouterr().out  # human summary printed alongside the JSON


def test_default_designs_are_the_tracked_set():
    assert DEFAULT_DESIGNS == ("np", "morphctr", "cosmos")
