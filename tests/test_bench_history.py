"""The perf-regression observatory: benchmark history and trend analysis."""

from __future__ import annotations

import json

import pytest

from repro.bench.history import (
    DEFAULT_THRESHOLD,
    HISTORY_SCHEMA,
    analyze_trend,
    append_history,
    format_trend,
    history_entry,
    load_history,
)


def _payload(rate=100000.0, dram=50000.0, n=20000):
    return {
        "schema": "repro.bench.perf/v3",
        "trace": {"kind": "zipf", "n": n, "seed": 11, "write_fraction": 0.3},
        "results": {
            "cosmos": {"accesses_per_sec": rate},
            "morphctr": {"accesses_per_sec": rate * 1.5},
        },
        "dram_microbench": {"requests_per_sec": dram},
    }


def _record(rate=100000.0, python="3.12.1", n=20000, ts=0):
    entry = history_entry(_payload(rate=rate, n=n), sha="abc", now=ts)
    entry["python"] = python
    return entry


# ----------------------------------------------------------------------
# Entry distillation, append, load
# ----------------------------------------------------------------------
def test_history_entry_distils_payload():
    entry = history_entry(_payload(), sha="deadbeef", now=1700000000)
    assert entry["schema"] == HISTORY_SCHEMA
    assert entry["sha"] == "deadbeef" and entry["ts"] == 1700000000
    assert entry["trace"]["n"] == 20000
    assert entry["throughput"] == {"cosmos": 100000.0,
                                   "morphctr": 150000.0}
    assert entry["dram_rps"] == 50000.0
    assert "serve_rps" not in entry


def test_append_and_load_round_trip(tmp_path):
    path = tmp_path / "hist" / "BENCH_history.jsonl"
    first = append_history(_payload(rate=1000.0), path, sha="aaa")
    second = append_history(_payload(rate=2000.0), path, sha="bbb")
    assert first is not None and second is not None
    records = load_history(path)
    assert [r["sha"] for r in records] == ["aaa", "bbb"]
    assert records[1]["throughput"]["cosmos"] == 2000.0


def test_load_skips_torn_lines(tmp_path):
    path = tmp_path / "h.jsonl"
    append_history(_payload(), path, sha="ok")
    with path.open("a") as handle:
        handle.write('{"torn": tru\n')  # a crashed append mid-line
        handle.write("[1, 2]\n")  # valid JSON, wrong shape
    append_history(_payload(), path, sha="ok2")
    assert [r["sha"] for r in load_history(path)] == ["ok", "ok2"]
    assert load_history(tmp_path / "missing.jsonl") == []


def test_append_never_raises(tmp_path):
    blocked = tmp_path / "file-not-dir"
    blocked.write_text("x")
    assert append_history(_payload(), blocked / "h.jsonl") is None


# ----------------------------------------------------------------------
# Trend analysis
# ----------------------------------------------------------------------
def test_trend_flags_synthetic_drift():
    # Five steady runs, then a 5% drop — far below the 3% lateral CI gate
    # per-run, but unmistakable against the median.
    records = [_record(rate=100000.0, ts=i) for i in range(5)]
    records.append(_record(rate=95000.0, ts=5))
    analysis = analyze_trend(records, window=5, threshold=DEFAULT_THRESHOLD)
    assert analysis["baseline_runs"] == 5
    cosmos = analysis["keys"]["cosmos"]
    assert cosmos["median"] == 100000.0
    assert cosmos["drift"] == pytest.approx(-0.05)
    assert cosmos["flag"] is True
    assert set(analysis["flags"]) == {"cosmos", "morphctr"}
    rendered = format_trend(analysis)
    assert "DRIFT" in rendered and "cosmos" in rendered


def test_trend_tolerates_noise_within_threshold():
    records = [_record(rate=100000.0, ts=i) for i in range(5)]
    records.append(_record(rate=99500.0, ts=5))  # -0.5%: noise, not drift
    analysis = analyze_trend(records, window=5, threshold=0.01)
    assert analysis["flags"] == []
    assert "within" in format_trend(analysis)
    # Improvements never flag.
    records.append(_record(rate=120000.0, ts=6))
    assert analyze_trend(records, window=5, threshold=0.01)["flags"] == []


def test_trend_partitions_on_workload_and_python():
    # Same rate numbers, but different trace length / interpreter: those
    # runs must not pollute the baseline median.
    records = [
        _record(rate=50000.0, n=1000, ts=0),        # different workload
        _record(rate=60000.0, python="3.10.2", ts=1),  # different interpreter
        _record(rate=100000.0, ts=2),
        _record(rate=100000.0, ts=3),
        _record(rate=100000.0, ts=4),
    ]
    analysis = analyze_trend(records, window=5)
    assert analysis["baseline_runs"] == 2
    assert analysis["keys"]["cosmos"]["median"] == 100000.0
    assert analysis["flags"] == []


def test_trend_with_no_history_is_quiet():
    empty = analyze_trend([])
    assert empty == {"latest": None, "baseline_runs": 0, "keys": {},
                     "flags": []}
    assert format_trend(empty) == "no history recorded yet"
    lone = analyze_trend([_record()])
    assert lone["keys"] == {} and lone["flags"] == []
    assert "nothing to compare" in format_trend(lone)


# ----------------------------------------------------------------------
# CLI surface: repro obs bench-trend
# ----------------------------------------------------------------------
def test_bench_trend_cli(tmp_path, capsys):
    from repro.__main__ import main

    path = tmp_path / "BENCH_history.jsonl"
    with path.open("w") as handle:
        for record in [_record(rate=100000.0, ts=i) for i in range(5)] \
                + [_record(rate=90000.0, ts=5)]:
            handle.write(json.dumps(record) + "\n")
    assert main(["obs", "bench-trend", "--history", str(path)]) == 0
    out = capsys.readouterr().out
    assert "DRIFT" in out and "median" in out
    # --strict turns flagged drift into a failing exit code.
    assert main(["obs", "bench-trend", "--history", str(path),
                 "--strict"]) == 1
    # A tolerant threshold clears it.
    assert main(["obs", "bench-trend", "--history", str(path),
                 "--strict", "--threshold", "0.2"]) == 0


def test_bench_trend_cli_without_history(tmp_path, capsys):
    from repro.__main__ import main

    missing = tmp_path / "nope.jsonl"
    assert main(["obs", "bench-trend", "--history", str(missing)]) == 2
    assert "no benchmark history" in capsys.readouterr().err
