"""Unit tests for the ``repro.obs`` observability layer.

Covers the three facilities in isolation — spans, event ring,
time-series — plus the enable/disable switch semantics that make the
whole layer free when off.
"""

from __future__ import annotations

import json
import logging
import math

import pytest

from repro import obs


# ----------------------------------------------------------------------
# Switch
# ----------------------------------------------------------------------
def test_disabled_by_default(monkeypatch):
    monkeypatch.delenv(obs.OBS_ENV, raising=False)
    assert not obs.enabled()


@pytest.mark.parametrize("value,expected", [
    ("1", True), ("true", True), ("yes", True),
    ("0", False), ("false", False), ("", False), ("off", False),
])
def test_env_switch(monkeypatch, value, expected):
    monkeypatch.setenv(obs.OBS_ENV, value)
    assert obs.enabled() is expected


def test_override_beats_env(monkeypatch):
    monkeypatch.setenv(obs.OBS_ENV, "1")
    with obs.overridden(False):
        assert not obs.enabled()
    assert obs.enabled()


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_span_noop_without_recorder():
    assert obs.active_recorder() is None
    with obs.span("anything") as node:
        assert node is None  # shared null context


def test_span_tree_nesting_and_export():
    recorder = obs.SpanRecorder("run")
    with obs.recording(recorder):
        with obs.span("outer", workload="dfs"):
            with obs.span("inner"):
                pass
            with obs.span("inner2"):
                pass
    assert [s.name for s in recorder.roots] == ["outer"]
    assert [c.name for c in recorder.roots[0].children] == ["inner", "inner2"]
    payload = recorder.to_dict()
    rebuilt = [obs.Span.from_dict(entry) for entry in payload["spans"]]
    assert rebuilt[0].name == "outer"
    assert rebuilt[0].meta == {"workload": "dfs"}
    assert len(rebuilt[0].children) == 2


def test_span_exception_unwind():
    recorder = obs.SpanRecorder()
    with obs.recording(recorder):
        with pytest.raises(RuntimeError):
            with obs.span("outer"):
                with obs.span("inner"):
                    raise RuntimeError("boom")
        with obs.span("after"):
            pass
    assert [s.name for s in recorder.roots] == ["outer", "after"]


def test_chrome_trace_format():
    recorder = obs.SpanRecorder()
    with obs.recording(recorder):
        with obs.span("phase", detail=7):
            pass
    events = recorder.to_chrome_trace(pid=1, tid=2)
    assert len(events) == 1
    event = events[0]
    assert event["ph"] == "X"
    assert event["name"] == "phase"
    assert event["pid"] == 1 and event["tid"] == 2
    assert event["dur"] >= 0
    assert event["args"] == {"detail": "7"}
    json.dumps(events)  # must be JSON-serialisable as-is


def test_recording_restores_previous():
    first = obs.SpanRecorder("first")
    obs.install_recorder(first)
    second = obs.SpanRecorder("second")
    with obs.recording(second):
        assert obs.active_recorder() is second
    assert obs.active_recorder() is first
    obs.install_recorder(None)


# ----------------------------------------------------------------------
# Event ring
# ----------------------------------------------------------------------
def test_event_ring_bounded():
    ring = obs.EventRing(capacity=4)
    for i in range(10):
        ring.record("overflow", at=i, index=i)
    assert ring.dropped == 6
    retained = ring.to_list()
    assert len(retained) == 4
    assert [e["at"] for e in retained] == [6, 7, 8, 9]
    summary = ring.summary()
    assert summary["total"] == 10
    assert summary["retained"] == 4
    assert summary["by_kind"] == {"overflow": 10}


def test_event_ring_jsonl_roundtrip():
    ring = obs.EventRing()
    ring.record("storm", at=5, overflows=40)
    ring.record("flip", at=9, direction="bad")
    events = obs.load_jsonl(ring.to_jsonl())
    assert [e["kind"] for e in events] == ["storm", "flip"]
    assert events[0]["overflows"] == 40


# ----------------------------------------------------------------------
# Time series
# ----------------------------------------------------------------------
def test_timeseries_nan_backfill_and_summary():
    series = obs.TimeSeries(interval=10)
    series.append(10, {"a": 1.0})
    series.append(20, {"a": 2.0, "b": 4.0})
    assert len(series) == 2
    assert math.isnan(series.columns["b"][0])
    summary = series.summary()
    assert summary["a"] == {"mean": 1.5, "min": 1.0, "max": 2.0, "last": 2.0}
    assert summary["b"]["last"] == 4.0


def test_timeseries_npz_roundtrip(tmp_path):
    series = obs.TimeSeries(interval=100, meta={"design": "cosmos"})
    series.append(100, {"hit_rate": 0.5})
    series.append(200, {"hit_rate": 0.75})
    path = series.save(tmp_path / "timeseries.npz")
    assert path.suffix == ".npz"
    loaded = obs.TimeSeries.load(path)
    assert loaded.interval == 100
    assert loaded.meta["design"] == "cosmos"
    assert loaded.axis == [100, 200]
    assert loaded.columns["hit_rate"] == [0.5, 0.75]


def test_sample_interval_env(monkeypatch):
    monkeypatch.setenv("REPRO_OBS_INTERVAL", "2500")
    assert obs.sample_interval() == 2500
    monkeypatch.setenv("REPRO_OBS_INTERVAL", "garbage")
    assert obs.sample_interval() == 10_000
    monkeypatch.setenv("REPRO_OBS_INTERVAL", "-3")
    assert obs.sample_interval() == 1


# ----------------------------------------------------------------------
# Logging
# ----------------------------------------------------------------------
def test_logging_level_env(monkeypatch):
    from repro.obs.log import setup_logging

    monkeypatch.setenv("REPRO_LOG", "debug")
    logger = setup_logging()
    assert logger.level == logging.DEBUG
    monkeypatch.setenv("REPRO_LOG", "warning")
    assert setup_logging().level == logging.WARNING
    # Idempotent: repeated setup installs exactly one handler.
    setup_logging()
    assert len(logger.handlers) == 1


def test_logging_clears_ticker_line(capsys):
    import sys

    from repro.exec.telemetry import ProgressTicker
    from repro.obs.log import get_logger, setup_logging

    setup_logging(level=logging.INFO, stream=sys.stderr, force=True)
    ticker = ProgressTicker(total=3, enabled=True)
    ticker.update(1, 0, 1, force=True)
    get_logger("exec").info("hello from the logger")
    ticker.close()
    err = capsys.readouterr().err
    assert "hello from the logger" in err
    # The ticker line was erased (a \r + spaces wipe) before the record.
    wipe_index = err.index("\r ")
    assert wipe_index < err.index("hello")
