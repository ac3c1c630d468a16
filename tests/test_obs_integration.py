"""Integration tests: observability wired through sim, exec and the CLI.

The two contracts the tentpole promises:

* **on**: a run emits per-job span trees, a windowed time-series with at
  least four signals, a valid Chrome-trace JSON and a run manifest holding
  the orchestrator's span tree;
* **off**: simulation metrics are byte-identical to an instrumented run
  and nothing is written — the golden-metrics suite plus the perf budget
  keep the hot path honest.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.exec import (
    MANIFEST_VERSION,
    JobSpec,
    ParallelRunner,
    ProgressTicker,
    ResultCache,
    RunReport,
    run_job,
)
from repro.obs.artifacts import (
    latest_manifest,
    list_jobs,
    load_job_meta,
    obs_root,
    write_job_artifacts,
)
from repro.sim.config import small_test_config
from repro.sim.simulator import Simulator, build_design
from repro.workloads.micro import zipf_trace


def _run_simulator(design_name: str, n: int = 4000):
    config = small_test_config(num_cores=1)
    trace = zipf_trace(n=n, seed=7, write_fraction=0.4)
    simulator = Simulator(build_design(design_name, config), config, workload="zipf")
    result = simulator.run(trace.arrays())
    return simulator, result


# ----------------------------------------------------------------------
# Simulator sampling
# ----------------------------------------------------------------------
def test_sampler_absent_when_disabled():
    simulator, _ = _run_simulator("cosmos")
    assert simulator.sampler is None


def test_sampler_collects_signals_when_enabled(monkeypatch):
    monkeypatch.setenv("REPRO_OBS", "1")
    monkeypatch.setenv("REPRO_OBS_INTERVAL", "500")
    simulator, result = _run_simulator("cosmos")
    sampler = simulator.sampler
    assert sampler is not None
    series = sampler.series
    assert len(series) >= 8  # 4000 accesses / 500-window
    # The acceptance bar: at least four distinct windowed signals.
    assert len(series.signals) >= 4
    for expected in ("ctr_hit_rate", "mt_verify_depth",
                     "dram_row_hit_rate", "latency_per_access"):
        assert expected in series.signals
    # Cosmos designs add RL probes on top of the windowed rates.
    assert "rl_epsilon_d" in series.signals or "rl_epsilon_c" in series.signals
    assert series.axis[-1] == result.accesses


def test_sampler_rides_alongside_user_hook(monkeypatch):
    monkeypatch.setenv("REPRO_OBS", "1")
    monkeypatch.setenv("REPRO_OBS_INTERVAL", "1000")
    config = small_test_config(num_cores=1)
    trace = zipf_trace(n=3000, seed=7, write_fraction=0.4)
    seen = []
    simulator = Simulator(build_design("morphctr", config), config)
    simulator.run(trace.arrays(),
                  progress_hook=lambda done, sim: seen.append(done),
                  progress_interval=1500)
    assert seen == [1500, 3000]
    assert simulator.sampler is not None
    assert simulator.sampler.series.axis == [1000, 2000, 3000]


def test_engine_overflow_events_reach_ring(monkeypatch):
    monkeypatch.setenv("REPRO_OBS", "1")
    monkeypatch.setenv("REPRO_OBS_INTERVAL", "500")
    simulator, _ = _run_simulator("morphctr", n=6000)
    ring = simulator.sampler.events
    overflow_events = [e for e in ring.to_list() if e["kind"] == "ctr_overflow"]
    if simulator.design.engine.events.ctr_overflows > 0:
        assert overflow_events, "overflows occurred but no events recorded"
        assert all("ctr_index" in e for e in overflow_events)


# ----------------------------------------------------------------------
# Golden: obs on == obs off, metric-for-metric
# ----------------------------------------------------------------------
@pytest.mark.parametrize("design_name", ["np", "morphctr", "cosmos"])
def test_metrics_identical_with_and_without_obs(monkeypatch, design_name):
    monkeypatch.delenv("REPRO_OBS", raising=False)
    _, baseline = _run_simulator(design_name)
    obs.reset()
    monkeypatch.setenv("REPRO_OBS", "1")
    monkeypatch.setenv("REPRO_OBS_INTERVAL", "500")
    _, observed = _run_simulator(design_name)
    a = json.dumps(baseline.to_dict(), sort_keys=True)
    b = json.dumps(observed.to_dict(), sort_keys=True)
    assert a == b, f"observability perturbed {design_name} metrics"


def _stub_spec(design: str = "morphctr"):
    return JobSpec(design=design, workload="mlp", num_cores=1,
                   trace_length=64, config=small_test_config(num_cores=1))


@pytest.mark.parametrize("design_name", ["np", "morphctr", "cosmos"])
def test_run_job_payload_identical_with_and_without_obs(
        tmp_path, monkeypatch, design_name):
    """The worker's one code path: observing a job changes no metric."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    spec = _stub_spec(design_name)
    baseline = run_job(spec)
    assert not obs_root(tmp_path).exists()
    monkeypatch.setenv("REPRO_OBS", "1")
    monkeypatch.setenv("REPRO_OBS_INTERVAL", "16")
    observed = run_job(spec)
    assert len(list_jobs(obs_root(tmp_path))) == 1
    a = json.dumps(baseline.to_dict(), sort_keys=True)
    b = json.dumps(observed.to_dict(), sort_keys=True)
    assert a == b, f"observability perturbed {design_name} run_job payload"


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
def test_latest_manifest_is_the_last_written(tmp_path):
    spans = {"name": "exec.run", "total_s": 1.4,
             "spans": [{"name": "execute", "start_s": 0.0, "duration_s": 1.4}]}
    for count in range(1, 21):
        report = RunReport(jobs_requested=count, spans=spans)
        path = report.write_manifest(tmp_path)
        assert latest_manifest(tmp_path) == path
        payload = json.loads(path.read_text())
        assert payload["manifest_version"] == MANIFEST_VERSION == 3
        assert payload["jobs_requested"] == count
        assert payload["spans"] == spans
    assert len(list(tmp_path.glob("run-*.json"))) == 20


# ----------------------------------------------------------------------
# Runner end-to-end with observability
# ----------------------------------------------------------------------
def test_runner_emits_spans_metrics_and_trace(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_OBS", "1")
    monkeypatch.setenv("REPRO_OBS_INTERVAL", "200")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache = ResultCache(tmp_path / "results")
    manifest_dir = tmp_path / "manifests"
    runner = ParallelRunner(jobs=1, cache=cache, manifest_dir=manifest_dir,
                            ticker=False)
    results = runner.run([_stub_spec()])
    assert len(results) == 1
    report = runner.report
    # Span tree: exec.run -> cache_probe / execute -> job -> sim phases.
    assert report.spans is not None
    names = [s["name"] for s in report.spans["spans"]]
    assert names == ["cache_probe", "execute"]
    job_spans = report.spans["spans"][1]["children"]
    assert job_spans and job_spans[0]["name"] == "job"
    # The manifest carries the span tree and no registry or merge keys.
    manifest = json.loads(report.manifest_path.read_text())
    assert manifest["spans"] == report.spans
    assert not {"metrics", "run_id", "pid", "trace"} & set(manifest)
    assert not report.manifest_path.with_suffix(".trace.json").exists()
    # Per-job artifacts landed under <cache>/obs/<hash16>/.
    jobs = list_jobs(obs_root(tmp_path))
    assert len(jobs) == 1
    meta = load_job_meta(jobs[0])
    assert meta["design"] == "morphctr"
    assert not {"pid", "run_id", "origin"} & set(meta)
    assert meta["samples"] >= 1
    assert len(meta["signals"]) >= 4
    # The job's own span tree holds the fine-grained phases.
    job_span_names = {s["name"] for s in meta["spans"]["spans"]}
    assert {"trace_gen", "simulate"} <= job_span_names
    job_trace = json.loads((jobs[0] / "spans.trace.json").read_text())
    assert any(e["name"] == "sim.run" for e in job_trace)


def test_runner_writes_nothing_when_disabled(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache = ResultCache(tmp_path / "results")
    manifest_dir = tmp_path / "manifests"
    runner = ParallelRunner(jobs=1, cache=cache, manifest_dir=manifest_dir,
                            ticker=False)
    runner.run([_stub_spec()])
    assert runner.report.spans is None
    assert not obs_root(tmp_path).exists()
    manifest = json.loads(runner.report.manifest_path.read_text())
    assert manifest["manifest_version"] == MANIFEST_VERSION
    assert manifest["spans"] is None


# ----------------------------------------------------------------------
# Artifacts helper
# ----------------------------------------------------------------------
def test_write_job_artifacts_best_effort(tmp_path):
    recorder = obs.SpanRecorder("job")
    with obs.recording(recorder):
        with obs.span("simulate"):
            pass
    ring = obs.EventRing()
    ring.record("ctr_overflow", at=3)
    written = write_job_artifacts(tmp_path / "obs", "deadbeef" * 8,
                                  recorder=recorder, events=ring,
                                  meta={"design": "np"})
    assert set(written) == {"trace", "events", "meta"}
    meta = load_job_meta(written["meta"].parent)
    assert meta["design"] == "np"
    assert meta["events"]["total"] == 1
    # Unwritable root degrades to in-memory only, never raises.
    blocked = tmp_path / "file-not-dir"
    blocked.write_text("x")
    assert write_job_artifacts(blocked / "obs", "ff" * 32,
                               recorder=recorder) == {}


# ----------------------------------------------------------------------
# Ticker behaviour
# ----------------------------------------------------------------------
def test_ticker_clamps_to_terminal_width(monkeypatch, capsys):
    monkeypatch.setattr(ProgressTicker, "_columns", staticmethod(lambda: 40))
    ticker = ProgressTicker(total=123456789, enabled=True)
    ticker.update(12345678, 9999999, 88, force=True)
    out = capsys.readouterr().err
    drawn = out.rsplit("\r", 1)[-1]
    assert len(drawn) <= 39
    assert drawn.endswith("…") or len(drawn) < 39
    ticker.close()


def test_ticker_close_logs_summary_even_when_disabled(capsys):
    import logging
    import sys

    from repro.obs.log import setup_logging

    setup_logging(level=logging.INFO, stream=sys.stderr, force=True)
    ticker = ProgressTicker(total=2, enabled=False)
    ticker.update(1, 0, 1)  # no-op while disabled
    ticker.close(summary="2 jobs in 0.1s · done")
    err = capsys.readouterr().err
    assert "2 jobs in 0.1s · done" in err
    assert "\r" not in err  # nothing was ever drawn live
