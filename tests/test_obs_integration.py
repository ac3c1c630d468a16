"""Integration tests: observability wired through sim, exec and the CLI.

The two contracts the tentpole promises:

* **on**: a run emits per-job span trees, a windowed time-series with at
  least four signals, a valid Chrome-trace JSON and a v2 run manifest;
* **off**: simulation metrics are byte-identical to an instrumented run
  and nothing is written — the golden-metrics suite plus the perf budget
  keep the hot path honest.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.exec import (
    MANIFEST_VERSION,
    JobSpec,
    ParallelRunner,
    ProgressTicker,
    ResultCache,
    RunReport,
    load_manifest,
)
from repro.obs.artifacts import (
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


# ----------------------------------------------------------------------
# Manifest v2
# ----------------------------------------------------------------------
def _stub_spec():
    return JobSpec(design="morphctr", workload="mlp", num_cores=1,
                   trace_length=64, config=small_test_config(num_cores=1))


def test_manifest_v2_roundtrip(tmp_path):
    report = RunReport(jobs_requested=2, workers=2, mode="pool")
    report.wall_time = 1.5
    report.metrics = {"exec.jobs_total": 3.0}
    report.spans = {"name": "exec.run", "total_s": 1.4,
                    "spans": [{"name": "execute", "start_s": 0.0,
                               "duration_s": 1.4}]}
    path = report.write_manifest(tmp_path)
    assert path is not None
    payload = json.loads(path.read_text())
    assert payload["manifest_version"] == MANIFEST_VERSION == 2
    loaded = load_manifest(path)
    assert loaded.metrics == {"exec.jobs_total": 3.0}
    assert loaded.spans["spans"][0]["name"] == "execute"
    assert loaded.mode == "pool"
    assert loaded.wall_time == 1.5


def test_manifest_v1_still_readable(tmp_path):
    v1 = {
        "manifest_version": 1,
        "jobs_requested": 1,
        "workers": 1,
        "mode": "serial",
        "totals": {"jobs": 1, "wall_time_s": 0.2},
        "jobs": [{"job_hash": "abc", "design": "np", "workload": "mlp",
                  "status": "ok", "attempts": 1, "wall_time_s": 0.2}],
    }
    path = tmp_path / "run-old.json"
    path.write_text(json.dumps(v1))
    report = load_manifest(path)
    assert report.spans is None
    assert report.metrics == {}
    assert report.records[0].design == "np"
    assert report.total == 1


def test_manifest_unknown_keys_are_ignored():
    """Manifests carrying keys of retired options still load."""
    report = RunReport.from_dict({
        "manifest_version": 2, "jobs_requested": 2, "retired_option": "x",
        "totals": {"jobs": 0},
    })
    assert report.jobs_requested == 2
    assert "retired_option" not in report.to_dict()


def test_manifest_future_version_rejected():
    with pytest.raises(ValueError):
        RunReport.from_dict({"manifest_version": 99})


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
    # Metrics snapshot rode into the manifest.
    assert report.metrics["exec.jobs_total"] == 1.0
    assert "exec.job_wall_time_s" in report.metrics
    # The run got a trace-context identity, recorded in the manifest.
    assert report.run_id and report.run_id.startswith("run-")
    # Merged Chrome-trace sibling: complete events plus metadata events
    # carrying the run_id and per-process names.
    assert report.trace == report.manifest_path.with_suffix(".trace.json").name
    trace_path = report.manifest_path.with_suffix(".trace.json")
    events = json.loads(trace_path.read_text())
    assert isinstance(events, list) and events
    assert {e["ph"] for e in events} <= {"X", "M"}
    assert any(e["ph"] == "X" for e in events)
    run_meta = [e for e in events
                if e["ph"] == "M" and e["name"] == "run_id"]
    assert run_meta and run_meta[0]["args"]["run_id"] == report.run_id
    # Per-job artifacts landed under <cache>/obs/<hash16>/.
    jobs = list_jobs(obs_root(tmp_path))
    assert len(jobs) == 1
    meta = load_job_meta(jobs[0])
    assert meta["design"] == "morphctr"
    assert meta["samples"] >= 1
    assert len(meta["signals"]) >= 4
    # The job's own span tree holds the fine-grained phases.
    job_span_names = {s["name"] for s in meta["spans"]["spans"]}
    assert {"trace_gen", "simulate"} <= job_span_names
    job_trace = json.loads((jobs[0] / "spans.trace.json").read_text())
    assert any(e["name"] == "sim.run" for e in job_trace)


def test_merged_trace_spans_worker_processes(tmp_path, monkeypatch):
    """A --jobs 2 sweep merges into ONE trace holding every process's spans.

    The orchestrator's spans carry its own pid; each job's spans carry the
    pid of the pool worker that executed it; and a single run_id metadata
    event ties them together — the cross-process propagation contract.
    """
    monkeypatch.setenv("REPRO_OBS", "1")
    monkeypatch.setenv("REPRO_OBS_INTERVAL", "50")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    specs = [JobSpec(design=design, workload="mlp", num_cores=1,
                     trace_length=64, config=small_test_config(num_cores=1))
             for design in ("np", "morphctr", "cosmos")]
    runner = ParallelRunner(jobs=2, cache=ResultCache(tmp_path / "results"),
                            manifest_dir=tmp_path / "manifests", ticker=False)
    results = runner.run(specs)
    assert len(results) == 3
    report = runner.report
    if report.mode not in ("pool", "pool+serial"):
        pytest.skip(f"no process pool in this environment ({report.mode})")

    trace_path = report.manifest_path.with_suffix(".trace.json")
    assert report.trace == trace_path.name
    events = json.loads(trace_path.read_text())
    complete = [e for e in events if e["ph"] == "X"]
    orchestrator_pid = os.getpid()
    worker_pids = {e["pid"] for e in complete} - {orchestrator_pid}
    # Orchestrator spans plus at least one distinct worker process.
    assert orchestrator_pid in {e["pid"] for e in complete}
    assert worker_pids, "no spans attributed to worker processes"
    # One run_id names the whole merged trace.
    run_meta = [e for e in events if e["ph"] == "M" and e["name"] == "run_id"]
    assert len(run_meta) == 1
    assert run_meta[0]["args"]["run_id"] == report.run_id
    # Every worker pid got a process_name metadata event.
    named = {e["pid"] for e in events
             if e["ph"] == "M" and e["name"] == "process_name"
             and str(e["args"]["name"]).startswith("worker pid")}
    assert named == worker_pids
    # Job spans are labelled with the run for trace-viewer filtering.
    worker_spans = [e for e in complete if e["pid"] in worker_pids]
    assert all(e["args"]["run_id"] == report.run_id for e in worker_spans)
    # And the job artifacts themselves recorded the propagated identity.
    for job in list_jobs(obs_root(tmp_path)):
        meta = load_job_meta(job)
        assert meta["run_id"] == report.run_id
        assert meta["origin"] == "exec.run"
        assert meta["pid"] != orchestrator_pid


def test_runner_writes_nothing_when_disabled(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache = ResultCache(tmp_path / "results")
    manifest_dir = tmp_path / "manifests"
    runner = ParallelRunner(jobs=1, cache=cache, manifest_dir=manifest_dir,
                            ticker=False)
    runner.run([_stub_spec()])
    assert runner.report.spans is None
    assert runner.report.metrics == {}
    assert not obs_root(tmp_path).exists()
    manifest = json.loads(runner.report.manifest_path.read_text())
    assert manifest["manifest_version"] == 2
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
