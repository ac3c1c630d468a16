"""Tests for the parallel runner and its worker pool: fallback, retry,
timeout, crash accounting, determinism."""

import os
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.bench import runner as bench_runner
from repro.exec import (
    ExecutionError,
    JobSpec,
    ParallelRunner,
    ResultCache,
    make_spec,
    set_options,
)
from repro.exec.pool import WorkerPool
from repro.sim.config import small_test_config


def make_job(**overrides):
    base = dict(design="np", workload="dfs", config=small_test_config(),
                num_cores=1, trace_length=400, graph_scale=0.02)
    base.update(overrides)
    return JobSpec(**base)


# Stub job functions must live at module top level so the pool can pickle
# them by reference.
def _echo_job(spec):
    return f"done:{spec.design}/{spec.workload}"


def _boom_job(spec):
    raise RuntimeError("synthetic failure")


def _hang_job(spec):
    time.sleep(60)


def _hang_once_job(spec):
    # First attempt: leave a marker and wedge.  Retry: return promptly.
    flag = Path(spec.workload)
    if not flag.exists():
        flag.write_text("attempt 1")
        time.sleep(60)
    return "recovered"


def _crash_job(spec):
    os._exit(3)


def _crash_once_job(spec):
    # Seed 1 crashes its worker on its first attempt; seed 2 works 1.5 s,
    # so it is still running on the same pool when the crash breaks it.
    marker = Path(spec.workload) / "crashed"
    if spec.seed == 1 and not marker.exists():
        time.sleep(0.3)
        marker.write_text("seed 1")
        os._exit(13)
    if spec.seed == 2:
        time.sleep(1.5)
    return f"done:{spec.seed}"


def _wedge_or_work_job(spec):
    # Seed 1 wedges; seeds 2 and 3 work for 1.0 s and 1.5 s.
    time.sleep({1: 60, 2: 1.0, 3: 1.5}[spec.seed])
    return f"done:{spec.seed}"


@pytest.fixture
def quick_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_LEN", "2000")
    monkeypatch.setenv("REPRO_GRAPH_SCALE", "0.02")
    monkeypatch.setattr(bench_runner, "CACHE_DIR", tmp_path / "traces")
    bench_runner._MEMORY_CACHE.clear()
    bench_runner._RESULT_CACHE.clear()
    yield
    bench_runner._MEMORY_CACHE.clear()
    bench_runner._RESULT_CACHE.clear()


# ----------------------------------------------------------------------
# Serial execution and retries
# ----------------------------------------------------------------------
def test_serial_executes_in_process():
    spec = make_job()
    out = ParallelRunner(jobs=1, fn=_echo_job, ticker=False).run([spec])
    assert out[spec.content_hash()] == "done:np/dfs"


def test_duplicate_specs_collapse_to_one_job():
    calls = []

    def counting(spec):
        calls.append(spec.design)
        return "ok"

    spec = make_job()
    runner = ParallelRunner(jobs=1, fn=counting, ticker=False)
    out = runner.run([spec, make_job(), spec])
    assert calls == ["np"]
    assert len(out) == 1
    assert runner.report.total == 1
    assert runner.report.duplicates == 2
    assert "2 deduped" in runner.report.summary_line()


def test_jobs_source_and_duplicates_land_in_the_manifest(tmp_path):
    import json

    runner = ParallelRunner(jobs=1, fn=_echo_job, ticker=False,
                            jobs_source="auto",
                            manifest_dir=tmp_path / "manifests")
    spec = make_job()
    runner.run([spec, make_job(design="morphctr"), spec])
    manifest = json.loads(runner.report.manifest_path.read_text())
    assert manifest["jobs_source"] == "auto"
    assert manifest["totals"]["duplicates"] == 1
    assert manifest["totals"]["jobs"] == 2


def test_retry_then_success():
    attempts = []

    def flaky(spec):
        attempts.append(1)
        if len(attempts) < 3:
            raise RuntimeError("transient")
        return "ok"

    spec = make_job()
    runner = ParallelRunner(jobs=1, retries=2, fn=flaky, ticker=False)
    out = runner.run([spec])
    assert out[spec.content_hash()] == "ok"
    assert len(attempts) == 3
    record = runner.report.records[0]
    assert record.status == "ok" and record.attempts == 3


def test_retries_exhausted_raises_execution_error():
    runner = ParallelRunner(jobs=1, retries=1, fn=_boom_job, ticker=False)
    with pytest.raises(ExecutionError) as excinfo:
        runner.run([make_job()])
    assert "synthetic failure" in str(excinfo.value)
    assert runner.report.failed == 1
    assert runner.report.records[0].attempts == 2  # 1 try + 1 retry


def test_non_strict_returns_partial_results():
    def half(spec):
        if spec.design == "np":
            raise RuntimeError("nope")
        return "ok"

    good, bad = make_job(design="morphctr"), make_job(design="np")
    runner = ParallelRunner(jobs=1, retries=0, fn=half, strict=False, ticker=False)
    out = runner.run([good, bad])
    assert out == {good.content_hash(): "ok"}


# ----------------------------------------------------------------------
# Cache integration
# ----------------------------------------------------------------------
def test_cache_short_circuits_execution(quick_env, tmp_path):
    spec = make_spec("np", "dfs", config=small_test_config(), num_cores=1,
                     max_accesses=400)
    cache = ResultCache(tmp_path / "results")
    first = ParallelRunner(jobs=1, cache=cache, ticker=False)
    out1 = first.run([spec])
    assert first.report.cache_hits == 0

    second = ParallelRunner(jobs=1, cache=ResultCache(tmp_path / "results"),
                            ticker=False)
    out2 = second.run([spec])
    assert second.report.cache_hits == 1
    assert second.report.cache_hit_rate == 1.0
    digest = spec.content_hash()
    assert out2[digest] == out1[digest]  # metric-identical after round-trip


# ----------------------------------------------------------------------
# Pool mode: timeout and recovery
# ----------------------------------------------------------------------
def test_timeout_kills_hung_job():
    runner = ParallelRunner(jobs=2, timeout=0.3, retries=0, fn=_hang_job,
                            ticker=False)
    started = time.monotonic()
    with pytest.raises(ExecutionError):
        runner.run([make_job()])
    assert time.monotonic() - started < 30  # did not wait for the sleep
    record = runner.report.records[0]
    assert record.status == "timeout"
    assert "timeout" in record.error


def test_timeout_then_retry_recovers(tmp_path):
    flag = tmp_path / "attempted.flag"
    spec = make_job(workload=str(flag))
    runner = ParallelRunner(jobs=2, timeout=1.0, retries=1, fn=_hang_once_job,
                            ticker=False)
    out = runner.run([spec])
    assert out[spec.content_hash()] == "recovered"
    record = runner.report.records[0]
    assert record.status == "ok" and record.attempts == 2


def test_worker_crash_is_reported_as_a_crash():
    runner = ParallelRunner(jobs=2, timeout=3.0, retries=1, fn=_crash_job,
                            ticker=False)
    with pytest.raises(ExecutionError, match="crashed"):
        runner.run([make_job()])
    record = runner.report.records[0]
    assert record.status == "failed" and record.attempts == 2
    assert "worker crashed" in record.error


def test_crash_beside_a_running_job_charges_both_one_attempt(tmp_path):
    specs = [make_job(workload=str(tmp_path), seed=seed) for seed in (1, 2)]
    runner = ParallelRunner(jobs=2, timeout=30.0, retries=1,
                            fn=_crash_once_job, ticker=False)
    out = runner.run(specs)
    assert out == {spec.content_hash(): f"done:{spec.seed}" for spec in specs}
    # The crash broke both jobs' pool: each is charged an attempt and
    # succeeds on its retry.
    assert [(record.status, record.attempts)
            for record in runner.report.records] == [("ok", 2), ("ok", 2)]


def test_pool_judges_every_report_from_a_crashed_generation():
    pool = WorkerPool(2)
    try:
        crash, crashed = pool.submit(_crash_job, make_job(seed=1))
        beside, same = pool.submit(_hang_job, make_job(seed=2))
        assert same is crashed
        for future in (crash, beside):
            with pytest.raises(BrokenProcessPool):
                future.result(timeout=30)
        # The first report retires the crashed generation.
        assert pool.crashed(crashed)
        benign, replacement = pool.submit(_echo_job, make_job(seed=3))
        assert replacement is not crashed
        # A later report from it is still a crash, and the replacement
        # stays current.
        assert pool.crashed(crashed)
        _, again = pool.submit(_echo_job, make_job(seed=4))
        assert again is replacement
        assert benign.result(timeout=30) == "done:np/dfs"
    finally:
        pool.close()


def test_job_killed_beside_a_timeout_reruns_without_an_attempt():
    # Seed 3 starts when seed 2 finishes (t=1.0) and is still running when
    # seed 1 times out (t=2.0), so the kill takes it down too.
    wedged, short, killed = (make_job(seed=s) for s in (1, 2, 3))
    runner = ParallelRunner(jobs=2, timeout=2.0, retries=0,
                            fn=_wedge_or_work_job, strict=False, ticker=False)
    out = runner.run([wedged, short, killed])
    assert out == {short.content_hash(): "done:2",
                   killed.content_hash(): "done:3"}
    records = {record.job_hash: record for record in runner.report.records}
    assert records[wedged.content_hash()].status == "timeout"
    assert records[killed.content_hash()].status == "ok"
    assert records[killed.content_hash()].attempts == 1


def test_refused_fork_falls_back_to_serial(monkeypatch):
    def refuse():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", refuse)
    spec = make_job()
    runner = ParallelRunner(jobs=2, fn=_echo_job, ticker=False)
    assert runner.run([spec]) == {spec.content_hash(): "done:np/dfs"}
    assert runner.report.mode == "serial"


def test_pool_mode_runs_real_jobs(quick_env):
    specs = [make_spec(design, "dfs", config=small_test_config(), num_cores=1,
                       max_accesses=400)
             for design in ("np", "morphctr")]
    runner = ParallelRunner(jobs=2, ticker=False)
    out = runner.run(specs)
    assert len(out) == 2
    assert runner.report.mode == "pool"
    assert all(record.status == "ok" for record in runner.report.records)


# ----------------------------------------------------------------------
# Determinism: parallel == serial, metric for metric
# ----------------------------------------------------------------------
def test_parallel_results_identical_to_serial(quick_env):
    designs, workloads = ["np", "morphctr"], ["dfs"]
    set_options(jobs=1, use_cache=False)
    serial = bench_runner.run_design_matrix(designs, workloads)
    bench_runner._RESULT_CACHE.clear()
    set_options(jobs=2)
    parallel = bench_runner.run_design_matrix(designs, workloads)
    for workload in workloads:
        for design in designs:
            assert parallel[workload][design].to_dict() == \
                serial[workload][design].to_dict()


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
def test_manifest_written_and_machine_readable(tmp_path):
    import json

    runner = ParallelRunner(jobs=1, fn=_echo_job, ticker=False,
                            manifest_dir=tmp_path / "manifests")
    runner.run([make_job(), make_job(design="morphctr")])
    path = runner.report.manifest_path
    assert path is not None and path.exists()
    manifest = json.loads(path.read_text())
    assert manifest["totals"]["jobs"] == 2
    assert manifest["totals"]["failed"] == 0
    assert {job["design"] for job in manifest["jobs"]} == {"np", "morphctr"}
    assert 0.0 <= manifest["totals"]["worker_utilisation"] <= 1.0
