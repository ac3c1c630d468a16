"""End-to-end tests for the experiment service.

Most tests run the real asyncio server on a background thread with the
``thread`` executor and stub job functions (closures are fine without
pickling), talking to it over real TCP sockets.  One test drives real
simulations through the full stack and checks the served results are
identical to a local :class:`ParallelRunner`; the worker-failure tests
run the process pool with module-level stub jobs that read their result
from a file.
"""

import json
import os
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.bench import runner as bench_runner
from repro.exec import JobSpec, ParallelRunner, ResultCache, make_spec, set_options
from repro.serve import (
    MAX_FRAME_BYTES,
    ExperimentServer,
    JobsFailed,
    ServeClient,
    ServeUnavailable,
    ServerThread,
    encode_frame,
)
from repro.sim.config import small_test_config
from repro.sim.results import SimulationResult
from repro.sim.simulator import simulate


def make_job(**overrides):
    base = dict(design="np", workload="dfs", config=small_test_config(),
                num_cores=1, trace_length=400, graph_scale=0.02)
    base.update(overrides)
    return JobSpec(**base)


@pytest.fixture(scope="module")
def tiny_result(dfs_trace):
    """One real SimulationResult reused as the stub jobs' payload."""
    return simulate("np", dfs_trace, small_test_config(num_cores=1),
                    workload="dfs")


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


def _crash_job(spec):  # must be top-level: the process pool pickles it
    os._exit(13)


# The stub jobs below run in pool workers; ``spec.workload`` names a
# directory holding the result they return and their marker files.
def _store_result(directory, result):
    (directory / "result.json").write_text(json.dumps(result.to_dict()))


def _stored_result(spec):
    path = Path(spec.workload) / "result.json"
    return SimulationResult.from_dict(json.loads(path.read_text()))


def _crash_once_job(spec):
    # Seed 1 crashes its worker on its first attempt; seed 2 works 1.5 s.
    marker = Path(spec.workload) / "crashed"
    if spec.seed == 1 and not marker.exists():
        time.sleep(0.3)
        marker.write_text("seed 1")
        os._exit(13)
    if spec.seed == 2:
        time.sleep(1.5)
    return _stored_result(spec)


def _crash_seed_1_job(spec):
    if spec.seed == 1:
        os._exit(13)
    return _stored_result(spec)


def _wedge_seed_1_job(spec):
    # Seed 1 leaves a marker and wedges; any other seed works 1.5 s.
    if spec.seed == 1:
        (Path(spec.workload) / "wedged").write_text("seed 1")
        time.sleep(60)
    time.sleep(1.5)
    return _stored_result(spec)


def counter_value(stats, name):
    return int(stats["counters"].get(name, 0))


# ----------------------------------------------------------------------
# Real simulations through the full stack
# ----------------------------------------------------------------------
def test_served_results_identical_to_local_runner(quick_env, tmp_path):
    specs = [make_spec(design, "dfs", config=small_test_config(), num_cores=1,
                       max_accesses=400)
             for design in ("np", "morphctr")]
    local = ParallelRunner(jobs=1, cache=None, ticker=False).run(specs)

    server = ExperimentServer(cache=ResultCache(tmp_path / "results"),
                              jobs=2, executor="thread")
    with ServerThread(server):
        with ServeClient(port=server.port, timeout=120) as client:
            results, manifest = client.submit(specs)
        assert manifest["totals"]["failed"] == 0
        assert manifest["mode"] == "serve"
        for spec in specs:
            digest = spec.content_hash()
            assert results[digest].to_dict() == local[digest].to_dict()

        # Warm rerun from a second client: 100% cache hits, no execution.
        with ServeClient(port=server.port, timeout=120) as client:
            rerun, manifest2 = client.submit(specs)
            stats = client.stats()
        assert manifest2["totals"]["cache_hit_rate"] == 1.0
        assert counter_value(stats, "serve.jobs_executed") == len(specs)
        for spec in specs:
            digest = spec.content_hash()
            assert rerun[digest].to_dict() == local[digest].to_dict()


def test_run_design_matrix_routes_through_service(quick_env, tmp_path):
    config = small_test_config()
    local = bench_runner.run_design_matrix(
        ["np"], ["dfs"], config=config, num_cores=1, max_accesses=400,
        use_cache=False)

    server = ExperimentServer(cache=ResultCache(tmp_path / "results"),
                              jobs=1, executor="thread")
    with ServerThread(server):
        set_options(serve=f"127.0.0.1:{server.port}")
        served = bench_runner.run_design_matrix(
            ["np"], ["dfs"], config=config, num_cores=1, max_accesses=400)
        stats_client = ServeClient(port=server.port)
        with stats_client:
            stats = stats_client.stats()
    assert served["dfs"]["np"].to_dict() == local["dfs"]["np"].to_dict()
    assert counter_value(stats, "serve.jobs_executed") == 1


# ----------------------------------------------------------------------
# Dedupe
# ----------------------------------------------------------------------
def test_duplicates_within_one_submit_execute_once(tiny_result, tmp_path):
    calls = []
    lock = threading.Lock()

    def fn(spec):
        with lock:
            calls.append(spec.seed)
        return tiny_result

    server = ExperimentServer(cache=ResultCache(tmp_path / "results"),
                              jobs=2, executor="thread", fn=fn)
    specs = [make_job(seed=1), make_job(seed=2), make_job(seed=1)]
    with ServerThread(server):
        with ServeClient(port=server.port) as client:
            results, manifest = client.submit(specs)
            ordered = [results[s.content_hash()] for s in specs]
    assert sorted(calls) == [1, 2]
    assert manifest["totals"]["duplicates"] == 1
    assert len(results) == 2 and len(ordered) == 3


def test_inflight_dedupe_across_clients(tiny_result, tmp_path):
    gate = threading.Event()
    entered = threading.Event()

    def fn(spec):
        entered.set()
        assert gate.wait(timeout=30)
        return tiny_result

    server = ExperimentServer(cache=ResultCache(tmp_path / "results"),
                              jobs=1, executor="thread", fn=fn)
    spec = make_job()
    outcomes = {}

    def submit(label):
        with ServeClient(port=server.port, timeout=60) as client:
            results, _ = client.submit([spec])
            outcomes[label] = results[spec.content_hash()]

    with ServerThread(server):
        first = threading.Thread(target=submit, args=("a",))
        first.start()
        assert entered.wait(timeout=10)  # the job is now in flight
        second = threading.Thread(target=submit, args=("b",))
        second.start()
        time.sleep(0.2)  # let the second submit join the in-flight entry
        gate.set()
        first.join(timeout=30)
        second.join(timeout=30)
        with ServeClient(port=server.port) as client:
            stats = client.stats()
    assert outcomes["a"].to_dict() == outcomes["b"].to_dict()
    assert counter_value(stats, "serve.jobs_executed") == 1
    assert counter_value(stats, "serve.dedup_joined") >= 1


# ----------------------------------------------------------------------
# Cache fast path
# ----------------------------------------------------------------------
def test_cache_hits_never_touch_a_worker(tiny_result, tmp_path):
    spec = make_job()
    cache = ResultCache(tmp_path / "results")
    assert cache.put(spec, tiny_result)

    def fn(_spec):  # would fail the test if the server executed anything
        raise AssertionError("cache hit must not reach a worker")

    server = ExperimentServer(cache=cache, jobs=1, executor="thread", fn=fn)
    with ServerThread(server):
        with ServeClient(port=server.port) as client:
            results, manifest = client.submit([spec])
            stats = client.stats()
    assert results[spec.content_hash()].to_dict() == tiny_result.to_dict()
    assert manifest["totals"]["cache_hit_rate"] == 1.0
    assert counter_value(stats, "serve.jobs_executed") == 0
    assert counter_value(stats, "serve.cache_hits") == 1


# ----------------------------------------------------------------------
# Back-pressure
# ----------------------------------------------------------------------
def test_oversubscribed_burst_is_shed_and_recovers(tiny_result, tmp_path):
    gate = threading.Event()
    entered = threading.Event()

    def fn(spec):
        if spec.workload != "warm":
            entered.set()
            assert gate.wait(timeout=30)
        return tiny_result

    server = ExperimentServer(cache=None, jobs=1, executor="thread", fn=fn,
                              queue_limit=2)

    def submit(seeds):
        with ServeClient(port=server.port, timeout=60) as client:
            client.submit([make_job(seed=s) for s in seeds])

    with ServerThread(server):
        with ServeClient(port=server.port, timeout=60) as warm:
            # One fast job first, so retry_after estimates use a real mean.
            warm.submit([make_job(workload="warm")])
        first = threading.Thread(target=submit, args=([1],))
        first.start()
        assert entered.wait(timeout=10)  # seed 1 occupies the only worker
        second = threading.Thread(target=submit, args=([2, 3],))
        second.start()
        time.sleep(0.3)  # seeds 2 and 3 queue up: the queue is now full
        with ServeClient(port=server.port) as probe:
            stats_full = probe.stats()
            with pytest.raises(ServeUnavailable, match="queue full"):
                ServeClient(port=server.port, timeout=60,
                            attempts=2).submit([make_job(seed=9)])
            stats_after = probe.stats()
            threading.Timer(0.4, gate.set).start()
            late = ServeClient(port=server.port, timeout=60, attempts=50)
            with late:
                results, _ = late.submit([make_job(seed=9)])
        first.join(timeout=30)
        second.join(timeout=30)
    assert stats_full["queue_depth"] == 2  # bounded under the burst
    assert counter_value(stats_after, "serve.submits_rejected") >= 2
    assert make_job(seed=9).content_hash() in results


# ----------------------------------------------------------------------
# Failure handling
# ----------------------------------------------------------------------
def test_worker_exception_reports_failure(tmp_path):
    def fn(spec):
        raise RuntimeError("synthetic failure")

    server = ExperimentServer(cache=None, jobs=1, executor="thread", fn=fn,
                              retries=1)
    with ServerThread(server):
        with ServeClient(port=server.port) as client:
            with pytest.raises(JobsFailed, match="synthetic failure") as info:
                client.submit([make_job()])
            stats = client.stats()
    assert len(info.value.failures) == 1
    assert counter_value(stats, "serve.jobs_failed") == 1


def test_timeout_fails_job_and_server_stays_up(tiny_result, tmp_path):
    def fn(spec):
        if spec.seed == 1:
            time.sleep(3)
        return tiny_result

    server = ExperimentServer(cache=None, jobs=1, executor="thread", fn=fn,
                              timeout=0.2, retries=0)
    with ServerThread(server):
        with ServeClient(port=server.port, timeout=30) as client:
            with pytest.raises(JobsFailed, match="timeout"):
                client.submit([make_job(seed=1)])
            # The wedged worker was reclaimed: new jobs still execute.
            results, _ = client.submit([make_job(seed=2)])
            stats = client.stats()
    assert make_job(seed=2).content_hash() in results
    assert counter_value(stats, "serve.jobs_timeout") == 1


def test_worker_crash_fails_job_but_cache_still_serves(tiny_result, tmp_path):
    spec_ok = make_job(seed=2)
    cache = ResultCache(tmp_path / "results")
    assert cache.put(spec_ok, tiny_result)

    server = ExperimentServer(cache=cache, jobs=1, executor="process",
                              fn=_crash_job, retries=0, timeout=30)
    with ServerThread(server):
        with ServeClient(port=server.port, timeout=60) as client:
            with pytest.raises(JobsFailed, match="crashed"):
                client.submit([make_job(seed=1)])
            results, manifest = client.submit([spec_ok])
            stats = client.stats()
    assert results[spec_ok.content_hash()].to_dict() == tiny_result.to_dict()
    assert manifest["totals"]["cache_hit_rate"] == 1.0
    assert counter_value(stats, "serve.workers_crashed") >= 1


def test_crash_beside_a_running_job_counts_one_crash(tiny_result, tmp_path):
    _store_result(tmp_path, tiny_result)
    specs = [make_job(workload=str(tmp_path), seed=seed) for seed in (1, 2)]
    server = ExperimentServer(cache=None, jobs=2, executor="auto", retries=1,
                              timeout=30, fn=_crash_once_job)
    with ServerThread(server):
        with ServeClient(port=server.port, timeout=60) as client:
            results, _ = client.submit(specs)
            client.submit([make_job(workload=str(tmp_path), seed=3)])
            stats = client.stats()
    # Both jobs were on the crashed pool: each is charged one attempt and
    # succeeds on its retry, but the crash is counted once.
    assert set(results) == {spec.content_hash() for spec in specs}
    assert counter_value(stats, "serve.workers_crashed") == 1
    assert stats["executor"] == "process"


def test_repeated_crashes_keep_the_process_pool(tiny_result, tmp_path):
    _store_result(tmp_path, tiny_result)
    benign = make_job(workload=str(tmp_path), seed=2)
    server = ExperimentServer(cache=None, jobs=1, executor="auto", retries=1,
                              timeout=30, fn=_crash_seed_1_job)
    with ServerThread(server):
        with ServeClient(port=server.port, timeout=60) as client:
            with pytest.raises(JobsFailed, match="crashed"):
                client.submit([make_job(workload=str(tmp_path), seed=1)])
            results, _ = client.submit([benign])
            stats = client.stats()
    assert counter_value(stats, "serve.workers_crashed") == 2
    # The benign job ran on a rebuilt process pool, not in a server thread.
    assert stats["executor"] == "process"
    assert benign.content_hash() in results


def test_timeout_kill_reruns_the_job_beside_it(tiny_result, tmp_path):
    _store_result(tmp_path, tiny_result)
    wedged = make_job(workload=str(tmp_path), seed=1)
    beside = make_job(workload=str(tmp_path), seed=2)
    server = ExperimentServer(cache=None, jobs=2, executor="process",
                              retries=0, timeout=2.0, fn=_wedge_seed_1_job)
    failures = {}

    def submit_wedged():
        try:
            with ServeClient(port=server.port, timeout=60) as client:
                client.submit([wedged])
        except JobsFailed as exc:
            failures.update(exc.failures)

    with ServerThread(server):
        thread = threading.Thread(target=submit_wedged)
        thread.start()
        deadline = time.monotonic() + 30
        while not (tmp_path / "wedged").exists():
            assert time.monotonic() < deadline, "the wedged job never started"
            time.sleep(0.01)
        # Started 1.0 s after the wedged job, the 1.5 s job is still running
        # when the wedged one times out and its pool is killed.
        time.sleep(1.0)
        with ServeClient(port=server.port, timeout=60) as client:
            results, _ = client.submit([beside])
            thread.join(timeout=30)
            stats = client.stats()
    assert not thread.is_alive()
    assert "timeout" in failures[wedged.content_hash()]
    assert results[beside.content_hash()].to_dict() == tiny_result.to_dict()
    assert counter_value(stats, "serve.workers_crashed") == 0
    assert counter_value(stats, "serve.jobs_timeout") == 1


def test_auto_executor_runs_threads_only_without_a_process_pool(
        tiny_result, monkeypatch):
    def refuse():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", refuse)
    server = ExperimentServer(cache=None, jobs=1, executor="auto",
                              fn=lambda spec: tiny_result)
    with ServerThread(server):
        with ServeClient(port=server.port, timeout=30) as client:
            results, _ = client.submit([make_job()])
            stats = client.stats()
    assert results[make_job().content_hash()].to_dict() == tiny_result.to_dict()
    assert stats["executor"] == "thread"


# ----------------------------------------------------------------------
# Client reconnect
# ----------------------------------------------------------------------
def test_client_reconnect_resumes_from_cache(tiny_result, tmp_path):
    executed = []
    lock = threading.Lock()

    def fn(spec):
        with lock:
            executed.append(spec.seed)
        return tiny_result

    cache = ResultCache(tmp_path / "results")
    server = ExperimentServer(cache=cache, jobs=2, executor="thread", fn=fn)
    specs = [make_job(seed=s) for s in (1, 2, 3)]
    with ServerThread(server):
        with ServeClient(port=server.port, timeout=30) as client:
            client.submit(specs[:2])  # 1 and 2 are now cached

        client = ServeClient(port=server.port, timeout=30)
        original_stream = client._stream
        drops = {"n": 0}

        def flaky_stream(results, failures, callback, request_id):
            if drops["n"] == 0:
                # Simulate a mid-stream connection loss after the submit
                # frame went out: the server keeps executing.
                drops["n"] += 1
                client.close()
                raise ConnectionError("simulated drop")
            return original_stream(results, failures, callback, request_id)

        client._stream = flaky_stream
        with client:
            results, manifest = client.submit(specs)
            stats = client.stats()
    assert drops["n"] == 1  # the drop really happened
    assert {s.content_hash() for s in specs} == set(results)
    # Exactly-once execution across the drop: each unique cell ran once.
    assert sorted(executed) == [1, 2, 3]
    assert counter_value(stats, "serve.jobs_executed") == 3
    assert manifest["totals"]["cache_hits"] >= 2  # resumed from cache


# ----------------------------------------------------------------------
# Protocol robustness over real sockets
# ----------------------------------------------------------------------
def _raw_connection(port):
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    reader = sock.makefile("rb")
    hello = json.loads(reader.readline())
    assert hello["type"] == "hello"
    return sock, reader


def test_garbage_frame_gets_error_then_disconnect(tiny_result):
    server = ExperimentServer(cache=None, executor="thread",
                              fn=lambda spec: tiny_result)
    with ServerThread(server):
        sock, reader = _raw_connection(server.port)
        sock.sendall(b"this is not json\n")
        reply = json.loads(reader.readline())
        assert reply["type"] == "error" and "JSON" in reply["error"]
        assert reader.readline() == b""  # server dropped the connection
        sock.close()


def test_oversized_frame_rejected_server_side(tiny_result):
    server = ExperimentServer(cache=None, executor="thread",
                              fn=lambda spec: tiny_result)
    with ServerThread(server):
        sock, reader = _raw_connection(server.port)
        sock.sendall(b"x" * (MAX_FRAME_BYTES + 3))  # no newline anywhere
        reply = json.loads(reader.readline())
        assert reply["type"] == "error" and "exceeds" in reply["error"]
        sock.close()


def test_unknown_frame_type_keeps_connection(tiny_result):
    server = ExperimentServer(cache=None, executor="thread",
                              fn=lambda spec: tiny_result)
    with ServerThread(server):
        sock, reader = _raw_connection(server.port)
        sock.sendall(encode_frame({"type": "bogus"}))
        reply = json.loads(reader.readline())
        assert reply["type"] == "error" and "bogus" in reply["error"]
        sock.sendall(encode_frame({"v": 1, "type": "ping"}))
        assert json.loads(reader.readline())["type"] == "pong"
        sock.close()


def test_submit_accepts_only_protocol_v1(tiny_result, tmp_path):
    spec = make_job()
    cache = ResultCache(tmp_path / "results")
    assert cache.put(spec, tiny_result)
    server = ExperimentServer(cache=cache, jobs=1, executor="thread",
                              fn=lambda s: tiny_result)

    def submit_with_version(version):
        sock, reader = _raw_connection(server.port)
        with sock, reader:
            sock.sendall(encode_frame({"v": version, "type": "submit",
                                       "id": "req", "specs": [spec.to_wire()]}))
            frames = [json.loads(reader.readline())]
            while frames[-1]["type"] not in ("complete", "error"):
                frames.append(json.loads(reader.readline()))
        return frames

    with ServerThread(server):
        v1, v2, v3 = [submit_with_version(version) for version in (1, 2, 3)]
    job_frames = [frame for frame in v1 if frame["type"] == "job"]
    assert [frame["event"] for frame in job_frames] == ["cached"]
    assert job_frames[0]["result"] == tiny_result.to_dict()
    assert v1[-1]["type"] == "complete"
    # A version the server does not speak is rejected, not guessed at.
    for frames in (v2, v3):
        assert frames[-1]["type"] == "error"
        assert "version" in frames[-1]["error"]


def test_served_manifest_carries_run_id(tiny_result, tmp_path):
    server = ExperimentServer(cache=None, jobs=1, executor="thread",
                              fn=lambda s: tiny_result)
    with ServerThread(server):
        with ServeClient(port=server.port, timeout=30) as client:
            _, manifest = client.submit([make_job()])
            stats = client.stats()
    assert manifest["run_id"] == server.run_id
    assert stats["run_id"] == server.run_id
    # The stats reply embeds the full typed registry dump.
    assert stats["registry"]["serve.jobs_executed"]["type"] == "counter"
    assert stats["registry"]["serve.jobs_executed"]["value"] == 1


def test_stats_shape(tiny_result):
    server = ExperimentServer(cache=None, executor="thread",
                              fn=lambda spec: tiny_result)
    with ServerThread(server):
        with ServeClient(port=server.port) as client:
            assert client.ping()
            client.submit([make_job()])
            stats = client.stats()
    assert stats["workers"] >= 1
    assert stats["queue_depth"] == 0 and stats["inflight"] == 0
    assert 0.0 <= stats["cache_hit_ratio"] <= 1.0
    hist = stats["job_wall_time_s"]
    assert hist["total"] == 1 and hist["p50"] >= 0.0
    assert stats["counters"]["serve.jobs_executed"] == 1
