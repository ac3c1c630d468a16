"""Unit tests for cross-process trace context and the run-level
Chrome-trace merge."""

from __future__ import annotations

import json
import os

from repro import obs
from repro.obs import tracectx
from repro.obs.artifacts import obs_root, write_job_artifacts
from repro.obs.merge import merge_events, merge_manifest, spans_to_events
from repro.obs.tracectx import TraceContext, new_run_id


# ----------------------------------------------------------------------
# Trace context
# ----------------------------------------------------------------------
def test_run_ids_are_unique_and_prefixed():
    ids = {new_run_id() for _ in range(32)}
    assert len(ids) == 32
    assert all(i.startswith("run-") for i in ids)
    assert new_run_id("serve").startswith("serve-")


def test_propagated_accepts_none_and_restores():
    with tracectx.propagated(None):
        assert tracectx.current() is None
    outer = TraceContext(run_id="run-outer")
    tracectx.activate(outer)
    try:
        with tracectx.propagated(TraceContext(run_id="run-inner")):
            assert tracectx.current().run_id == "run-inner"
        assert tracectx.current() == outer
    finally:
        tracectx.reset()


def test_job_annotations_stamp_pid_and_run():
    assert tracectx.job_annotations() == {"pid": os.getpid()}
    with tracectx.propagated(TraceContext(run_id="run-a", origin="serve")):
        fields = tracectx.job_annotations()
    assert fields == {"pid": os.getpid(), "run_id": "run-a", "origin": "serve"}


def test_obs_reset_clears_context():
    tracectx.activate(TraceContext(run_id="run-stale"))
    obs.reset()
    assert tracectx.current() is None


# ----------------------------------------------------------------------
# Chrome-trace merge
# ----------------------------------------------------------------------
def _manifest_payload(run_id, jobs):
    return {
        "manifest_version": 2,
        "run_id": run_id,
        "pid": 1000,
        "spans": {
            "name": "exec.run",
            "total_s": 1.0,
            "spans": [{"name": "execute", "start_s": 0.0, "duration_s": 1.0,
                       "meta": {}, "children": []}],
        },
        "jobs": jobs,
    }


def _write_job(root, job_hash, run_id, pid):
    recorder = obs.SpanRecorder("job x")
    with obs.recording(recorder):
        with obs.span("simulate"):
            pass
    meta = {"design": "np", "workload": "w", "pid": pid}
    if run_id is not None:
        meta["run_id"] = run_id
    written = write_job_artifacts(obs_root(root), job_hash,
                                  recorder=recorder, meta=meta)
    # Rewrite the trace with a controlled pid (the artifact recorded the
    # test process's own pid at export time).
    events = json.loads(written["trace"].read_text())
    for event in events:
        event["pid"] = pid
    written["trace"].write_text(json.dumps(events))


def test_merge_attributes_jobs_to_worker_pids(tmp_path):
    run_id = "run-merge"
    _write_job(tmp_path, "a" * 64, run_id, pid=2001)
    _write_job(tmp_path, "b" * 64, run_id, pid=2002)
    _write_job(tmp_path, "c" * 64, "run-other", pid=2003)  # foreign run
    jobs = [{"job_hash": h, "design": "np", "workload": "w", "status": "ok"}
            for h in ("a" * 64, "b" * 64, "c" * 64)]
    events = merge_events(_manifest_payload(run_id, jobs), tmp_path)

    meta = [e for e in events if e["ph"] == "M"]
    complete = [e for e in events if e["ph"] == "X"]
    assert {e["pid"] for e in complete} == {1000, 2001, 2002}
    run_meta = [e for e in meta if e["name"] == "run_id"]
    assert run_meta[0]["args"]["run_id"] == run_id
    names = {e["args"]["name"] for e in meta if e["name"] == "process_name"}
    assert "worker pid 2001" in names and "worker pid 2002" in names
    # Job spans carry their run and job labels for trace-viewer filtering.
    job_events = [e for e in complete if e["pid"] != 1000]
    assert all(e["args"]["run_id"] == run_id for e in job_events)


def test_merge_manifest_writes_sibling_and_trace_key(tmp_path):
    run_id = "run-file"
    _write_job(tmp_path, "d" * 64, run_id, pid=3001)
    manifest = tmp_path / "manifests" / "run-test.json"
    manifest.parent.mkdir(parents=True)
    manifest.write_text(json.dumps(_manifest_payload(run_id, [
        {"job_hash": "d" * 64, "design": "np", "workload": "w"}])))
    trace_path, count = merge_manifest(manifest, cache_root=tmp_path)
    assert trace_path == manifest.with_suffix(".trace.json")
    assert count == len(json.loads(trace_path.read_text()))
    assert json.loads(manifest.read_text())["trace"] == trace_path.name


def test_spans_to_events_flattens_children():
    tree = [{"name": "parent", "start_s": 0.0, "duration_s": 2.0, "meta": {},
             "children": [{"name": "child", "start_s": 0.5, "duration_s": 1.0,
                           "meta": {"k": "v"}, "children": []}]}]
    events = spans_to_events(tree, pid=9)
    assert [e["name"] for e in events] == ["parent", "child"]
    assert all(e["pid"] == 9 and e["ph"] == "X" for e in events)
    assert events[1]["args"] == {"k": "v"}
