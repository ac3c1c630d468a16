"""Tests for submission dedupe and worker auto-detection."""

from repro.exec import JobSpec, auto_jobs, dedupe_specs
from repro.exec.options import DEFAULT_JOBS_CAP
from repro.sim.config import small_test_config


def make_job(**overrides):
    base = dict(design="np", workload="dfs", config=small_test_config(),
                num_cores=1, trace_length=400, graph_scale=0.02)
    base.update(overrides)
    return JobSpec(**base)


# ----------------------------------------------------------------------
# dedupe_specs
# ----------------------------------------------------------------------
def test_dedupe_preserves_order_and_collapses():
    a, b = make_job(), make_job(design="cosmos")
    pairs = dedupe_specs([a, b, make_job(), a])
    assert [spec.design for _, spec in pairs] == ["np", "cosmos"]
    assert pairs[0][0] == a.content_hash()


def test_dedupe_empty():
    assert dedupe_specs([]) == []


# ----------------------------------------------------------------------
# auto_jobs
# ----------------------------------------------------------------------
def test_auto_jobs_is_positive_and_capped():
    jobs = auto_jobs()
    assert 1 <= jobs <= DEFAULT_JOBS_CAP


def test_auto_jobs_explicit_cap():
    assert auto_jobs(cap=1) == 1
    assert auto_jobs(cap=0) == 1  # degenerate caps clamp to one worker


def test_auto_jobs_env_cap(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS_CAP", "1")
    assert auto_jobs() == 1
