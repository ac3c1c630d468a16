"""Unit tests for JobSpec content hashing and spec resolution."""

from dataclasses import replace

import pytest

from repro.exec import JobSpec, canonical_config_dict, make_spec
from repro.sim.config import SimulationConfig, small_test_config


def make_job(**overrides):
    base = dict(
        design="morphctr",
        workload="dfs",
        config=small_test_config(),
        num_cores=1,
        trace_length=2000,
        graph_scale=0.05,
        seed=None,
    )
    base.update(overrides)
    return JobSpec(**base)


def test_hash_is_stable_across_equal_specs():
    # Two independently-built but identical specs must collide.
    assert make_job().content_hash() == make_job().content_hash()
    assert make_job(config=small_test_config()).content_hash() == make_job().content_hash()


def test_hash_is_hex_sha256():
    digest = make_job().content_hash()
    assert len(digest) == 64
    int(digest, 16)  # raises if not hex


def test_hash_is_pinned():
    # A changed digest strands every cached result; change it on purpose.
    assert make_job().content_hash() == (
        "f128bc9bbd78b42e1224f88ff1bce944e1eff00d6668849ad8180542bbadf0bd")


@pytest.mark.parametrize("field,value", [
    ("design", "cosmos"),
    ("workload", "bfs"),
    ("num_cores", 4),
    ("trace_length", 4000),
    ("graph_scale", 0.1),
    ("seed", 7),
])
def test_hash_sensitive_to_every_spec_field(field, value):
    assert make_job(**{field: value}).content_hash() != make_job().content_hash()


def test_hash_sensitive_to_nested_config_changes():
    config = small_test_config()
    deeper = replace(config.cosmos, cet_entries=config.cosmos.cet_entries * 2)
    changed = SimulationConfig(
        hierarchy=config.hierarchy,
        memory_bytes=config.memory_bytes,
        counter_scheme=config.counter_scheme,
        engine=config.engine,
        cosmos=deeper,
        cpu=config.cpu,
    )
    assert make_job(config=changed).content_hash() != make_job().content_hash()


def test_canonical_config_dict_covers_all_fields():
    tree = canonical_config_dict(small_test_config())
    assert set(tree) == {"hierarchy", "memory_bytes", "counter_scheme",
                         "engine", "cosmos", "cpu"}
    assert tree["cosmos"]["hyper"]["alpha_d"] == pytest.approx(0.09)


def test_make_spec_resolves_env_knobs(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_LEN", "1230")
    monkeypatch.setenv("REPRO_GRAPH_SCALE", "0.25")
    spec = make_spec("np", "dfs")
    assert spec.trace_length == 1230
    assert spec.graph_scale == 0.25
    assert spec.config is not None  # default config substituted

    # Resolution happens at creation: a later env change must not move the hash.
    digest = spec.content_hash()
    monkeypatch.setenv("REPRO_TRACE_LEN", "9999")
    assert spec.content_hash() == digest


def test_make_spec_explicit_arguments_win(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_LEN", "1230")
    config = small_test_config()
    spec = make_spec("cosmos", "bfs", config=config, num_cores=2,
                     max_accesses=500, seed=11)
    assert spec.trace_length == 500
    assert spec.num_cores == 2
    assert spec.seed == 11
    assert spec.config is config
