"""Unit tests for JobSpec content hashing and spec resolution."""

import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from repro.exec import JobSpec, canonical_config_dict, jobs, make_spec, set_options
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


def test_hash_is_pinned(monkeypatch):
    # A changed hash layout strands every cached result; change it on
    # purpose.  The model digest is held constant, so editing the model
    # moves every hash without moving this pin.
    monkeypatch.setattr(jobs, "model_digest", lambda: "0" * 64)
    assert make_job().content_hash() == (
        "decbfb30b0a9eee52f7817bab61b6cb28fd498da765eb5f63d0d429135ba841f")


@pytest.fixture
def source_copy(tmp_path):
    """A copy of the package's sources that a test may edit."""
    root = tmp_path / "repro"
    shutil.copytree(Path(jobs.__file__).resolve().parents[1], root,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _edit(path: Path, old: str, new: str) -> None:
    source = path.read_text()
    assert old in source
    path.write_text(source.replace(old, new, 1))


def test_model_edit_changes_the_job_hash(source_copy, monkeypatch):
    installed = make_job().content_hash()
    monkeypatch.setattr(jobs, "model_digest",
                        lambda: jobs.source_digest(jobs.MODEL_PACKAGES, source_copy))
    assert make_job().content_hash() == installed  # the copy hashes alike
    # A timing constant in the DRAM model moves the hash ...
    _edit(source_copy / "mem" / "dram.py", "cas: int = 41", "cas: int = 42")
    edited = make_job().content_hash()
    assert edited != installed
    # ... an edit outside the five model packages does not.
    _edit(source_copy / "bench" / "report.py", '"""', '"""Edited. ')
    assert make_job().content_hash() == edited


def test_generator_digest_covers_only_the_generators(source_copy):
    assert jobs.source_digest(("workloads",), source_copy) == jobs.generator_digest()
    _edit(source_copy / "mem" / "dram.py", "cas: int = 41", "cas: int = 42")
    assert jobs.source_digest(("workloads",), source_copy) == jobs.generator_digest()
    _edit(source_copy / "workloads" / "graph.py", '"""', '"""Edited. ')
    assert jobs.source_digest(("workloads",), source_copy) != jobs.generator_digest()


def test_edited_trace_file_misses_the_result_cache(tmp_path, monkeypatch):
    from repro.bench import runner

    monkeypatch.setattr(runner, "CACHE_DIR", tmp_path / "cache")
    path = tmp_path / "stream.trace"
    workload = f"trace:{path}"
    config = small_test_config(1)

    set_options(jobs=1, use_cache=True)

    def run():
        spec = make_spec("np", workload, config=config, num_cores=1, max_accesses=100)
        matrix = runner.run_design_matrix(
            ["np"], [workload], config=config, num_cores=1, max_accesses=100)
        return spec.content_hash(), matrix[workload]["np"]

    path.write_text("0x400140 R\n0x400180 W\n0x4001c0 R\n")
    first_hash, first = run()
    path.write_text("0x400140 R\n0x400180 W\n")  # same path, new contents
    second_hash, second = run()
    assert second_hash != first_hash
    assert (first.accesses, second.accesses) == (3, 2)


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
