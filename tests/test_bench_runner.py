"""Unit tests for the benchmark runner (trace cache, env knobs, cell memo)."""

import json
from dataclasses import replace

import pytest

from repro.bench import runner
from repro.exec import make_spec
from repro.workloads.graph_algos import GRAPH_WORKLOADS


@pytest.fixture
def quick_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_LEN", "2000")
    monkeypatch.setenv("REPRO_GRAPH_SCALE", "0.02")
    monkeypatch.setattr(runner, "CACHE_DIR", tmp_path / "traces")
    runner._MEMORY_CACHE.clear()
    runner._RESULT_CACHE.clear()
    yield
    runner._MEMORY_CACHE.clear()
    runner._RESULT_CACHE.clear()


def test_trace_length_env(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_LEN", "1234")
    monkeypatch.delenv("REPRO_QUICK", raising=False)
    assert runner.trace_length() == 1234
    monkeypatch.setenv("REPRO_QUICK", "1")
    assert runner.trace_length() == 246


def test_graph_scale_env(monkeypatch):
    monkeypatch.setenv("REPRO_GRAPH_SCALE", "0.5")
    assert runner.graph_scale() == 0.5


def test_get_trace_generates_and_caches(quick_env):
    trace = runner.get_trace("dfs")
    assert len(trace) == 2000
    again = runner.get_trace("dfs")
    assert again is trace  # in-memory cache hit


def test_disk_cache_roundtrip(quick_env):
    trace = runner.get_trace("bfs")
    runner._MEMORY_CACHE.clear()
    reloaded = runner.get_trace("bfs")
    assert reloaded is not trace
    assert len(reloaded) == len(trace)
    assert [a.address for a in reloaded][:50] == [a.address for a in trace][:50]
    assert [a.core for a in reloaded][:50] == [a.core for a in trace][:50]


@pytest.mark.parametrize("workload", ["mcf", "dlrm", "mlp"])
def test_get_trace_covers_all_generators(quick_env, workload):
    assert len(runner.get_trace(workload)) == 2000


def test_get_trace_rejects_unknown(quick_env):
    with pytest.raises(ValueError):
        runner.get_trace("nonexistent")


def test_changed_generator_digest_misses_the_npz(quick_env, monkeypatch):
    runner.get_trace("dfs")
    runner._MEMORY_CACHE.clear()
    generated = []
    generate = runner._generate
    monkeypatch.setattr(runner, "_generate",
                        lambda *args: generated.append(args) or generate(*args))
    runner.get_trace("dfs")
    assert generated == []  # same generator code: the .npz answers
    runner._MEMORY_CACHE.clear()
    monkeypatch.setattr(runner, "generator_digest", lambda: "f" * 64)
    runner.get_trace("dfs")
    assert len(generated) == 1
    assert len(list(runner.cache_dir().glob("dfs-*.npz"))) == 2


def _manifests():
    return sorted((runner.cache_dir() / "manifests").glob("run-*.json"))


def test_run_cells_memoises_by_content_hash(quick_env):
    def split_counters():
        return replace(runner.default_config(), counter_scheme="split")

    spec = make_spec("morphctr", "dfs", config=split_counters())
    first, default = runner.run_cells([spec, make_spec("morphctr", "dfs")])
    assert runner._RESULT_CACHE[spec.content_hash()] is first
    assert first.to_dict() != default.to_dict()
    # An equal config built afresh is the same cell: nothing runs again.
    runs = len(_manifests())
    (again,) = runner.run_cells([make_spec("morphctr", "dfs", config=split_counters())])
    assert again is first
    assert len(_manifests()) == runs


def test_run_cells_returns_results_in_spec_order(quick_env):
    specs = [make_spec(design, "dfs") for design in ("np", "morphctr", "np")]
    results = runner.run_cells(specs)
    assert [result.design for result in results] == ["np", "morphctr", "np"]
    assert results[0] is results[2]
    manifest = json.loads(_manifests()[-1].read_text())
    assert (manifest["totals"]["jobs"], manifest["totals"]["duplicates"]) == (2, 1)


def test_sweep_point_equal_to_default_is_the_default_cell(quick_env):
    matrix = runner.run_design_matrix(["morphctr"], ["dfs"])
    config = runner.default_config()
    sweep = config.with_ctr_cache_bytes(config.engine.ctr_cache_bytes)
    runs = len(_manifests())
    (result,) = runner.run_cells([make_spec("morphctr", "dfs", config=sweep)])
    assert result is matrix["dfs"]["morphctr"]
    assert len(_manifests()) == runs


def test_default_config_is_scaled_table3():
    config = runner.default_config()
    assert config.hierarchy.num_cores == 4
    assert config.hierarchy.llc.size_bytes == 512 * 1024


def test_all_paper_workloads_resolvable():
    # Every workload named by the figures maps to a generator.
    from repro.workloads.ml import ML_WORKLOADS
    from repro.workloads.spec import SPEC_WORKLOADS

    names = list(GRAPH_WORKLOADS) + list(SPEC_WORKLOADS) + list(ML_WORKLOADS) + ["mlp"]
    for name in names:
        runner._generate(name, num_cores=1, length=64, scale=0.02)


def test_cache_dir_is_lazy(monkeypatch, tmp_path):
    # No module-level override: the environment knob is honoured at call
    # time, not frozen at import time.
    monkeypatch.setattr(runner, "CACHE_DIR", None)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "fromenv"))
    assert runner.cache_dir() == tmp_path / "fromenv"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    assert runner.cache_dir().name == ".trace_cache"
    # An explicit override (what tests use) wins over everything.
    monkeypatch.setattr(runner, "CACHE_DIR", tmp_path / "explicit")
    assert runner.cache_dir() == tmp_path / "explicit"


def test_run_design_matrix_shape_and_memo_sharing(quick_env):
    matrix = runner.run_design_matrix(["np", "morphctr"], ["dfs"])
    assert set(matrix) == {"dfs"}
    assert set(matrix["dfs"]) == {"np", "morphctr"}
    assert matrix["dfs"]["morphctr"].ctr_miss_rate >= 0.0
    # Matrix cells land in the same in-process memo run_cells reads.
    assert runner.run_cells([make_spec("np", "dfs")])[0] is matrix["dfs"]["np"]


def test_run_design_matrix_disk_cache_hit(quick_env):
    runner.run_design_matrix(["np"], ["dfs"])
    runner._RESULT_CACHE.clear()
    runner._MEMORY_CACHE.clear()
    again = runner.run_design_matrix(["np"], ["dfs"])
    assert again["dfs"]["np"].accesses == 2000
    assert len(list((runner.cache_dir() / "results").glob("*.json"))) == 1


def test_save_trace_is_atomic_no_temp_leftovers(quick_env):
    runner.get_trace("dfs")
    leftovers = [p for p in runner.cache_dir().iterdir()
                 if ".tmp" in p.name]
    assert leftovers == []


def test_get_trace_regenerates_truncated_cache_file(quick_env):
    trace = runner.get_trace("dfs", num_cores=1)
    (path,) = list(runner.cache_dir().glob("dfs-*.npz"))
    path.write_bytes(path.read_bytes()[:200])  # torn mid-copy
    runner._MEMORY_CACHE.clear()
    again = runner.get_trace("dfs", num_cores=1)
    assert [a for a in again.arrays().addresses] == [a for a in trace.arrays().addresses]
    # The torn file was replaced by a loadable regeneration.
    (path,) = list(runner.cache_dir().glob("dfs-*.npz"))
    assert path.stat().st_size > 200
