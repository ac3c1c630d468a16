"""Unit tests for the content-addressed result cache."""

import json

from repro.exec import CACHE_VERSION, JobSpec, ResultCache
from repro.mem.stats import TrafficStats
from repro.sim.config import small_test_config
from repro.sim.results import SimulationResult


def make_result(**overrides):
    base = dict(
        design="morphctr",
        workload="dfs",
        accesses=500,
        instructions=2000,
        cycles=1234.5,
        total_latency=4000,
        l1_miss_rate=0.4,
        l2_miss_rate=0.6,
        llc_miss_rate=0.9,
        ctr_miss_rate=0.8,
        traffic=TrafficStats(data_reads=100, mt_reads=300),
        extra={"prediction_accuracy": 0.875},
    )
    base.update(overrides)
    return SimulationResult(**base)


def make_job(**overrides):
    base = dict(design="morphctr", workload="dfs", config=small_test_config(),
                num_cores=1, trace_length=2000, graph_scale=0.05)
    base.update(overrides)
    return JobSpec(**base)


def test_put_get_roundtrip(tmp_path):
    cache = ResultCache(tmp_path / "results")
    spec, result = make_job(), make_result()
    cache.put(spec, result)
    loaded = cache.get(spec.content_hash())
    assert loaded is not None
    assert loaded == result  # dataclass equality: every metric identical
    assert cache.hits == 1 and cache.misses == 0


def test_missing_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path / "results")
    assert cache.get("0" * 64) is None
    assert cache.misses == 1
    assert cache.hit_rate == 0.0


def test_corrupt_entry_is_tolerated_and_removed(tmp_path):
    cache = ResultCache(tmp_path / "results")
    spec = make_job()
    cache.put(spec, make_result())
    path = cache.path_for(spec.content_hash())
    path.write_text("{ totally not json")
    assert cache.get(spec.content_hash()) is None
    assert not path.exists()  # corrupt file cleaned up
    # The cell can be re-cached afterwards.
    cache.put(spec, make_result())
    assert cache.get(spec.content_hash()) is not None


def test_truncated_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path / "results")
    spec = make_job()
    cache.put(spec, make_result())
    path = cache.path_for(spec.content_hash())
    path.write_text(path.read_text()[: 40])  # simulate a torn write
    assert cache.get(spec.content_hash()) is None


def test_version_mismatch_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path / "results")
    spec = make_job()
    cache.put(spec, make_result())
    path = cache.path_for(spec.content_hash())
    entry = json.loads(path.read_text())
    entry["cache_version"] = CACHE_VERSION + 1
    path.write_text(json.dumps(entry))
    assert cache.get(spec.content_hash()) is None


def test_entry_hash_mismatch_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path / "results")
    spec = make_job()
    cache.put(spec, make_result())
    other_hash = "f" * 64
    cache.path_for(spec.content_hash()).rename(cache.path_for(other_hash))
    assert cache.get(other_hash) is None


def test_atomic_write_leaves_no_temp_files(tmp_path):
    cache = ResultCache(tmp_path / "results")
    for seed in range(5):
        cache.put(make_job(seed=seed), make_result())
    leftovers = [p for p in (tmp_path / "results").iterdir()
                 if not p.name.endswith(".json")]
    assert leftovers == []


def test_put_failure_is_nonfatal(tmp_path):
    blocker = tmp_path / "results"
    blocker.write_text("a file where the cache directory should be")
    cache = ResultCache(blocker)
    cache.put(make_job(), make_result())  # must not raise
    assert cache.get(make_job().content_hash()) is None


def test_racing_writers_keep_the_first_winner(tmp_path):
    cache = ResultCache(tmp_path / "results")
    spec = make_job()
    first, second = make_result(cycles=111.0), make_result(cycles=222.0)
    assert cache.put(spec, first) is True
    # A second writer (another run sharing the cache directory, finishing
    # the same deterministic job) must leave the winner's entry alone.
    assert cache.put(spec, second) is False
    loaded = cache.get(spec.content_hash())
    assert loaded is not None and loaded.cycles == 111.0


def test_loser_never_replaces_after_winner_is_corrupted_away(tmp_path):
    cache = ResultCache(tmp_path / "results")
    spec = make_job()
    cache.put(spec, make_result(cycles=111.0))
    path = cache.path_for(spec.content_hash())
    path.unlink()  # e.g. a corrupt read deleted the entry
    assert cache.put(spec, make_result(cycles=222.0)) is True  # slot is free again
    loaded = cache.get(spec.content_hash())
    assert loaded is not None and loaded.cycles == 222.0


def test_sweep_tmp_removes_stale_and_keeps_fresh(tmp_path):
    import os

    cache = ResultCache(tmp_path / "results")
    cache.put(make_job(), make_result())  # materialise the directory
    stale = cache.directory / "deadbeef.1234.tmp"
    stale.write_text("{torn")
    old = 4000.0
    os.utime(stale, (stale.stat().st_atime - old, stale.stat().st_mtime - old))
    fresh = cache.directory / "cafef00d.5678.tmp"
    fresh.write_text("{in-progress")
    assert cache.sweep_tmp(max_age_s=3600.0) == 1
    assert not stale.exists()
    assert fresh.exists()  # may belong to a live writer
    # Real entries are untouched and the sweep is idempotent.
    assert cache.get(make_job().content_hash()) is not None
    assert cache.sweep_tmp(max_age_s=3600.0) == 0


def test_sweep_tmp_on_missing_directory_is_a_noop(tmp_path):
    cache = ResultCache(tmp_path / "never-created")
    assert cache.sweep_tmp() == 0
