"""Reproducibility: identical inputs must give bit-identical results.

Every stochastic element in the stack (graph synthesis, workload RNGs,
epsilon-greedy exploration, random replacement) is seeded, so a rerun of
any experiment must produce exactly the same numbers — the property the
benchmark result cache and the EXPERIMENTS.md tables rely on.
"""

import pytest

from repro.exec import set_options
from repro.sim.config import small_test_config
from repro.sim.simulator import simulate
from repro.workloads.graph_algos import generate_graph_trace
from repro.workloads.spec import generate_spec_trace


@pytest.fixture(scope="module")
def trace():
    return generate_graph_trace("bfs", num_cores=2, max_accesses=8000, graph_scale=0.1)


@pytest.mark.parametrize("design", ["np", "morphctr", "cosmos", "emcc", "rmcc",
                                    "cosmos-early", "cosmos-synergy"])
def test_design_runs_are_bit_identical(design, trace):
    config = small_test_config(num_cores=2)
    first = simulate(design, trace, config, workload="bfs")
    second = simulate(design, trace, config, workload="bfs")
    assert first.cycles == second.cycles
    assert first.total_latency == second.total_latency
    assert first.ctr_miss_rate == second.ctr_miss_rate
    assert first.traffic.as_dict() == second.traffic.as_dict()
    assert first.extra == second.extra


def test_exploration_is_seeded_not_global(trace):
    """COSMOS's epsilon-greedy must not depend on global random state."""
    import random

    config = small_test_config(num_cores=2)
    random.seed(111)
    first = simulate("cosmos", trace, config, workload="bfs")
    random.seed(999)
    second = simulate("cosmos", trace, config, workload="bfs")
    assert first.cycles == second.cycles


def test_trace_generation_independent_of_global_seed():
    import random

    random.seed(1)
    a = generate_spec_trace("mcf", num_cores=1, max_accesses=2000)
    random.seed(2)
    b = generate_spec_trace("mcf", num_cores=1, max_accesses=2000)
    assert [x.address for x in a] == [x.address for x in b]


def _matrix_dump(matrix) -> str:
    import json

    return json.dumps(
        {w: {d: r.to_dict() for d, r in row.items()} for w, row in matrix.items()},
        sort_keys=True,
    )


def test_matrix_identical_across_jobs_and_cache_modes(tmp_path, monkeypatch):
    """Same seed => byte-identical results: serial vs --jobs 4, cache on/off.

    Five configurations of the same design matrix — serial and 4-way
    parallel, with the result cache disabled, cold and warm — must all
    serialise to the same JSON bytes.  (On a machine without enough cores
    the pool may fall back to fewer workers; determinism must hold
    regardless.)
    """
    from repro.bench import runner

    monkeypatch.setenv("REPRO_TRACE_LEN", "2000")
    monkeypatch.setenv("REPRO_GRAPH_SCALE", "0.04")
    monkeypatch.setattr(runner, "CACHE_DIR", tmp_path / "cache")
    designs = ["np", "cosmos"]
    workloads = ["bfs", "dfs"]
    dumps = []
    for jobs, use_cache in ((1, False), (4, False), (1, True), (4, True), (1, True)):
        runner._MEMORY_CACHE.clear()
        runner._RESULT_CACHE.clear()
        set_options(jobs=jobs, use_cache=use_cache)
        dumps.append(_matrix_dump(runner.run_design_matrix(designs, workloads)))
    assert all(d == dumps[0] for d in dumps[1:])
    runner._MEMORY_CACHE.clear()
    runner._RESULT_CACHE.clear()


def test_hammer_matrix_identical_across_jobs_and_cache_modes(tmp_path, monkeypatch):
    """RowHammer aggressor workloads obey the same determinism contract:
    same seed => byte-identical results, serial vs --jobs 4, cache on/off."""
    from repro.bench import runner

    monkeypatch.setenv("REPRO_TRACE_LEN", "1500")
    monkeypatch.setattr(runner, "CACHE_DIR", tmp_path / "cache")
    designs = ["np", "cosmos"]
    workloads = ["hammer-double", "hammer-mixed"]
    dumps = []
    for jobs, use_cache in ((1, False), (4, False), (1, True), (4, True)):
        runner._MEMORY_CACHE.clear()
        runner._RESULT_CACHE.clear()
        set_options(jobs=jobs, use_cache=use_cache)
        dumps.append(_matrix_dump(runner.run_design_matrix(designs, workloads)))
    assert all(d == dumps[0] for d in dumps[1:])
    runner._MEMORY_CACHE.clear()
    runner._RESULT_CACHE.clear()


def test_hammer_verdicts_reproducible():
    """Planner + harness verdicts are a pure function of the seed."""
    import json

    from repro.verify.hammer import run_hammer_attack
    from repro.verify.hammer import ops_from_trace
    from repro.workloads.hammer import generate_hammer_trace

    dumps = []
    for _ in range(2):
        trace = generate_hammer_trace(
            "hammer-many", num_cores=2, max_accesses=900, seed=6, start=0
        )
        plan, report = run_hammer_attack(
            ops_from_trace(trace, 1 << 12), scheme="split", seed=6
        )
        dumps.append(json.dumps(
            {"plan": plan.to_dict(), "report": report.to_dict()}, sort_keys=True
        ))
    assert dumps[0] == dumps[1]


@pytest.mark.parametrize("experiment, kwargs", [
    ("figure2", {"workloads": ["dfs"]}),
    ("figure3", {"workloads": ["dfs"], "sizes_kb": [8, 16]}),
], ids=["fig2", "fig3"])
def test_experiment_rows_reproducible(experiment, kwargs, tmp_path, monkeypatch):
    """A figure's rows are the same serial and on two workers, each with
    the result cache off, cold and warm."""
    from repro.bench import experiments, runner

    monkeypatch.setenv("REPRO_TRACE_LEN", "3000")
    monkeypatch.setenv("REPRO_GRAPH_SCALE", "0.04")
    rows = []
    for jobs in (1, 2):
        monkeypatch.setattr(runner, "CACHE_DIR", tmp_path / f"jobs{jobs}")
        for use_cache in (False, True, True):  # off, cold, warm
            runner._MEMORY_CACHE.clear()
            runner._RESULT_CACHE.clear()
            set_options(jobs=jobs, use_cache=use_cache)
            rows.append(getattr(experiments, experiment)(quiet=True, **kwargs))
    assert all(row == rows[0] for row in rows[1:])
    runner._MEMORY_CACHE.clear()
    runner._RESULT_CACHE.clear()
