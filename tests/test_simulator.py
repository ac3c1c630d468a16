"""Unit tests for the trace-driven simulator layer."""

from dataclasses import replace

import pytest

from repro.mem.access import MemoryAccess
from repro.sim.config import SimulationConfig, scaled_paper_config, small_test_config
from repro.sim.simulator import Simulator, build_design, build_layout, simulate


def test_build_layout_respects_scheme(tiny_config):
    layout = build_layout(tiny_config)
    assert layout.blocks_per_ctr == 128  # morphctr default
    config = SimulationConfig(
        hierarchy=tiny_config.hierarchy,
        memory_bytes=tiny_config.memory_bytes,
        counter_scheme="split",
        engine=tiny_config.engine,
        cosmos=tiny_config.cosmos,
        cpu=tiny_config.cpu,
    )
    assert build_layout(config).blocks_per_ctr == 64


def test_build_design_wires_config(tiny_config):
    design = build_design("morphctr", tiny_config)
    assert design.engine.config.ctr_cache_bytes == tiny_config.engine.ctr_cache_bytes
    cosmos = build_design("cosmos", tiny_config)
    assert cosmos.cosmos_config is tiny_config.cosmos


def test_simulate_counts_accesses(tiny_config, dfs_trace):
    result = simulate("np", dfs_trace, tiny_config, workload="dfs")
    assert result.accesses == len(dfs_trace)
    assert result.workload == "dfs"
    assert result.design == "np"
    assert result.cycles > 0
    assert result.ipc > 0


def test_progress_hook_invoked(tiny_config, dfs_trace):
    design = build_design("np", tiny_config)
    simulator = Simulator(design, tiny_config, "dfs")
    snapshots = []
    simulator.run(dfs_trace, progress_hook=lambda done, sim: snapshots.append(done),
                  progress_interval=1000)
    assert snapshots == [1000, 2000, 3000, 4000, 5000, 6000]


def test_cycles_include_bandwidth_term(tiny_config, dfs_trace):
    result_np = simulate("np", dfs_trace, tiny_config)
    result_secure = simulate("morphctr", dfs_trace, tiny_config)
    # Secure designs move more DRAM traffic, so with identical latencies
    # and issue counts, their cycle counts must be strictly larger.
    assert result_secure.cycles > result_np.cycles


def test_result_extras_for_cosmos(tiny_config, dfs_trace):
    result = simulate("cosmos", dfs_trace, tiny_config)
    assert "prediction_accuracy" in result.extra
    assert "good_locality_fraction" in result.extra
    assert "bypass_fraction" in result.extra
    distribution_sum = sum(
        result.extra[key]
        for key in ("pred_correct_on_chip", "pred_correct_off_chip",
                    "pred_wrong_on_chip", "pred_wrong_off_chip")
    )
    assert distribution_sum == pytest.approx(1.0, abs=1e-6)


def test_scaled_paper_config_ratios():
    config = scaled_paper_config(scale=16)
    assert config.hierarchy.llc.size_bytes == 512 * 1024
    assert config.engine.ctr_cache_bytes == 32 * 1024
    assert config.cosmos.lcr_cache_bytes == 32 * 1024
    assert config.hierarchy.llc.latency == 128  # latencies preserved


def test_scaled_paper_config_rejects_bad_scale():
    with pytest.raises(ValueError):
        scaled_paper_config(scale=0)


def test_with_cores_scales_llc():
    config = scaled_paper_config(scale=16).with_cores(8)
    assert config.hierarchy.num_cores == 8
    # An absolute 2MB per core, whatever LLC the base had: 16MB at 8 cores,
    # 32x the 512KB LLC of the 4-core scaled_paper_config(16).
    assert config.hierarchy.llc.size_bytes == 16 * 1024 * 1024


def test_with_ctr_cache_bytes(non_default_config):
    config = small_test_config().with_ctr_cache_bytes(16 * 1024)
    assert config.engine.ctr_cache_bytes == 16 * 1024
    base = non_default_config
    assert base.with_ctr_cache_bytes(16 * 1024) == replace(
        base, engine=replace(base.engine, ctr_cache_bytes=16 * 1024))


def test_empty_trace_gives_zero_result(tiny_config):
    result = simulate("np", [], tiny_config)
    assert result.accesses == 0
    assert result.ipc == 0.0
    assert result.average_latency == 0.0


def test_normalization_helpers(tiny_config, dfs_trace):
    np_result = simulate("np", dfs_trace, tiny_config)
    secure = simulate("morphctr", dfs_trace, tiny_config)
    normalized = secure.normalized_to(np_result)
    assert 0.0 < normalized < 1.0  # secure memory costs performance
    assert np_result.speedup_over(secure) > 1.0


def test_run_accepts_only_the_one_loop_name(tiny_config, dfs_trace):
    simulator = Simulator(build_design("np", tiny_config), tiny_config)
    for other in ("objects", "auto"):
        with pytest.raises(ValueError):
            simulator.run(dfs_trace, path=other)
    assert simulator.run(dfs_trace, path="arrays").accesses == len(dfs_trace)
