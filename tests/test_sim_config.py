"""Tests for simulation configuration (Table 3 encoding and scaling)."""

from dataclasses import replace

import pytest

from repro.core.config import CosmosConfig, Hyperparameters
from repro.sim.config import CpuModel, SimulationConfig, scaled_paper_config


class TestDefaults:
    def test_table3_memory_parameters(self):
        config = SimulationConfig()
        assert config.memory_bytes == 32 * 1024**3  # 32 GB
        assert config.counter_scheme == "morphctr"

    def test_table3_engine_parameters(self):
        config = SimulationConfig()
        assert config.engine.ctr_cache_bytes == 512 * 1024
        assert config.engine.aes_latency == 40
        assert config.engine.auth_latency == 40
        assert config.engine.ctr_combine_latency == 1  # MorphCtr combination

    def test_table1_cosmos_parameters(self):
        config = SimulationConfig()
        hyper = config.cosmos.hyper
        assert (hyper.alpha_d, hyper.gamma_d, hyper.epsilon_d) == (0.09, 0.88, 0.1)
        assert (hyper.alpha_c, hyper.gamma_c, hyper.epsilon_c) == (0.05, 0.35, 0.001)

    def test_cpu_model_defaults(self):
        cpu = CpuModel()
        assert cpu.frequency_ghz == 3.0
        assert cpu.mlp_factor > 1.0


class TestScaling:
    def test_scale_preserves_ratios(self):
        config = scaled_paper_config(scale=16)
        llc = config.hierarchy.llc.size_bytes
        assert llc == 8 * 1024 * 1024 // 16
        # CTR cache keeps its 1/16-of-LLC ratio.
        assert config.engine.ctr_cache_bytes == llc // 16

    def test_scale_one_is_full_size(self):
        config = scaled_paper_config(scale=1)
        assert config.hierarchy.llc.size_bytes == 8 * 1024 * 1024
        assert config.engine.ctr_cache_bytes == 512 * 1024

    def test_floors_protect_tiny_scales(self):
        config = scaled_paper_config(scale=10_000)
        assert config.hierarchy.l1.size_bytes >= 2048
        assert config.engine.ctr_cache_bytes >= 4096

    def test_latencies_not_scaled(self):
        for scale in (1, 16, 64):
            config = scaled_paper_config(scale=scale)
            assert config.hierarchy.l1.latency == 2
            assert config.hierarchy.l2.latency == 20
            assert config.hierarchy.llc.latency == 128


class TestHyperparameterValidation:
    def test_rejects_out_of_range_alpha(self):
        with pytest.raises(ValueError):
            Hyperparameters(alpha_d=0.0)
        with pytest.raises(ValueError):
            Hyperparameters(gamma_c=1.5)

    def test_rejects_out_of_range_epsilon(self):
        with pytest.raises(ValueError):
            Hyperparameters(epsilon_d=-0.1)
        with pytest.raises(ValueError):
            Hyperparameters(epsilon_c=1.0001)


class TestCosmosConfigDefaults:
    def test_table2_structure_sizes(self):
        config = CosmosConfig()
        assert config.num_states == 16384
        assert config.cet_entries == 8192

    def test_lcr_cache_per_core_reading(self):
        # 128KB per core x 4 cores (see EXPERIMENTS.md interpretation #1).
        assert CosmosConfig().lcr_cache_bytes == 512 * 1024

    def test_with_cores_preserves_other_fields(self, non_default_config):
        base = scaled_paper_config(scale=16)
        eight = base.with_cores(8)
        assert eight.engine.ctr_cache_bytes == base.engine.ctr_cache_bytes
        assert eight.cosmos is base.cosmos
        assert eight.hierarchy.l1.size_bytes == base.hierarchy.l1.size_bytes
        base = replace(base, hierarchy=replace(base.hierarchy, l2_prefetcher="none"))
        for scale_llc in (True, False):
            assert base.with_cores(4, scale_llc=scale_llc).hierarchy.l2_prefetcher == "none"
        # Each copy equals dataclasses.replace on a config whose every
        # top-level field is non-default.
        base = non_default_config
        hierarchy = replace(base.hierarchy, num_cores=8)
        assert base.with_cores(8, scale_llc=False) == replace(base, hierarchy=hierarchy)
        scaled = replace(hierarchy, llc=replace(hierarchy.llc, size_bytes=16 * 1024 * 1024))
        assert hierarchy.scaled_llc_for_cores() == scaled
        assert base.with_cores(8) == replace(base, hierarchy=scaled)
