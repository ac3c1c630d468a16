"""Smoke tests for the per-figure experiment harness (tiny settings).

These run every experiment function end-to-end on miniature traces; the
full-scale shape assertions live in ``benchmarks/``.
"""

import pytest

from repro.bench import experiments, runner


@pytest.fixture(autouse=True)
def tiny_experiments(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_LEN", "4000")
    monkeypatch.setenv("REPRO_GRAPH_SCALE", "0.05")
    monkeypatch.setattr(runner, "CACHE_DIR", tmp_path / "traces")
    runner._MEMORY_CACHE.clear()
    runner._RESULT_CACHE.clear()
    yield
    runner._MEMORY_CACHE.clear()
    runner._RESULT_CACHE.clear()


def test_figure2_rows(capsys):
    rows = experiments.figure2(workloads=["dfs", "bfs"])
    assert len(rows) == 2
    assert all(0.0 <= row["ctr_miss_rate"] <= 1.0 for row in rows)
    assert "Figure 2" in capsys.readouterr().out


def test_figure3_rows():
    rows = experiments.figure3(workloads=["dfs"], sizes_kb=[8, 16], quiet=True)
    assert [row["ctr_cache_kb"] for row in rows] == [8, 16]
    assert rows[1]["dfs_miss"] <= rows[0]["dfs_miss"] + 0.05


def test_figure4_rows():
    rows = experiments.figure4(workloads=["dfs"], quiet=True)
    assert rows[0]["workload"] == "dfs"
    assert rows[0]["rw_traffic_ratio"] > 0


def test_figure5_rows():
    rows = experiments.figure5(quiet=True)
    assert [row["variant"] for row in rows][:2] == ["baseline-lru", "next_line"]
    assert len(rows) == 7


def test_figure8_series():
    rows = experiments.figure8(workloads=["bfs"], snapshots=2, quiet=True)
    assert rows[-1]["accesses"] >= rows[0]["accesses"]
    assert all(0.0 <= row["prediction_correctness"] <= 1.0 for row in rows)


def test_figure9_rows():
    rows = experiments.figure9(cet_sizes=[64, 256], quiet=True)
    assert rows[1]["good_locality_pct"] >= 0.0


def test_figure10_geomean_row():
    rows = experiments.figure10(workloads=["dfs"], quiet=True)
    assert rows[-1]["workload"] == "geomean"
    for design in ("morphctr", "cosmos-dp", "cosmos-cp", "cosmos"):
        assert 0.0 < rows[-1][design] <= 1.5


def test_figure11_rows():
    rows = experiments.figure11(workloads=["dfs"], quiet=True)
    assert set(rows[0]) == {"workload", "morphctr", "cosmos-dp", "cosmos-cp", "cosmos"}


def test_figure12_distribution_sums():
    rows = experiments.figure12(workloads=["dfs"], quiet=True)
    row = rows[0]
    total = (row["correct_on_chip"] + row["correct_off_chip"]
             + row["wrong_on_chip"] + row["wrong_off_chip"])
    assert total == pytest.approx(1.0, abs=1e-6)


def test_figure13_rows():
    rows = experiments.figure13(workloads=["dfs"], quiet=True)
    assert 0.0 <= rows[0]["cosmos_good_pct"] <= 100.0


def test_figure14_smat_positive():
    rows = experiments.figure14(workloads=["dfs"], quiet=True)
    for design in ("morphctr", "cosmos"):
        assert rows[0][design] > 0


def test_figure15_rows():
    rows = experiments.figure15(workloads=["dfs"], core_counts=[2], quiet=True)
    geomean = [row for row in rows if row["workload"] == "geomean"]
    assert len(geomean) == 1
    assert geomean[0]["cosmos_gain"] > 0


def test_figure16_rows():
    rows = experiments.figure16(workloads=["dfs"], quiet=True)
    assert rows[-1]["workload"] == "geomean"
    assert rows[-1]["emcc"] > 0


def test_figure17_rows():
    rows = experiments.figure17(workloads=["dlrm"], quiet=True)
    assert rows[0]["cosmos_gain"] > 0.5


def test_table1_rows():
    rows = experiments.table1(n_combinations=2, footprint_len=1500, quiet=True)
    assert rows[0]["stage"] == "stage1-best-hyper"
    assert rows[1]["alpha_d"] == 0.09  # the published values


def test_table2_rows():
    rows = experiments.table2(quiet=True)
    assert rows[-1]["component"] == "total"


def test_table4_rows():
    rows = experiments.table4(quiet=True)
    assert len(rows) == 8


def test_ablation_counter_schemes():
    rows = experiments.ablation_counter_schemes(quiet=True)
    assert {row["scheme"] for row in rows} == {"monolithic", "split", "morphctr"}


def test_ablation_mt_cache():
    rows = experiments.ablation_mt_cache(quiet=True)
    assert rows[0]["mt_cache_kb"] == 0
    assert rows[0]["mt_reads"] >= rows[-1]["mt_reads"]


def test_ablation_exploration():
    rows = experiments.ablation_exploration(quiet=True)
    assert len(rows) == 5


def test_ablation_hybrid():
    rows = experiments.ablation_hybrid(quiet=True)
    assert {row["design"] for row in rows} == {"morphctr", "emcc", "cosmos", "cosmos-early"}


def test_ablation_paging():
    rows = experiments.ablation_paging(quiet=True)
    assert {row["page_mapping"] for row in rows} == {"identity", "first_touch", "randomized"}


def test_generality_db():
    rows = experiments.generality_db(quiet=True)
    assert len(rows) == 3
    assert all(row["cosmos_gain"] > 0 for row in rows)


def test_ablation_lcr_policy():
    rows = experiments.ablation_lcr_policy(quiet=True)
    assert {row["policy"] for row in rows} == {
        "lru-plain", "lcr-literal", "lcr-score+aging", "lcr-recency+aging"
    }


def test_ablation_lcr_rows_are_distinct_policies():
    rows = {row["policy"]: row for row in experiments.ablation_lcr_policy(quiet=True)}
    lcr = [rows[name] for name in ("lcr-literal", "lcr-score+aging", "lcr-recency+aging")]
    assert len({(row["aging"], row["bad_selection"]) for row in lcr}) == 3
    assert rows["lcr-recency+aging"]["aging"] > 0
    assert rows["lcr-recency+aging"]["bad_selection"] == "lru"


def test_ablation_synergy():
    rows = experiments.ablation_synergy(quiet=True)
    by_name = {row["design"]: row for row in rows}
    assert by_name["synergy"]["mac_accesses"] == 0


def test_ablation_cpu_model():
    rows = experiments.ablation_cpu_model(quiet=True)
    assert len(rows) == 9
    assert all(row["cosmos_gain"] > 0 for row in rows)
