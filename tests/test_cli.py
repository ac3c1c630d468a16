"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import EXPERIMENTS, build_parser, main
from repro.bench import runner


@pytest.fixture(autouse=True)
def tiny_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_LEN", "2000")
    monkeypatch.setenv("REPRO_GRAPH_SCALE", "0.03")
    monkeypatch.setattr(runner, "CACHE_DIR", tmp_path / "traces")
    runner._MEMORY_CACHE.clear()
    runner._RESULT_CACHE.clear()
    yield
    runner._MEMORY_CACHE.clear()
    runner._RESULT_CACHE.clear()


def test_every_figure_and_table_has_a_cli_entry():
    expected = {f"fig{n}" for n in (2, 3, 4, 5, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17)}
    expected |= {"tab1", "tab2", "tab4"}
    assert expected <= set(EXPERIMENTS)


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "cosmos" in out
    assert "fig10" in out
    assert "dfs" in out


def test_simulate_command(capsys):
    assert main(["simulate", "-d", "morphctr", "-w", "dfs", "-n", "1500"]) == 0
    out = capsys.readouterr().out
    assert "morphctr" in out
    assert "ctr_miss_rate" in out


def test_reproduce_single_experiment(capsys):
    assert main(["reproduce", "tab2"]) == 0
    assert "Table 2" in capsys.readouterr().out


def test_reproduce_unknown_experiment(capsys):
    assert main(["reproduce", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_simulate_with_obs_writes_artifacts(tmp_path, monkeypatch, capsys):
    from repro.obs.artifacts import list_jobs, obs_root

    monkeypatch.setenv("REPRO_OBS_INTERVAL", "500")
    assert main(["simulate", "-d", "morphctr", "-w", "dfs", "-n", "1500",
                 "--obs"]) == 0
    jobs = list_jobs(obs_root(runner.cache_dir()))
    assert len(jobs) == 1
    assert (jobs[0] / "timeseries.npz").is_file()
    assert (jobs[0] / "spans.trace.json").is_file()
    capsys.readouterr()

    # The obs subcommands read those artifacts back.
    assert main(["obs", "summarize"]) == 0
    out = capsys.readouterr().out
    assert "morphctr/dfs" in out
    assert "latest manifest" in out

    assert main(["obs", "dump", "0"]) == 0
    out = capsys.readouterr().out
    assert "ctr_hit_rate" in out

    assert main(["obs", "plot", "0", "ctr_hit_rate"]) == 0
    assert "ctr_hit_rate" in capsys.readouterr().out


def test_obs_summarize_explicit_manifest(tmp_path, monkeypatch, capsys):
    from repro.obs.artifacts import latest_manifest

    monkeypatch.setenv("REPRO_OBS_INTERVAL", "500")
    assert main(["simulate", "-d", "morphctr", "-w", "dfs", "-n", "1500",
                 "--obs"]) == 0
    capsys.readouterr()

    manifest = latest_manifest(runner.cache_dir() / "manifests")
    assert manifest is not None
    assert main(["obs", "summarize", str(manifest)]) == 0
    out = capsys.readouterr().out
    assert f"manifest: {manifest.name} (v3)" in out
    assert "span tree" in out


def test_obs_summarize_missing_manifest_path(tmp_path, capsys):
    assert main(["obs", "--cache-dir", str(tmp_path), "summarize",
                 str(tmp_path / "nope.json")]) == 2
    assert "no manifest at" in capsys.readouterr().err


def test_obs_summarize_empty_cache(tmp_path, capsys):
    assert main(["obs", "--cache-dir", str(tmp_path), "summarize"]) == 0
    assert "no observability artifacts" in capsys.readouterr().out


def test_obs_dump_unknown_job(tmp_path, capsys):
    assert main(["obs", "--cache-dir", str(tmp_path), "dump", "zzz"]) == 2
    assert "no unique job" in capsys.readouterr().err
