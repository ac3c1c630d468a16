"""The paired perfbench comparison (``python -m repro.bench.perf --against REV``).

The command is driven end to end on a throwaway git repository whose
``perfbench/run.py`` is a stub: it prints ``work`` lines and a final JSON
report built from ``stub.json`` in its own tree, and appends its tree and
arguments to a log outside both trees.  So the tests see which tree ran
when, and with what, without simulating anything.
"""

import json
import subprocess
from pathlib import Path

import pytest

from repro.bench.perf import main, tally, verdict

STUB_RUN = """
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
with open(LOG, "a") as log:
    log.write(json.dumps({"tree": str(ROOT), **args}) + "\\n")
state = json.loads((ROOT / "stub.json").read_text())
print("work stub: " + json.dumps(state["work"]))
print(json.dumps({"correct": state["correct"], "attempted": 1, "failed": 0, "metrics": {
    "acc_per_s.stub": {"value": state["speed"], "unit": "1/s"},
    "peak_rss_mb": {"value": 100.0, "unit": "MiB"},
}}))
"""

BENCHMARK = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 0.5,
    "workloads": [{"name": "alpha"}, {"name": "beta"}],
    "end_to_end": [
        {"name": "acc_per_s.stub", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
    ],
}

STATE = {"speed": 100.0, "correct": True, "work": {"result_sha256": "abc"}}


def _git(repo, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
                           "-c", "commit.gpgsign=false", *args],
                          cwd=repo, check=True, capture_output=True, text=True).stdout


def _write_state(repo, **changes):
    (repo / "stub.json").write_text(json.dumps({**STATE, **changes}))


@pytest.fixture
def stub_repo(tmp_path, monkeypatch):
    """A committed repo with a stub benchmark; cwd is inside it.  Returns (repo, log)."""
    repo = tmp_path / "repo"
    log = tmp_path / "calls.log"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(f"LOG = {str(log)!r}\n" + STUB_RUN)
    (repo / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    _write_state(repo)
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "stub benchmark")
    monkeypatch.chdir(repo)
    return repo.resolve(), log


def _compare(capsys, *args):
    code = main(["--against", "HEAD", *args])
    out = capsys.readouterr().out
    return code, out, json.loads(out.splitlines()[-1])


def _calls(log):
    return [json.loads(line) for line in log.read_text().splitlines()]


def test_pairs_alternate_and_each_side_runs_its_own_tree(stub_repo, capsys):
    repo, log = stub_repo
    _write_state(repo, speed=150.0)
    code, _, report = _compare(capsys, "--pairs", "4", "--seed", "3")
    assert code == 0
    calls = _calls(log)
    assert len(calls) == 2 * 2 * 4
    assert {(c["--seconds"], c["--seed"], c["--trace"]) for c in calls} == {("0.5", "3", "0")}
    rev_trees = {c["tree"] for c in calls if c["tree"] != str(repo)}
    assert len(rev_trees) == 1
    rev_tree = rev_trees.pop()
    assert not Path(rev_tree).exists()  # the extracted tree is cleaned up
    for workload in ("alpha", "beta"):
        order = ["rev" if c["tree"] == rev_tree else "this"
                 for c in calls if c["--workload"] == workload]
        assert order == ["rev", "this", "this", "rev"] * 2
    # REV's tree reported REV's committed number, this checkout its edit.
    metric = report["workloads"]["alpha"]["metrics"]["acc_per_s.stub"]
    assert metric["rev"][1] == 100.0 and metric["this"][1] == 150.0
    assert metric["ratio"] == pytest.approx(1.5)


def test_faster_tree_is_a_gain(stub_repo, capsys):
    repo, _ = stub_repo
    _write_state(repo, speed=150.0)
    code, out, report = _compare(capsys, "--pairs", "2", "--workload", "beta")
    assert code == 0
    assert list(report["workloads"]) == ["beta"]
    metrics = report["workloads"]["beta"]["metrics"]
    assert metrics["acc_per_s.stub"]["verdict"] == "gain"
    assert (metrics["acc_per_s.stub"]["won"], metrics["acc_per_s.stub"]["lost"]) == (2, 0)
    assert metrics["peak_rss_mb"]["verdict"] == "unchanged"
    assert metrics["peak_rss_mb"]["tied"] == 2
    assert report["workloads"]["beta"]["work_identical"]
    assert "work fingerprints identical" in out
    assert report["correct"] and report["regressions"] == []


def test_slower_tree_is_a_regression(stub_repo, capsys):
    repo, _ = stub_repo
    _write_state(repo, speed=80.0)
    code, out, report = _compare(capsys, "--pairs", "2")
    assert code == 1
    assert report["regressions"] == ["alpha:acc_per_s.stub", "beta:acc_per_s.stub"]
    assert "regression" in out


def test_incorrect_run_fails(stub_repo, capsys):
    repo, _ = stub_repo
    _write_state(repo, correct=False)
    code, _, report = _compare(capsys, "--pairs", "2", "--workload", "alpha")
    assert code == 1
    assert report["correct"] is False
    assert report["regressions"] == []


def test_differing_work_is_reported(stub_repo, capsys):
    repo, _ = stub_repo
    _write_state(repo, work={"result_sha256": "def"})
    code, out, report = _compare(capsys, "--pairs", "2", "--workload", "alpha")
    assert code == 0
    assert report["workloads"]["alpha"]["work_identical"] is False
    assert report["workloads"]["alpha"]["work_differs"] == ["stub"]
    assert "work fingerprints NOT identical (stub)" in out


@pytest.mark.parametrize("edited", ["perfbench/run.py", "BENCHMARK.json"])
def test_edited_benchmark_runs_nothing(stub_repo, capsys, edited):
    repo, log = stub_repo
    with open(repo / edited, "a") as handle:
        handle.write("\n")
    assert main(["--against", "HEAD", "--pairs", "2"]) == 2
    assert edited in capsys.readouterr().err
    assert not log.exists()


def test_revision_without_perfbench_runs_nothing(stub_repo, capsys):
    repo, log = stub_repo
    _git(repo, "rm", "-q", "-r", "perfbench")
    _git(repo, "commit", "-q", "-m", "no benchmark")
    without = _git(repo, "rev-parse", "HEAD").strip()
    _git(repo, "checkout", "-q", "HEAD~1")
    assert main(["--against", without, "--pairs", "2"]) == 2
    assert "has no perfbench/run.py" in capsys.readouterr().err
    assert not log.exists()


def test_old_harness_options_are_gone():
    with pytest.raises(SystemExit) as raised:
        main(["--n", "2000"])
    assert raised.value.code == 2


class TestVerdict:
    def test_clear_gain_both_directions(self):
        rev = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]
        faster = [value * 1.3 for value in rev]
        assert verdict(rev, faster, "higher", 0.24) == "gain"
        assert verdict(rev, [value / 1.3 for value in rev], "lower", 0.25) == "gain"
        assert tally(rev, faster, "higher") == (10, 0, 0)

    def test_regression(self):
        rev = [100.0, 101.0, 99.0, 100.0]
        assert verdict(rev, [70.0, 71.0, 69.0, 70.0], "higher", 0.24) == "regression"
        assert verdict(rev, [130.0, 131.0, 129.0, 130.0], "lower", 0.25) == "regression"

    def test_identical_samples_are_all_ties_and_unchanged(self):
        same = [0.4472] * 3
        assert tally(same, same, "higher") == (0, 0, 3)
        assert verdict(same, same, "higher", 0.1) == "unchanged"

    def test_ties_count_for_neither_side(self):
        # The medians are far apart either way.  With 9 of 10 pairs won and
        # one tied it is a gain; with 8 won and 2 tied it is not, and as this
        # side spreads wider than the bound and its tied runs do not beat
        # every REV run, the metric is unresolved.
        rev = [100.0, 101.0] * 5
        nine = [150.0, 190.0] * 4 + [150.0, 101.0]
        assert tally(rev, nine, "higher") == (9, 0, 1)
        assert verdict(rev, nine, "higher", 0.24) == "gain"
        eight = [150.0, 190.0] * 4 + [100.0, 101.0]
        assert tally(rev, eight, "higher") == (8, 0, 2)
        assert verdict(rev, eight, "higher", 0.24) == "unresolved"

    def test_noise_wider_than_bound_is_unresolved(self):
        rev = [100.0, 160.0, 90.0, 150.0]
        this = [155.0, 95.0, 145.0, 98.0]
        assert verdict(rev, this, "higher", 0.24) == "unresolved"

    def test_beating_every_run_overrides_noise(self):
        # REV spreads wider than the bound and the median moves by less than
        # REV's IQR (not a gain), but every run of this checkout beats every
        # REV run, so the metric is not unresolved.
        rev = [100.0, 130.0, 100.0, 130.0]
        this = [131.0] * 4
        assert verdict(rev, this, "higher", 0.24) == "unchanged"
