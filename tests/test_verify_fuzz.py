"""Fuzz driver: byte-reproducibility, shrinking, repro files, CLI wiring.

The fuzzer's contract is that ``(seed, budget)`` fully determines its
output — CI replays the same campaign on every run — and that when a
check *does* fail, the minimised repro file on disk re-executes the
failure bit-for-bit.  Real failures are manufactured here by disabling
verify-on-write, which reopens the rollback-heal channel.
"""

import json

import pytest

from repro.__main__ import main
from repro.secure.counters import make_counter_scheme
from repro.secure.functional import FunctionalSecureMemory
from repro.verify import Op, TamperSpec, replay, run_fuzz, shrink_case
from repro.verify import fuzz as fuzz_module
from repro.verify.fuzz import _attack_failures, write_repro


def test_fuzz_summary_is_byte_reproducible(tmp_path):
    first = run_fuzz(seed=3, budget=4, out_dir=tmp_path / "a")
    second = run_fuzz(seed=3, budget=4, out_dir=tmp_path / "b")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_quick_budget_campaign_is_clean_and_detects_everything(tmp_path):
    summary = run_fuzz(seed=11, budget=6, out_dir=tmp_path / "repros")
    assert summary["clean"], summary["failing_trials"]
    assert summary["injections"] == summary["detections"] > 0
    assert summary["schemes_checked"] == ["monolithic", "morphctr", "split"]
    assert summary["repro_files"] == []
    # Clean campaigns leave no repro files behind.
    assert not (tmp_path / "repros").exists()


def test_campaign_includes_hammer_leg(tmp_path):
    """Every trial also plans and detects activation-earned flips."""
    summary = run_fuzz(seed=11, budget=4, out_dir=tmp_path / "repros")
    assert summary["clean"], summary["failing_trials"]
    assert summary["hammer_injections"] == summary["hammer_detections"] > 0


def test_different_seeds_produce_different_campaigns(tmp_path):
    a = run_fuzz(seed=0, budget=3, out_dir=tmp_path / "a")
    b = run_fuzz(seed=1, budget=3, out_dir=tmp_path / "b")
    assert a["injections"] != b["injections"] or a["detections"] != b["detections"]


# ----------------------------------------------------------------------
# Spec serialisation
# ----------------------------------------------------------------------
def test_op_and_spec_round_trip_through_json():
    op = Op(block=5, is_write=True, payload=b"\x00\xffdata")
    assert Op.from_dict(json.loads(json.dumps(op.to_dict()))) == op
    read_op = Op(block=9, is_write=False)
    assert Op.from_dict(json.loads(json.dumps(read_op.to_dict()))) == read_op
    spec = TamperSpec(kind="rollback", inject_at=7, block=3, snapshot_at=2)
    assert TamperSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


# ----------------------------------------------------------------------
# Shrinking and repro replay (against a genuinely broken memory)
# ----------------------------------------------------------------------
def _unverified_memory(scheme_name: str, num_blocks: int) -> FunctionalSecureMemory:
    # verify_writes=False reopens the rollback-heal channel: a write to
    # the rolled-back line silently accepts the replayed counters.
    return FunctionalSecureMemory(
        num_blocks=num_blocks,
        scheme=make_counter_scheme(scheme_name),
        verify_writes=False,
    )


def _rollback_heal_case():
    # Blocks 0 and 1 share monolithic line 0.  Snapshot after the first
    # write; two more writes move the line on; the rollback lands right
    # before a write to the line, which heals the replay undetectably.
    ops = [
        Op(block=0, is_write=True, payload=b"victim"),
        Op(block=1, is_write=True, payload=b"w1"),
        Op(block=1, is_write=True, payload=b"w2"),
        Op(block=1, is_write=True, payload=b"heal"),
        # Padding the shrinker can discard.
        Op(block=20, is_write=True, payload=b"noise"),
        Op(block=20, is_write=False),
        Op(block=0, is_write=False),
        Op(block=20, is_write=False),
    ]
    schedule = [TamperSpec(kind="rollback", inject_at=3, block=0, snapshot_at=1)]
    return ops, schedule


def test_broken_memory_yields_false_negative_failures(monkeypatch):
    monkeypatch.setattr(fuzz_module, "_make_memory", _unverified_memory)
    ops, schedule = _rollback_heal_case()
    failures, report = _attack_failures("monolithic", 64, ops, schedule)
    assert failures
    assert report is not None and report.false_negatives


def test_shrink_produces_a_smaller_still_failing_case(monkeypatch):
    monkeypatch.setattr(fuzz_module, "_make_memory", _unverified_memory)
    ops, schedule = _rollback_heal_case()
    min_ops, min_schedule = shrink_case("monolithic", 64, list(ops), list(schedule))
    assert len(min_ops) < len(ops)
    assert min_schedule == schedule  # the one event is essential
    failures, _ = _attack_failures("monolithic", 64, min_ops, min_schedule)
    assert failures


def test_repro_file_round_trips_and_replays_the_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(fuzz_module, "_make_memory", _unverified_memory)
    ops, schedule = _rollback_heal_case()
    failures, _ = _attack_failures("monolithic", 64, ops, schedule)
    path = tmp_path / "repro-0-0.json"
    write_repro(path, seed=0, trial=0, scheme_name="monolithic", num_blocks=64,
                ops=ops, schedule=schedule, failures=failures)
    case = json.loads(path.read_text())
    assert case["version"] == 1
    assert case["scheme"] == "monolithic"
    replay_failures, replay_report = replay(path)
    assert replay_failures
    assert replay_report is not None and replay_report.false_negatives


def test_replay_rejects_unknown_repro_versions(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 999}))
    with pytest.raises(ValueError):
        replay(path)


# ----------------------------------------------------------------------
# CLI wiring (python -m repro verify ...)
# ----------------------------------------------------------------------
def test_cli_fuzz_prints_summary_and_exits_zero(tmp_path, capsys):
    code = main(["verify", "fuzz", "--seed", "7", "--budget", "3",
                 "--out", str(tmp_path / "repros")])
    summary = json.loads(capsys.readouterr().out)
    assert code == 0
    assert summary["clean"]
    assert summary["seed"] == 7 and summary["budget"] == 3


def test_cli_attack_reports_clean_run(capsys):
    code = main(["verify", "attack", "--seed", "5", "--ops", "60",
                 "--events", "3", "--blocks", "128", "--scheme", "split"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["false_negatives"] == []
    assert len(report["detections"]) == len(report["schedule"]) > 0


def test_cli_diff_checks_invariants(capsys):
    code = main(["verify", "diff", "--design", "cosmos", "--seed", "2",
                 "--accesses", "300"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["invariants"]["matched"]


def test_cli_hammer_single_pattern_detects_planned_flips(tmp_path, capsys):
    out = tmp_path / "hammer.json"
    code = main(["verify", "hammer", "--pattern", "hammer-double", "--seed", "4",
                 "--accesses", "900", "--out", str(out)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["plan"]["flips"]
    assert payload["report"]["false_negatives"] == []
    assert payload["report"]["false_positives"] == []
    assert payload["report"]["misattributions"] == []
    assert len(payload["report"]["detections"]) == len(payload["plan"]["flips"])
    assert json.loads(out.read_text())["plan"] == payload["plan"]


def test_cli_replay_exit_codes_track_failures(tmp_path, capsys, monkeypatch):
    ops, schedule = _rollback_heal_case()
    failing = tmp_path / "failing.json"
    monkeypatch.setattr(fuzz_module, "_make_memory", _unverified_memory)
    failures, _ = _attack_failures("monolithic", 64, ops, schedule)
    write_repro(failing, seed=0, trial=0, scheme_name="monolithic", num_blocks=64,
                ops=ops, schedule=schedule, failures=failures)
    assert main(["verify", "replay", str(failing)]) == 1
    capsys.readouterr()
    # The same case on a healthy memory is caught — replay reports clean.
    monkeypatch.setattr(fuzz_module, "_make_memory", _healthy_memory)
    assert main(["verify", "replay", str(failing)]) == 0


def _healthy_memory(scheme_name: str, num_blocks: int) -> FunctionalSecureMemory:
    return FunctionalSecureMemory(
        num_blocks=num_blocks, scheme=make_counter_scheme(scheme_name)
    )
