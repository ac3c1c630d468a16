"""RowHammer attack class: planner, boundary scenarios, registry, replay.

The disturbance model's contract (ISSUE 9): flips are earned from
activation pressure, every planned flip is detected by the expected
detector at the expected tree level, benign pressure stays below
threshold, and hammer specs round-trip through the same minimal-JSON
repro pipeline as the five classic tamper kinds.
"""

import json

import pytest

from repro.obs.events import EventRing
from repro.secure.counters import make_counter_scheme
from repro.secure.functional import FunctionalSecureMemory
from repro.verify.attack import AttackHarness
from repro.verify.fuzz import replay, shrink_case, write_repro
from repro.verify.hammer import (
    HammerConfig,
    PhysicalMap,
    boundary_hammer_ops,
    ops_from_trace,
    plan_hammer,
    run_hammer_attack,
    run_hammer_sweep,
)
from repro.verify.tamper import (
    ATTACK_CLASSES,
    ATTACK_KINDS,
    HAMMER_TARGETS,
    TAMPER_KINDS,
    Op,
    TamperSpec,
    affected_blocks,
    expected_detector,
    generate_ops,
    generate_schedule,
)


def _memory(scheme="monolithic", num_blocks=1 << 12):
    return FunctionalSecureMemory(
        num_blocks=num_blocks, scheme=make_counter_scheme(scheme)
    )


# ----------------------------------------------------------------------
# Attack-class registry
# ----------------------------------------------------------------------
def test_registry_covers_six_classes():
    assert set(ATTACK_KINDS) == set(TAMPER_KINDS) | {"hammer"}
    assert len(ATTACK_KINDS) == 6
    for kind, klass in ATTACK_CLASSES.items():
        assert klass.kind == kind


@pytest.mark.parametrize("target,detector", [
    ("data", "mac"), ("ctr", "mt"), ("mt", "mt"),
])
def test_hammer_expected_detector_by_target(target, detector):
    spec = TamperSpec(kind="hammer", inject_at=0, block=0, bit=3, target=target)
    assert expected_detector(spec) == detector


def test_hammer_affected_blocks_by_target():
    memory = _memory()
    bpc = memory.scheme.blocks_per_ctr
    data = TamperSpec(kind="hammer", inject_at=0, block=9, bit=0, target="data")
    assert affected_blocks(data, memory) == {9}
    ctr = TamperSpec(kind="hammer", inject_at=0, block=9, bit=0, target="ctr")
    line = 9 // bpc
    assert affected_blocks(ctr, memory) == set(
        range(line * bpc, min((line + 1) * bpc, memory.num_blocks))
    )
    mt = TamperSpec(kind="hammer", inject_at=0, block=9, bit=0, level=0, target="mt")
    blast = affected_blocks(mt, memory)
    assert 9 in blast
    assert len(blast) > bpc  # parent subtree spans several counter lines


def test_hammer_spec_requires_known_target():
    spec = TamperSpec(kind="hammer", inject_at=0, block=0, bit=0, target="rowclone")
    with pytest.raises(ValueError):
        affected_blocks(spec, _memory())


def test_hammer_spec_json_round_trip():
    spec = TamperSpec(
        kind="hammer", inject_at=17, block=42, bit=129, level=1, target="mt"
    )
    clone = TamperSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert clone == spec
    assert clone.target == "mt"


def test_mixed_classic_and_hammer_schedule_is_clean():
    """The harness handles hammer flips alongside the five classic kinds."""
    import random

    memory = _memory(num_blocks=256)
    rng = random.Random("mixed-schedule")
    ops = generate_ops(rng, num_ops=80, num_blocks=256, footprint_blocks=64,
                       write_fraction=0.7)
    schedule = list(generate_schedule(rng, ops, _memory(num_blocks=256),
                                      max_events=3))
    victim = next(op.block for op in ops if op.is_write)
    schedule.append(TamperSpec(
        kind="hammer", inject_at=len(ops) // 2, block=victim, bit=5,
        target="data",
    ))
    report = AttackHarness(memory).run(ops, schedule)
    assert report.clean, report.failures()
    assert {d.kind for d in report.detections} >= {"hammer"}


# ----------------------------------------------------------------------
# Physical map
# ----------------------------------------------------------------------
def test_physical_map_partitions_space():
    memory = _memory()
    pmap = PhysicalMap(memory)
    assert pmap.classify(0) == ("data", 0)
    assert pmap.classify(pmap.ctr_base) == ("ctr", 0)
    assert pmap.classify(pmap.mt_base) == ("mt", 0, 0)
    assert pmap.classify(pmap.total) is None
    assert pmap.classify(-1) is None
    # Every address classifies back to the encoder that produced it.
    for line in (0, 1, pmap.num_lines - 1):
        assert pmap.classify(pmap.ctr_phys(line)) == ("ctr", line)
    for level, size in enumerate(pmap.level_sizes):
        assert pmap.classify(pmap.mt_phys(level, size - 1)) == ("mt", level, size - 1)
    # The on-chip root is not mapped: internal levels stop one short.
    assert len(pmap.level_sizes) == memory.tree.levels - 1


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------
def test_plan_is_deterministic():
    memory = _memory()
    ops = boundary_hammer_ops(memory, region="data", seed=3)
    first = plan_hammer(ops, _memory(), seed=5)
    second = plan_hammer(ops, _memory(), seed=5)
    assert first.to_dict() == second.to_dict()
    assert first.flips  # the scenario must actually cross threshold


def test_plan_respects_flip_budget():
    memory = _memory()
    config = HammerConfig(max_flips=0)
    ops = boundary_hammer_ops(memory, config, region="data", seed=0)
    plan = plan_hammer(ops, memory, config)
    assert not plan.flips
    assert plan.skipped_budget >= 1


def test_plan_respects_target_filter():
    memory = _memory()
    config = HammerConfig(targets=("mt",))
    ops = boundary_hammer_ops(memory, config, region="data", seed=0)
    plan = plan_hammer(ops, memory, config)
    assert all(f.spec.target == "mt" for f in plan.flips)


def test_no_pressure_no_flips():
    """A stream that never alternates rows never activates twice."""
    memory = _memory()
    ops = [Op(block=0, is_write=True, payload=b"x")] + [
        Op(block=0, is_write=False) for _ in range(500)
    ]
    plan = plan_hammer(ops, memory, HammerConfig(include_metadata=False))
    assert plan.activations == 1
    assert plan.max_pressure <= 1  # the lone ACT pressures its neighbours once
    assert not plan.flips


def test_window_reset_caps_pressure():
    """Pressure cannot accumulate across refresh-window boundaries."""
    memory = _memory()
    # The stream's length scales with its threshold (512 gives 1,094 ops);
    # the plans below use a threshold no stream reaches, so nothing flips.
    base_ops = boundary_hammer_ops(
        memory, HammerConfig(threshold=512), region="data", seed=0
    )
    wide = plan_hammer(base_ops, memory, HammerConfig(threshold=10 ** 6,
                                                      window_ops=10 ** 6))
    narrow = plan_hammer(base_ops, memory, HammerConfig(threshold=10 ** 6,
                                                        window_ops=16))
    assert narrow.max_pressure < wide.max_pressure
    assert narrow.windows > wide.windows


# ----------------------------------------------------------------------
# Boundary scenarios: every region, detected with correct attribution
# ----------------------------------------------------------------------
@pytest.mark.parametrize("region,target,detector", [
    ("data", "data", "mac"),
    ("ctr", None, "mt"),   # a ctr-region row can also hold ctr/mt entities
    ("mt", "mt", "mt"),
])
@pytest.mark.parametrize("scheme", ["monolithic", "split"])
def test_boundary_scenario_detected(region, target, detector, scheme):
    memory = _memory(scheme)
    ops = boundary_hammer_ops(memory, region=region, seed=1)
    events = EventRing()
    plan, report = run_hammer_attack(ops, scheme=scheme, seed=1, events=events)
    assert plan.flips, f"no flips planned for region {region}"
    assert report.clean, report.failures()
    assert len(report.detections) == len(plan.flips)
    if target is not None:
        assert {f.spec.target for f in plan.flips} == {target}
    detected = events.filter("tamper_detected")
    assert len(detected) == len(plan.flips)
    for event in detected:
        assert event["tamper"] == "hammer"
        assert event["latency"] >= 0
        assert "level" in event
        if target == "mt":
            assert event["level"] is not None
    if target == "data":
        assert {d.detector for d in report.detections} == {"mac"}


def test_mt_boundary_attribution_level():
    """An MT-node flip is caught one level above the flipped node."""
    memory = _memory()
    ops = boundary_hammer_ops(memory, region="mt", seed=0)
    plan, report = run_hammer_attack(ops, seed=0)
    mt_flips = [f for f in plan.flips if f.spec.target == "mt"]
    assert mt_flips
    assert report.clean, report.failures()
    for detection in report.detections:
        spec = report.schedule[detection.spec_index]
        if spec.target == "mt":
            assert detection.level in (spec.level + 1, spec.level + 2)


def test_boundary_rejects_unknown_region():
    with pytest.raises(ValueError):
        boundary_hammer_ops(_memory(), region="mram")


# ----------------------------------------------------------------------
# Sweep
# ----------------------------------------------------------------------
def test_sweep_is_clean_and_covers_targets():
    summary = run_hammer_sweep(seed=0, accesses=900)
    assert summary["clean"], summary["failures"]
    assert set(summary["by_target"]) == set(HAMMER_TARGETS)
    below = summary["scenarios"]["below-threshold"]
    assert below["planned"] == 0
    assert below["max_pressure"] < HammerConfig().threshold
    for name, detail in summary["scenarios"].items():
        assert detail["false_negatives"] == 0, name
        assert detail["false_positives"] == 0, name
        assert detail["misattributions"] == 0, name
        assert detail["injected"] == detail["detected"], name


def test_sweep_reproducible():
    first = run_hammer_sweep(seed=2, accesses=600)
    second = run_hammer_sweep(seed=2, accesses=600)
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


# ----------------------------------------------------------------------
# Repro pipeline: write, replay, shrink
# ----------------------------------------------------------------------
def test_hammer_schedule_replays_from_repro_file(tmp_path):
    memory = _memory()
    ops = boundary_hammer_ops(memory, region="ctr", seed=4)
    plan = plan_hammer(ops, _memory(), seed=4)
    assert plan.flips
    path = tmp_path / "repro-0-0-hammer.json"
    write_repro(path, 0, 0, "monolithic", 1 << 12, ops, plan.schedule,
                ["recorded failure"])
    failures, report = replay(path)
    assert failures == []  # the contract holds, so the replay is clean
    assert report is not None and report.clean
    assert {d.kind for d in report.detections} == {"hammer"}
    # The file itself carries the sixth kind with its target intact.
    case = json.loads(path.read_text())
    assert {s["kind"] for s in case["schedule"]} == {"hammer"}
    assert all(s["target"] in HAMMER_TARGETS for s in case["schedule"])


def test_shrink_preserves_failing_hammer_spec(monkeypatch):
    """Generic shrinking minimises a hammer case without dropping the kind."""
    from repro.verify import fuzz as fuzz_module

    memory = _memory()
    ops = boundary_hammer_ops(memory, region="data", seed=2)
    plan = plan_hammer(ops, _memory(), seed=2)
    assert plan.flips
    extra = TamperSpec(kind="bitflip", inject_at=1, block=ops[0].block, bit=0)
    schedule = [extra] + plan.schedule

    real = fuzz_module._attack_failures

    def fake_failures(scheme_name, num_blocks, candidate_ops, candidate_schedule):
        # Pretend the bug only reproduces while a hammer spec is present.
        if any(s.kind == "hammer" for s in candidate_schedule):
            return ["synthetic hammer failure"], None
        return real(scheme_name, num_blocks, candidate_ops, candidate_schedule)

    monkeypatch.setattr(fuzz_module, "_attack_failures", fake_failures)
    min_ops, min_schedule = shrink_case("monolithic", 1 << 12, list(ops), schedule)
    assert any(s.kind == "hammer" for s in min_schedule)
    assert all(s.kind == "hammer" for s in min_schedule)  # bitflip dropped
    assert len(min_ops) < len(ops)  # trace actually minimised
