"""Tests for the closed-form DRAM check (repro.verify.dram)."""

import json
from dataclasses import asdict, replace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.mem.dram import DramModel, DramTimings
from repro.verify import dram as check
from repro.verify.dram import GEOMETRY, PATTERNS, expect, measure, run_check, sweep

#: DDR5-4800 at a 3 GHz core clock: tCL=tRCD=tRP ~16.7 ns, tCWL ~15.6 ns,
#: tWR 30 ns, same-bank refresh tREFI/2 = 3.9 us, tRFC 295 ns, and a BL16
#: burst at 4800 MT/s (~3.3 ns); 32 banks.
DDR5 = DramTimings(
    cas=50, rcd=50, rp=50, burst=10, cwl=47, wr=90, turnaround=8,
    queue_penalty=6, refresh_interval=11_700, refresh_cycles=885,
)

#: The twin that patterns 1-4 run on: no refresh, no queue penalty.
TWIN = replace(DramTimings(), refresh_interval=0, queue_penalty=0)


@pytest.fixture(scope="module")
def ddr4():
    return run_check()


def measured(report, pattern):
    return [point["measured"] for point in report["points"]
            if point["pattern"] == pattern]


def failing(expected, timings):
    """Patterns with a point where a model built from ``timings`` misses
    the closed form derived from ``expected``."""
    return {
        pattern
        for pattern in PATTERNS
        for x in sweep(pattern, expected, GEOMETRY)
        if measure(pattern, x, timings, GEOMETRY) != expect(pattern, x, expected, GEOMETRY)
    }


# ----------------------------------------------------------------------
# The streams
# ----------------------------------------------------------------------
class TestPatterns:
    def test_row_hit_ladder_monotone_decreasing(self, ddr4):
        sums = measured(ddr4, "read_ladder")
        assert all(a > b for a, b in zip(sums, sums[1:]))
        timings, n = DramTimings(), check.LADDER_REQUESTS
        assert sums[0] == n * timings.row_miss_latency  # k = 1: every read misses
        assert sums[-1] > n * timings.row_hit_latency

    def test_row_hit_ladder_hit_rates_match_rung(self):
        n = check.LADDER_REQUESTS
        for k in (1, 4, 32):
            model = DramModel(timings=TWIN)
            check._ladder(model, k, is_write=False)
            assert model.stats.row_hits == n - -(-n // k)

    def test_turnaround_sweep_monotone_decreasing(self, ddr4):
        sums = measured(ddr4, "turnaround_sweep")
        assert all(a > b for a, b in zip(sums, sums[1:]))

    def test_turnaround_sweep_counts_grant_order_switches(self):
        # Every direction switch delays a burst in this bus-saturating
        # stream, so the counted turnarounds equal the commanded switches.
        for period in (1, 4, 16):
            model = DramModel(timings=TWIN)
            check._turnaround(model, period)
            assert model.stats.turnarounds == (check.TURNAROUND_REQUESTS - 1) // period

    def test_turnaround_sweep_detects_broken_accounting(self):
        broken = replace(DramTimings(), turnaround=0)
        assert failing(DramTimings(), broken) == {"turnaround_sweep"}

    def test_blp_curve_flattens_at_num_banks(self, ddr4):
        points = [p for p in ddr4["points"] if p["pattern"] == "blp_curve"]
        assert [p["x"] for p in points] == [1, 2, 4, 8, 16, 16]  # 32 clamped
        makespans = [p["measured"] for p in points]
        assert all(a > b for a, b in zip(makespans[:5], makespans[1:5]))
        assert makespans[-1] == makespans[-2]
        # 16 banks: 4,096 burst cycles in a 4,312-cycle makespan, 0.9499.
        assert makespans[-1] == 4_312

    def test_refresh_probe_measures_interference(self, ddr4):
        overheads = measured(ddr4, "refresh_probe")
        assert overheads[0] == 0  # gap s//3: the backlog absorbs each stall
        assert all(overhead > 0 for overhead in overheads[1:])

    def test_refresh_probe_requires_refresh(self):
        no_refresh = replace(DramTimings(), refresh_interval=0)
        with pytest.raises(ValueError, match="tREFI > 0"):
            expect("refresh_probe", 98, no_refresh, GEOMETRY)

    def test_suite_is_deterministic(self, ddr4):
        assert run_check() == ddr4


# ----------------------------------------------------------------------
# The checked timings: DDR4 defaults and DDR5
# ----------------------------------------------------------------------
class TestProfiles:
    def test_ddr4_profile_matches_model_defaults(self, ddr4):
        model = DramModel()
        assert ddr4["timings"] == asdict(model.timings)
        assert ddr4["geometry"] == {
            "num_banks": model.num_banks,
            "num_channels": model.num_channels,
            "row_size_bytes": model.row_size_bytes,
        }

    @pytest.mark.parametrize("timings,geometry", [
        (DramTimings(), {}),
        (DDR5, {"num_banks": 32}),
    ], ids=["ddr4", "ddr5"])
    def test_every_point_is_equal(self, timings, geometry):
        report = run_check(timings, **geometry)
        assert report["ok"]
        assert len(report["points"]) == 28
        for point in report["points"]:
            assert type(point["measured"]) is int and type(point["expected"]) is int
            assert point["measured"] == point["expected"], point

    def test_perturbed_timings_fail_calibration(self):
        assert "read_ladder" in failing(DramTimings(), replace(DramTimings(), cas=60))


# ----------------------------------------------------------------------
# Sensitivity and preconditions
# ----------------------------------------------------------------------
@pytest.mark.parametrize("changes,pattern", [
    ({"wr": 0}, "write_ladder"),
    ({"cwl": 41}, "write_ladder"),  # tCWL = tCL: writes charged read timing
    ({"refresh_interval": 0}, "refresh_probe"),
], ids=["wr=0", "cwl=cas", "refresh_interval=0"])
def test_term_is_observed(changes, pattern):
    assert pattern in failing(DramTimings(), replace(DramTimings(), **changes))


@pytest.mark.parametrize("pattern,x,timings,banks,rule", [
    pytest.param("turnaround_sweep", 4, DramTimings(), 2, r"\(banks-1\)\*burst",
                 id="sweep-2-banks"),
    pytest.param("turnaround_sweep", 4, DramTimings(cwl=60), 16, "tCWL <= tCL",
                 id="sweep-slow-writes"),
    pytest.param("write_ladder", 4, DramTimings(rp=0, rcd=0, cwl=4), 16, "turnaround",
                 id="write-ladder-first-turnaround"),
    pytest.param("blp_curve", 4, DramTimings(burst=0), 16, "burst >= 1", id="blp-burst-0"),
    pytest.param("refresh_probe", 49, DramTimings(), 16, "gap != tCL", id="refresh-gap-s"),
    pytest.param("refresh_probe", 0, DramTimings(), 16, "0 < gap", id="refresh-gap-0"),
    # DDR5 at the old gap 64: consecutive refreshes' knock-on chains overlap.
    pytest.param("refresh_probe", 64, DDR5, 32, r"m\*gap <= tREFI", id="refresh-ddr5-gap-64"),
    pytest.param("refresh_probe", 16, DramTimings(refresh_interval=100), 16,
                 r"tRFC \+ queue_penalty", id="refresh-backlog-short"),
    pytest.param("refresh_probe", 512,
                 DramTimings(cas=16, burst=16, rp=3, rcd=17, refresh_interval=2_137,
                             refresh_cycles=1_630), 16, "last knock-on chain",
                 id="refresh-last-chain-cut"),
    pytest.param("refresh_probe", 50, DramTimings(refresh_interval=600, refresh_cycles=10),
                 16, r"tRP\+tRCD <= ", id="refresh-first-miss-undrained"),
    pytest.param("refresh_probe", 98, DramTimings(queue_penalty=64), 16, "queue penalty",
                 id="refresh-queue-penalty"),
])
def test_precondition_raises(pattern, x, timings, banks, rule):
    with pytest.raises(ValueError, match=rule):
        expect(pattern, x, timings, {**GEOMETRY, "num_banks": banks})


def test_a_failed_precondition_stops_the_check():
    with pytest.raises(ValueError, match="turnaround_sweep"):
        run_check(num_banks=2)


@settings(max_examples=400, deadline=None)
@given(
    timings=st.builds(
        DramTimings,
        cas=st.integers(1, 80), rcd=st.integers(0, 80), rp=st.integers(0, 80),
        burst=st.integers(1, 16), cwl=st.integers(1, 80), wr=st.integers(0, 120),
        turnaround=st.integers(0, 40), queue_penalty=st.integers(0, 16),
        refresh_interval=st.integers(500, 6_000),
        refresh_cycles=st.integers(0, 1_500),
    ),
    geometry=st.fixed_dictionaries({
        "num_banks": st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
        "num_channels": st.sampled_from([1, 2, 4]),
        "row_size_bytes": st.sampled_from([64, 256, 1024, 2048, 4096]),
    }),
    pattern=st.sampled_from(PATTERNS),
    index=st.integers(0, 5),
)
def test_expectation_equals_the_model_or_raises(timings, geometry, pattern, index):
    xs = sweep(pattern, timings, geometry)
    x = xs[index % len(xs)]
    try:
        want = expect(pattern, x, timings, geometry)
    except ValueError:
        return
    assert measure(pattern, x, timings, geometry) == want


# ----------------------------------------------------------------------
# Config wiring
# ----------------------------------------------------------------------
class TestConfigWiring:
    def test_engine_runs_an_explicit_dram_model(self):
        from repro.secure.engine import SecureMemoryEngine
        from repro.secure.layout import SecureLayout

        ddr5 = DramModel(timings=DDR5, num_banks=32)
        engine = SecureMemoryEngine(SecureLayout(data_blocks=1 << 14), dram=ddr5)
        engine.read_data(0)
        assert engine.dram is ddr5
        assert ddr5.stats.requests > 0

    def test_with_ctr_cache_bytes_preserves_engine_knobs(self):
        from repro.sim.config import SimulationConfig

        config = SimulationConfig()
        config.engine.mac_in_ecc = True
        config.engine.ctr_policy_name = "rrip"
        resized = config.with_ctr_cache_bytes(64 * 1024)
        assert resized.engine.ctr_cache_bytes == 64 * 1024
        assert resized.engine.mac_in_ecc is True
        assert resized.engine.ctr_policy_name == "rrip"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_verify_dram_calib_passes_and_writes_artifact(self, tmp_path, capsys):
        from repro.__main__ import build_parser

        out = tmp_path / "calib" / "report.json"
        args = build_parser().parse_args(["verify", "dram-calib", "--out", str(out)])
        assert args.func(args) == 0
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert payload["geometry"] == GEOMETRY
        assert all(p["measured"] == p["expected"] for p in payload["points"])
        assert json.loads(capsys.readouterr().out) == payload

    def test_verify_dram_calib_exits_1_on_an_unequal_point(self, monkeypatch, capsys):
        from repro.__main__ import build_parser

        class SlowWrites(DramModel):
            def request(self, block_address, is_write=False, now=0):
                return super().request(block_address, is_write, now) + is_write

        monkeypatch.setattr(check, "DramModel", SlowWrites)
        args = build_parser().parse_args(["verify", "dram-calib"])
        assert args.func(args) == 1
        assert json.loads(capsys.readouterr().out)["ok"] is False
