"""Check the DRAM model against closed-form DDR timing algebra.

``python -m repro verify dram-calib`` drives :class:`~repro.mem.dram.DramModel`
with five fixed request streams.  Each stream's result is compared with
``==`` against an integer computed only from
:class:`~repro.mem.dram.DramTimings` and the geometry: the expectations are
derived from the DDR timing rules, never recorded from the model, so a
model that drops or misplaces a timing term fails.  Below, n is a
stream's request count and tRC = tRP+tRCD+tCL+burst.

1. **Read ladder.** 2,048 closed-loop reads to bank 0, k sequential
   columns per row (k clamped to the columns per row).
   Σ latency = m·tRC + (n−m)·(tCL+burst), where m = ⌈n/k⌉.
2. **Write ladder.** The same stream, all writes; the only stream that
   observes tCWL and tWR.  Σ latency = m·(tRP+tRCD+tCWL+burst) +
   (n−m)·(tCWL+burst) + (n−1)·max(0, tWR−1).  Valid while
   tRP+tRCD+tCWL ≥ turnaround, so the first write does not wait for the
   idle bus to turn from read to write.
3. **Turnaround sweep.** 1,024 row hits, one every ``burst`` cycles,
   round-robin over all banks; the direction flips every p requests.
   Σ latency = n·(tCL+burst) + turnaround·Σ_{i<n}⌊i/p⌋.  Valid while the
   bus gates every burst: tWR + max(tCL, tCWL) ≤ (banks−1)·burst and
   tCWL ≤ tCL + turnaround.
4. **BLP curve.** 512 row misses issued one per cycle over b banks.
   makespan = max(⌈n/b⌉·tRC + ((n−1) mod b)·burst, tRC + (n−1)·burst);
   the middle term, (b−1)·burst when b divides n, is the first round's
   bus collisions.
5. **Refresh probe.** Same-bank row hits every ``gap`` cycles over
   8·tREFI, minus a refresh-free twin; s = tCL+burst and stalls =
   ⌊(n−1)·gap/tREFI⌋.  For gap > s each stall knocks on into the
   requests behind it: Σ overhead = stalls·Σ_{j<m}(tRFC − j·(gap−s)),
   where m = ⌈tRFC/(gap−s)⌉.  Valid while the chains stay apart
   (m·gap ≤ tREFI), the last one ends inside the stream, the first row
   miss has drained before the first refresh and the queue penalty stays
   0.  For gap < s the backlog absorbs every stall and the overhead is 0,
   valid while the backlog at the first refresh covers tRFC plus the
   queue penalty.  The gaps are (s//3, 2s, 4s, 16s).

Patterns 1–4 run on a twin with ``refresh_interval=0`` and
``queue_penalty=0``, so each isolates its own term; pattern 5 runs on the
full timings.  An expectation whose precondition fails raises
:class:`ValueError` naming it; it never returns a wrong prediction.

Not checked:

* the utilisation-derived queue penalty, a modelling device with no JEDEC
  counterpart (``tests/golden/sim_payloads.json`` pins it);
* refresh under saturation.  JEDEC takes tRFC out of every tREFI whatever
  the load; this model charges the stall only to the request that
  crosses the boundary, so a backlog absorbs it.  At gap s//3 the check
  encodes the model's rule.
"""

from __future__ import annotations

from dataclasses import asdict, replace
from typing import Dict, Optional, Tuple

from ..mem.access import BLOCK_SHIFT
from ..mem.dram import UTILISATION_WINDOW, DramModel, DramTimings

#: The figures' channel geometry (paper Table 3).
GEOMETRY = {"num_banks": 16, "num_channels": 1, "row_size_bytes": 2048}

PATTERNS = ("read_ladder", "write_ladder", "turnaround_sweep", "blp_curve",
            "refresh_probe")
SWEEP = (1, 2, 4, 8, 16, 32)
LADDER_REQUESTS = 2048
TURNAROUND_REQUESTS = 1024
BLP_REQUESTS = 512
REFRESH_WINDOWS = 8


def _ceil(a: int, b: int) -> int:
    return -(-a // b)


def _require(condition: bool, pattern: str, rule: str) -> None:
    if not condition:
        raise ValueError(f"{pattern}: precondition {rule} does not hold")


# ----------------------------------------------------------------------
# Expectations: integers from the timings and the geometry only
# ----------------------------------------------------------------------
def _expect_ladder(t: DramTimings, k: int, is_write: bool) -> int:
    n, m = LADDER_REQUESTS, _ceil(LADDER_REQUESTS, k)
    column = t.cwl if is_write else t.cas
    total = m * (t.rp + t.rcd + column + t.burst) + (n - m) * (column + t.burst)
    if is_write:
        _require(t.rp + t.rcd + t.cwl >= t.turnaround, "write_ladder",
                 "tRP+tRCD+tCWL >= turnaround")
        total += (n - 1) * max(0, t.wr - 1)
    return total


def _expect_turnaround(t: DramTimings, period: int, num_banks: int) -> int:
    _require(t.wr + max(t.cas, t.cwl) <= (num_banks - 1) * t.burst,
             "turnaround_sweep", "tWR + max(tCL, tCWL) <= (banks-1)*burst")
    _require(t.cwl <= t.cas + t.turnaround, "turnaround_sweep",
             "tCWL <= tCL + turnaround")
    laps, rest = divmod(TURNAROUND_REQUESTS, period)  # Σ_{i<n} ⌊i/p⌋
    flips = period * laps * (laps - 1) // 2 + rest * laps
    return TURNAROUND_REQUESTS * (t.cas + t.burst) + t.turnaround * flips


def _expect_blp(t: DramTimings, banks: int) -> int:
    _require(t.burst >= 1, "blp_curve", "burst >= 1")
    n, trc = BLP_REQUESTS, t.rp + t.rcd + t.cas + t.burst
    return max(_ceil(n, banks) * trc + ((n - 1) % banks) * t.burst,
               trc + (n - 1) * t.burst)


def _expect_refresh(t: DramTimings, gap: int) -> int:
    interval, trfc, s = t.refresh_interval, t.refresh_cycles, t.cas + t.burst
    _require(interval > 0, "refresh_probe", "tREFI > 0")
    _require(0 < gap != s, "refresh_probe", "0 < gap != tCL+burst")
    n = max(1, interval * REFRESH_WINDOWS // gap)
    first = _ceil(interval, gap)  # the first request past a tREFI boundary
    if gap < s:
        _require(t.rp + t.rcd + first * (s - gap) >= trfc + t.queue_penalty,
                 "refresh_probe",
                 "tRP+tRCD + ceil(tREFI/gap)*(s-gap) >= tRFC + queue_penalty")
        return 0
    drain = gap - s
    m = _ceil(trfc, drain)
    stalls = (n - 1) * gap // interval
    _require(m * gap <= interval, "refresh_probe", "m*gap <= tREFI")
    _require(_ceil(stalls * interval, gap) + m <= n, "refresh_probe",
             "the last knock-on chain ends inside the stream")
    _require(t.rp + t.rcd <= first * drain, "refresh_probe",
             "tRP+tRCD <= ceil(tREFI/gap)*(gap-s)")
    window = UTILISATION_WINDOW
    _require(t.queue_penalty * t.burst * (window + gap - 1) < window * gap,
             "refresh_probe", "the queue penalty stays 0 at this gap")
    return stalls * (m * trfc - drain * m * (m - 1) // 2)


def expect(pattern: str, x: int, timings: DramTimings, geometry: Dict[str, int]) -> int:
    """The closed form of one point; :class:`ValueError` if it does not apply."""
    if pattern in ("read_ladder", "write_ladder"):
        return _expect_ladder(timings, x, pattern == "write_ladder")
    if pattern == "turnaround_sweep":
        return _expect_turnaround(timings, x, geometry["num_banks"])
    if pattern == "blp_curve":
        return _expect_blp(timings, x)
    return _expect_refresh(timings, x)


# ----------------------------------------------------------------------
# Measurements: the same streams replayed on DramModel
# ----------------------------------------------------------------------
def _ladder(model: DramModel, k: int, is_write: bool) -> int:
    now = 0
    for index in range(LADDER_REQUESTS):
        row, column = divmod(index, k)
        block = model.encode(0, 0, row, column)
        now += 1 + model.request(block, is_write=is_write, now=now)
    return model.stats.busy_cycles


def _turnaround(model: DramModel, period: int) -> int:
    banks, columns = model.num_banks, model.row_size_bytes >> BLOCK_SHIFT
    now = 0
    for bank in range(banks):  # open row 0 in every bank, then forget it
        now += 1 + model.request(model.encode(0, bank, 0), now=now)
    model.reset_stats()
    for index in range(TURNAROUND_REQUESTS):
        lap, bank = divmod(index, banks)
        column = 1 + lap % (columns - 1) if columns > 1 else 0
        model.request(model.encode(0, bank, 0, column),
                      is_write=(index // period) % 2 == 1,
                      now=now + index * model.timings.burst)
    return model.stats.busy_cycles


def _blp(model: DramModel, banks: int) -> int:
    makespan = 0
    for index in range(BLP_REQUESTS):
        lap, bank = divmod(index, banks)
        latency = model.request(model.encode(0, bank, lap % 2), now=index)
        makespan = max(makespan, index + latency)
    return makespan


def _refresh(model: DramModel, twin: DramModel, gap: int) -> int:
    requests = max(1, model.timings.refresh_interval * REFRESH_WINDOWS // gap)
    columns = model.row_size_bytes >> BLOCK_SHIFT
    overhead = 0
    for index in range(requests):
        block, now = index % columns, index * gap
        overhead += model.request(block, now=now) - twin.request(block, now=now)
    return overhead


def measure(pattern: str, x: int, timings: DramTimings, geometry: Dict[str, int]) -> int:
    """Replay one point's stream on fresh models built from ``timings``."""

    def build(**changes: int) -> DramModel:
        return DramModel(timings=replace(timings, **changes), **geometry)

    if pattern == "refresh_probe":
        return _refresh(build(), build(refresh_interval=0), x)
    model = build(refresh_interval=0, queue_penalty=0)
    if pattern in ("read_ladder", "write_ladder"):
        return _ladder(model, x, pattern == "write_ladder")
    if pattern == "turnaround_sweep":
        return _turnaround(model, x)
    return _blp(model, x)


# ----------------------------------------------------------------------
# The check
# ----------------------------------------------------------------------
def sweep(pattern: str, timings: DramTimings, geometry: Dict[str, int]) -> Tuple[int, ...]:
    """The x values of one pattern, clamped to the geometry."""
    if pattern == "refresh_probe":
        s = timings.cas + timings.burst
        return (s // 3, 2 * s, 4 * s, 16 * s)
    if pattern == "turnaround_sweep":
        return SWEEP
    limit = (geometry["num_banks"] if pattern == "blp_curve"
             else geometry["row_size_bytes"] >> BLOCK_SHIFT)
    return tuple(min(x, limit) for x in SWEEP)


def run_check(timings: Optional[DramTimings] = None, **geometry: int) -> Dict[str, object]:
    """Compare the model with the closed forms at every point.

    ``timings`` defaults to :class:`DramTimings` and ``geometry``
    overrides :data:`GEOMETRY`.  Raises :class:`ValueError` if a point's
    precondition fails.  ``ok`` is true iff every point has ``measured ==
    expected``.
    """
    timings = timings if timings is not None else DramTimings()
    geometry = {**GEOMETRY, **geometry}
    points = []
    for pattern in PATTERNS:
        for x in sweep(pattern, timings, geometry):
            want = expect(pattern, x, timings, geometry)
            got = measure(pattern, x, timings, geometry)
            points.append({"pattern": pattern, "x": x, "expected": want,
                           "measured": got, "ok": got == want})
    return {
        "ok": all(point["ok"] for point in points),
        "timings": asdict(timings),
        "geometry": geometry,
        "points": points,
    }
