"""Unit tests for the DDR4 bank-state timing model."""

import random
from dataclasses import replace

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.mem.dram import DramModel, DramTimings
from repro.verify.dram import GEOMETRY


# ----------------------------------------------------------------------
# Timing parameters
# ----------------------------------------------------------------------
def test_row_hit_cheaper_than_miss():
    timings = DramTimings()
    assert timings.row_hit_latency < timings.row_miss_latency


def test_write_column_latency_cheaper_than_read():
    timings = DramTimings()
    assert timings.write_hit_latency < timings.row_hit_latency
    assert timings.write_miss_latency < timings.row_miss_latency


# ----------------------------------------------------------------------
# Row-buffer state machine
# ----------------------------------------------------------------------
def test_first_access_is_row_miss():
    dram = DramModel()
    latency = dram.request(0)
    assert latency == dram.timings.row_miss_latency
    assert dram.stats.row_misses == 1


def test_same_row_hits():
    dram = DramModel()
    first = dram.request(0, now=0)
    # Same channel, bank and row: a nearby column, issued after the bank
    # finished the first request.
    latency = dram.request(16, now=first + 1)
    assert dram.stats.row_hits == 1
    assert latency == dram.timings.row_hit_latency


def test_row_conflict_misses():
    dram = DramModel()
    rows_apart = dram.row_size_bytes // 64 * dram.num_banks
    dram.request(0)
    dram.request(rows_apart)  # same bank, different row
    assert dram.stats.row_misses == 2


def test_reads_writes_counted():
    dram = DramModel()
    rlat = dram.request(0, now=0)
    wlat = dram.request(1, is_write=True, now=1000)
    assert dram.stats.reads == 1
    assert dram.stats.writes == 1
    assert dram.stats.requests == 2
    # Latency sums are split by request class.
    assert dram.stats.read_cycles == rlat
    assert dram.stats.write_cycles == wlat
    assert dram.stats.busy_cycles == rlat + wlat


def test_streaming_has_high_row_hit_rate():
    dram = DramModel()
    now = 0
    for block in range(512):
        now += 1 + dram.request(block, now=now)
    assert dram.stats.row_hit_rate > 0.8


def test_random_has_low_row_hit_rate():
    rng = random.Random(0)
    dram = DramModel()
    now = 0
    for _ in range(512):
        now += 1 + dram.request(rng.randrange(1 << 24), now=now)
    assert dram.stats.row_hit_rate < 0.2


# ----------------------------------------------------------------------
# Bank-level parallelism and write timing
# ----------------------------------------------------------------------
def test_independent_banks_overlap():
    bank_stride = DramModel().row_size_bytes // 64
    overlap = DramModel()
    overlap.request(0, now=0)
    # Different bank, issued at the same cycle: only the data bursts
    # serialise, so the second request costs one extra burst, not a
    # second full activate.
    overlapped = overlap.request(bank_stride, now=0)
    conflict = DramModel()
    conflict.request(0, now=0)
    # Same bank, different row: queues behind the whole first request.
    conflicted = conflict.request(bank_stride * conflict.num_banks, now=0)
    assert overlapped == overlap.timings.row_miss_latency + overlap.timings.burst
    assert conflicted == 2 * conflict.timings.row_miss_latency
    assert overlapped < conflicted


def test_write_uses_write_timing():
    dram = DramModel()
    latency = dram.request(0, is_write=True)
    # First write on an idle channel pays the write-class activate +
    # column latency only: the bus has been idle long enough that the
    # direction switch cannot delay the burst, so no turnaround.
    assert latency == dram.timings.write_miss_latency
    assert dram.stats.turnarounds == 0
    assert dram.stats.write_cycles == latency
    assert dram.stats.read_cycles == 0


def test_write_recovery_delays_same_bank_access():
    dram = DramModel()
    wlat = dram.request(0, is_write=True, now=0)
    # A read to the same bank right after the write's data burst must
    # wait out tWR before its column read; the direction switch is fully
    # absorbed by that bank wait, so it is not charged or counted.
    rlat = dram.request(1, now=wlat + 1)
    assert rlat > dram.timings.row_hit_latency
    assert dram.stats.turnarounds == 0


# ----------------------------------------------------------------------
# Utilisation-derived queueing
# ----------------------------------------------------------------------
def test_queue_penalty_tracks_utilisation():
    idle = DramModel()
    idle.request(0, now=0)
    baseline = idle.request(1, now=200)
    assert baseline == idle.timings.row_hit_latency  # idle window: no penalty

    loaded = DramModel()
    row_blocks = loaded.row_size_bytes // 64
    for bank in range(loaded.num_banks):  # open row 0 in every bank
        loaded.request(bank * row_blocks, now=0)
    # Stream one burst every `burst` cycles round-robin across the open
    # rows: the data bus runs at ~full utilisation through the window,
    # while each individual bank stays comfortably ahead.
    for k in range(128):
        bank = k % loaded.num_banks
        column = 1 + k // loaded.num_banks
        loaded.request(bank * row_blocks + column, now=300 + 8 * k)
    # Probe after the stream drained: no bank or bus wait remains, so any
    # latency above a bare row hit is the utilisation-derived penalty.
    busy = loaded.request(2, now=1400)
    assert baseline < busy <= baseline + loaded.timings.queue_penalty
    assert loaded.stats.queue_cycles > 0


def test_background_occupancy_raises_queue_penalty():
    """Regression: re-encryption storms must drive the queue penalty.

    Background bursts used to count toward ``per_channel_busy`` but not
    the utilisation window, so a channel saturated by re-encryption
    charged demand requests nothing.
    """
    quiet = DramModel()
    stormy = DramModel()
    for dram in (quiet, stormy):
        dram.request(0, now=0)
    stormy.add_background_occupancy(200)  # 1600 busy cycles this window
    quiet_lat = quiet.request(1, now=2048)
    stormy_lat = stormy.request(1, now=2048)
    assert quiet_lat == quiet.timings.row_hit_latency
    assert stormy_lat > quiet_lat
    assert stormy_lat <= quiet_lat + stormy.timings.queue_penalty
    # Occupancy ledger is charged exactly once (the verify invariant).
    assert stormy.stats.per_channel_busy[0] == (
        (stormy.stats.requests + stormy.stats.background_requests)
        * stormy.timings.burst
    )


def test_turnaround_absorbed_by_bank_wait_not_charged():
    """Regression: a switch hidden behind tWR delays nothing, costs nothing."""
    dram = DramModel()
    wlat = dram.request(0, is_write=True, now=0)
    rlat = dram.request(1, now=wlat)  # same bank row hit, queues on tWR
    assert dram.stats.turnarounds == 0
    expected_finish = (wlat + dram.timings.wr) + dram.timings.row_hit_latency
    assert rlat == expected_finish - wlat


def test_turnaround_charged_in_bus_grant_order_when_delaying():
    """Regression: a flip whose burst chases the previous one pays the gap."""
    dram = DramModel()
    bank_stride = dram.row_size_bytes // 64
    dram.request(0, now=0)  # read burst holds the bus until cycle 131
    lat = dram.request(bank_stride, is_write=True, now=0)  # independent bank
    assert dram.stats.turnarounds == 1
    assert lat == (
        dram.timings.row_miss_latency
        + dram.timings.turnaround
        + dram.timings.burst
    )


def test_turnarounds_not_counted_at_issue_order():
    """Regression: program-order R/W alternation on one bank counts zero.

    The old accounting charged a turnaround on every issue-order flip;
    every one of these flips is absorbed by same-bank queueing (tWR or
    the column gap), so none may be charged or counted.
    """
    dram = DramModel()
    now = 0
    for i in range(16):
        now += 1 + dram.request(i % 4, is_write=(i % 2 == 1), now=now)
    assert dram.stats.turnarounds == 0
    assert dram.stats.reads == 8 and dram.stats.writes == 8


# ----------------------------------------------------------------------
# Refresh
# ----------------------------------------------------------------------
def test_refresh_stalls_after_interval():
    dram = DramModel()
    dram.request(0, now=0)
    latency = dram.request(1, now=dram.timings.refresh_interval)
    assert dram.stats.refresh_stalls == 1
    assert latency == dram.timings.row_hit_latency + dram.timings.refresh_cycles


def test_refresh_disabled():
    dram = DramModel(timings=DramTimings(refresh_interval=0))
    dram.request(0, now=0)
    latency = dram.request(1, now=100_000)
    assert dram.stats.refresh_stalls == 0
    assert latency == dram.timings.row_hit_latency


# ----------------------------------------------------------------------
# Address decode / geometry
# ----------------------------------------------------------------------
def test_multi_channel_interleaves_rows():
    dram = DramModel(num_channels=2)
    row_blocks = dram.row_size_bytes // 64
    dram.request(0)                      # channel 0
    dram.request(row_blocks)             # next row chunk -> channel 1
    assert dram.stats.per_channel == {0: 1, 1: 1}


def test_single_channel_uses_channel_zero():
    dram = DramModel()
    for block in range(0, 4096, 64):
        dram.request(block)
    assert set(dram.stats.per_channel) == {0}


def test_channels_have_private_row_buffers():
    dram = DramModel(num_channels=2)
    row_blocks = dram.row_size_bytes // 64
    first = dram.request(0, now=0)        # opens a row on channel 0
    dram.request(row_blocks, now=0)       # opens a row on channel 1
    latency = dram.request(1, now=first + 1)  # channel 0's row still open
    assert latency == dram.timings.row_hit_latency


def test_decode_encode_round_trip():
    rng = random.Random(1)
    for channels, banks, row_bytes in ((1, 16, 2048), (2, 4, 512), (4, 8, 1024), (1, 1, 64)):
        dram = DramModel(num_channels=channels, num_banks=banks, row_size_bytes=row_bytes)
        for _ in range(200):
            block = rng.randrange(1 << 30)
            channel, bank, row, column = dram.decode(block)
            assert 0 <= channel < channels
            assert 0 <= bank < banks
            assert 0 <= column < row_bytes // 64
            assert dram.encode(channel, bank, row, column) == block


def test_decode_fields_target_distinct_geometry():
    dram = DramModel(num_channels=2, num_banks=4, row_size_bytes=512)
    address = dram.encode(channel=1, bank=2, row=5, column=3)
    assert dram.decode(address) == (1, 2, 5, 3)
    dram.request(address)
    assert dram.stats.per_channel == {1: 1}
    # Flipping exactly one decode field moves exactly that coordinate.
    assert dram.decode(dram.encode(0, 2, 5, 3))[0] == 0
    assert dram.decode(dram.encode(1, 3, 5, 3))[1] == 3
    assert dram.decode(dram.encode(1, 2, 6, 3))[2] == 6
    assert dram.decode(dram.encode(1, 2, 5, 4))[3] == 4


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_channels": 0},
        {"num_channels": 3},
        {"num_banks": 0},
        {"num_banks": 12},
        {"row_size_bytes": 1000},
        {"row_size_bytes": 32},
    ],
)
def test_invalid_geometry_rejected(kwargs):
    with pytest.raises(ValueError):
        DramModel(**kwargs)


def test_minimal_geometry_accepted():
    dram = DramModel(num_channels=1, num_banks=1, row_size_bytes=64)
    latency = dram.request(5)
    assert latency == dram.timings.row_miss_latency
    assert dram.decode(5) == (0, 0, 5, 0)


# ----------------------------------------------------------------------
# Background occupancy and stats snapshots
# ----------------------------------------------------------------------
def test_background_occupancy_spreads_channels():
    dram = DramModel(num_channels=2)
    dram.add_background_occupancy(3)
    assert dram.stats.background_requests == 3
    busy = dram.stats.per_channel_busy
    assert sum(busy.values()) == 3 * dram.timings.burst
    assert set(busy) == {0, 1}
    assert dram.stats.requests == 0  # occupancy only, no demand request


def test_as_dict_includes_channel_balance():
    dram = DramModel(num_channels=2)
    dram.request(0)
    dram.request(dram.row_size_bytes // 64)
    snapshot = dram.stats.as_dict()
    assert snapshot["per_channel"] == {"0": 1, "1": 1}
    assert snapshot["per_channel_busy"] == {
        "0": dram.timings.burst, "1": dram.timings.burst
    }
    assert snapshot["read_cycles"] == dram.stats.read_cycles
    assert snapshot["turnarounds"] == dram.stats.turnarounds


# ----------------------------------------------------------------------
# Reset semantics
# ----------------------------------------------------------------------
def test_reset_clears_state():
    dram = DramModel()
    dram.request(0)
    dram.reset()
    assert dram.stats.requests == 0
    latency = dram.request(0)
    assert latency == dram.timings.row_miss_latency  # row buffer cleared


def test_reset_stats_keeps_open_rows():
    dram = DramModel()
    first = dram.request(0, now=0)
    dram.reset_stats()
    assert dram.stats.requests == 0
    latency = dram.request(1, now=first + 1)
    assert latency == dram.timings.row_hit_latency  # warm row survived
    assert dram.stats.row_hits == 1


# ----------------------------------------------------------------------
# Timings fixed at construction
# ----------------------------------------------------------------------
def test_refresh_schedule_follows_construction_timings():
    dram = DramModel(timings=DramTimings(refresh_interval=10_000))
    dram.request(0, now=0)
    dram.request(0, now=15_000)
    assert dram.stats.refresh_stalls == 1


def test_timings_cannot_be_replaced_after_construction():
    # The refresh schedule and the cached queue penalty derive from the
    # timings a model is built with; a replaced timings object used to
    # keep the old tREFI schedule (0 refresh stalls here instead of 1).
    dram = DramModel()
    with pytest.raises(AttributeError):
        dram.timings = replace(dram.timings, refresh_interval=10_000)
    with pytest.raises(AttributeError):
        dram.timings.refresh_interval = 10_000
    dram.request(0, now=0)
    dram.request(0, now=15_000)
    assert dram.stats.refresh_stalls == 0  # default tREFI 23,400


def test_refresh_probe_baseline_has_no_refresh():
    from repro.verify.dram import measure

    timings = DramTimings(refresh_interval=2_000, refresh_cycles=300)
    # At a wide gap each stall lands on one request with no knock-on, so
    # against a refresh-free twin the overhead is exactly tRFC per stall:
    # 16 requests 1,000 cycles apart cross 7 tREFI boundaries.
    overhead = measure("refresh_probe", 1_000, timings,
                       {"num_banks": 16, "num_channels": 2, "row_size_bytes": 2048})
    assert overhead == 300 * 7


# ----------------------------------------------------------------------
# Per-cycle settling
# ----------------------------------------------------------------------
class _SettleEveryRequest(DramModel):
    """Settles refresh and the windows on every request, as if no two
    requests shared a cycle."""

    def request(self, block_address, is_write=False, now=0):
        self._settled_at[:] = [None] * self.num_channels
        return super().request(block_address, is_write=is_write, now=now)


@settings(max_examples=100, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            # Mostly same-cycle requests; the gaps cross refresh boundaries
            # and close utilisation windows (1,024 cycles) often.
            st.sampled_from([0, 0, 0, 1, 7, 300, 1_500]),
            st.integers(min_value=0, max_value=255),  # both channels
            st.booleans(),
            st.integers(min_value=0, max_value=3),  # background requests
        ),
        min_size=20,
        max_size=200,
    ),
    refresh_interval=st.sampled_from([0, 700]),
)
def test_same_cycle_requests_skip_settling_exactly(steps, refresh_interval):
    models = [
        cls(timings=DramTimings(refresh_interval=refresh_interval, refresh_cycles=300),
            num_channels=2, num_banks=2, row_size_bytes=256)
        for cls in (DramModel, _SettleEveryRequest)
    ]
    now = 0
    for advance, block, is_write, background in steps:
        now += advance
        latencies = [model.request(block, is_write=is_write, now=now) for model in models]
        assert latencies[0] == latencies[1]
        if background:
            for model in models:
                model.add_background_occupancy(background)
    fast, reference = models
    assert fast.stats == reference.stats


# ----------------------------------------------------------------------
# Batched reads
# ----------------------------------------------------------------------
def _timing_state(model):
    """Every bank, bus, refresh and utilisation list of ``model``."""
    return (
        model._open_rows, model._bank_ready, model._bus_ready, model._last_write,
        model._next_refresh, model._settled_at, model._win_start, model._win_busy,
        model._queue_penalty, model._background_cursor,
    )


# A block drawn as (channel, bank, row, column) and reduced to the model's
# geometry.  Two rows per bank keep row hits common.
_BLOCK_FIELDS = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=15),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=31),
)
_ADVANCES = (0, 0, 0, 1, 7, 300, 1_500)


def _block(model, fields):
    channel, bank, row, column = fields
    return model.encode(channel % model.num_channels, bank % model.num_banks, row,
                        column % (model.row_size_bytes // 64))


def _seeded_steps(seed):
    """100 steps of the shape the test draws, from ``random.Random(seed)``."""
    rng = random.Random(seed)

    def fields():
        return (rng.randrange(4), rng.randrange(16), rng.randrange(2), rng.randrange(32))

    return [(rng.choice(_ADVANCES), fields(), rng.random() < 0.5, rng.randrange(4),
             [fields() for _ in range(rng.randrange(9))], rng.random() < 0.5)
            for _ in range(100)]


@settings(max_examples=100, deadline=None)
@given(
    num_channels=st.sampled_from([1, 2, 4]),
    # A small geometry whose banks are nearly always busy, and the figures'.
    geometry=st.sampled_from([{"num_banks": 2, "row_size_bytes": 256}, GEOMETRY]),
    queue_penalty=st.sampled_from([DramTimings().queue_penalty, 200]),
    steps=st.lists(
        st.tuples(
            st.sampled_from(_ADVANCES),
            _BLOCK_FIELDS,  # every channel
            st.booleans(),
            st.integers(min_value=0, max_value=3),  # background requests
            # A batch of reads at the step's cycle, issued before or after
            # its request: before it, or on another channel, a read can
            # find its channel not yet settled at that cycle.
            st.lists(_BLOCK_FIELDS, max_size=8),
            st.booleans(),
        ),
        min_size=10,
        max_size=100,
    ),
    refresh_interval=st.sampled_from([0, 700]),
)
# Fixed streams on the figures' geometry, at a large penalty and without
# refresh: banks are often idle and the bus often free when a read comes,
# so its finish shows each term the batched loop hoists, the queue penalty
# too.  They run before the drawn examples and fail without shrinking.
@example(num_channels=1, geometry=GEOMETRY, queue_penalty=200,
         steps=_seeded_steps(1), refresh_interval=0)
@example(num_channels=2, geometry=GEOMETRY, queue_penalty=200,
         steps=_seeded_steps(2), refresh_interval=0)
@example(num_channels=4, geometry=GEOMETRY, queue_penalty=200,
         steps=_seeded_steps(4), refresh_interval=0)
def test_reads_at_matches_one_request_per_read(num_channels, geometry, queue_penalty, steps,
                                               refresh_interval):
    timings = DramTimings(queue_penalty=queue_penalty, refresh_interval=refresh_interval,
                          refresh_cycles=300)
    batched, single = (
        DramModel(timings=timings, **{**geometry, "num_channels": num_channels})
        for _ in range(2)
    )

    def issue_batch(batch, now):
        batched.reads_at(batch, now)
        for address in batch:
            single.request(address, now=now)

    now = 0
    for advance, fields, is_write, background, batch_fields, batch_first in steps:
        now += advance
        block = _block(batched, fields)
        batch = [_block(batched, read) for read in batch_fields]
        if batch_first:
            issue_batch(batch, now)
        assert (batched.request(block, is_write=is_write, now=now)
                == single.request(block, is_write=is_write, now=now))
        if not batch_first:
            issue_batch(batch, now)
        if background:
            batched.add_background_occupancy(background)
            single.add_background_occupancy(background)
        assert batched.stats == single.stats
        assert _timing_state(batched) == _timing_state(single)
    for block in (0, 1, 64, 255):
        assert batched.request(block, now=now + 1) == single.request(block, now=now + 1)
