"""Property tests for the DRAM row-activation ledger (RowHammer accounting).

Three laws, checked against a trivial reference model:

* **Monotone within a window** — a row's count never decreases until its
  channel's refresh window rolls over.
* **Reset at tREFI boundaries** — the ledger clears exactly when a
  request lands in a later window, and ``act_window_resets`` counts it.
* **Pure function of the request stream** — replaying the same
  ``(block, is_write, now)`` sequence into a fresh model reproduces the
  ledger and stats byte for byte.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.dram import DramModel, DramTimings


def _model(refresh_interval=0, num_banks=4, num_channels=2):
    return DramModel(
        timings=DramTimings(refresh_interval=refresh_interval),
        num_banks=num_banks,
        num_channels=num_channels,
        row_size_bytes=256,
    )


_requests = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=(1 << 12) - 1),  # block address
        st.booleans(),                                      # is_write
        st.integers(min_value=0, max_value=60),             # now increment
    ),
    min_size=1,
    max_size=120,
)


def _reference_counts(model, stream):
    """Independent open-page reference: activations per (ch, bank, row),
    windowed per channel by ``now // refresh_interval``."""
    interval = model.timings.refresh_interval
    open_rows = {}
    windows = {}
    counts = {}
    resets = 0
    max_count = 0
    for block, _, now in stream:
        channel, bank, row, _ = model.decode(block)
        if interval > 0:
            window = now // interval
            if window != windows.get(channel, 0):
                windows[channel] = window
                channel_keys = [k for k in counts if k[0] == channel]
                if channel_keys:
                    resets += 1
                    for key in channel_keys:
                        del counts[key]
        if open_rows.get((channel, bank)) != row:
            open_rows[(channel, bank)] = row
            key = (channel, bank, row)
            counts[key] = counts.get(key, 0) + 1
            max_count = max(max_count, counts[key])
    return counts, resets, max_count


@settings(max_examples=40, deadline=None)
@given(stream=_requests)
def test_ledger_matches_reference_without_refresh(stream):
    model = _model(refresh_interval=0)
    now = 0
    for block, is_write, step in stream:
        now += step
        model.request(block, is_write, now=now)
    expected, resets, max_count = _reference_counts(
        model, [(b, w, 0) for b, w, _ in stream]
    )
    assert model.activation_counts() == expected
    assert model.stats.act_window_resets == resets == 0
    assert model.stats.max_row_activations == max_count
    assert model.stats.activations == sum(expected.values())


@settings(max_examples=40, deadline=None)
@given(stream=_requests, interval=st.sampled_from([64, 256, 1024]))
def test_ledger_resets_at_window_boundaries(stream, interval):
    model = _model(refresh_interval=interval)
    now = 0
    timed = []
    for block, is_write, step in stream:
        now += step
        timed.append((block, is_write, now))
        model.request(block, is_write, now=now)
    expected, resets, max_count = _reference_counts(model, timed)
    assert model.activation_counts() == expected
    assert model.stats.act_window_resets == resets
    assert model.stats.max_row_activations == max_count
    # Total activations (row misses) are never lost to a reset.
    assert model.stats.activations >= sum(expected.values())


@settings(max_examples=40, deadline=None)
@given(stream=_requests)
def test_ledger_is_monotone_within_a_window(stream):
    model = _model(refresh_interval=0)
    seen = {}
    now = 0
    for block, is_write, step in stream:
        now += step
        model.request(block, is_write, now=now)
        counts = model.activation_counts()
        for key, count in seen.items():
            assert counts.get(key, 0) >= count, f"count of {key} decreased"
        seen = counts


@settings(max_examples=25, deadline=None)
@given(stream=_requests, interval=st.sampled_from([0, 128]))
def test_ledger_is_pure_function_of_stream(stream, interval):
    first = _model(refresh_interval=interval)
    second = _model(refresh_interval=interval)
    now = 0
    for block, is_write, step in stream:
        now += step
        first.request(block, is_write, now=now)
        second.request(block, is_write, now=now)
    assert first.activation_counts() == second.activation_counts()
    assert first.stats.as_dict() == second.stats.as_dict()


def test_ledger_survives_reset_stats_but_not_reset():
    model = _model(refresh_interval=0)
    for block in (0, 64, 0, 64):
        model.request(block, now=0)
    assert model.activation_counts()
    model.reset_stats()
    # Counter state is *timing* state: reset_stats only zeroes metrics.
    assert model.activation_counts()
    assert model.stats.max_row_activations == 0
    model.reset()
    assert model.activation_counts() == {}


def test_dram_stats_dict_exposes_ledger_metrics():
    model = _model()
    model.request(0, now=0)
    payload = model.stats.as_dict()
    for key in ("activations", "act_window_resets", "max_row_activations"):
        assert key in payload

