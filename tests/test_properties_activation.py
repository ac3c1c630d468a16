"""Property tests for DRAM row activations (ACT commands).

Two laws, checked against a trivial reference model:

* **One activation per row-buffer miss** — ``DramStats.activations``
  equals the activations an open-page reference counts over the same
  stream, with refresh off or on (refresh never closes a row).
* **Pure function of the request stream** — replaying the same
  ``(block, is_write, now)`` sequence into a fresh model reproduces the
  stats byte for byte.
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


def _reference_activations(model, stream):
    """Independent open-page reference: one activation each time a bank's
    open row changes."""
    open_rows = {}
    activations = 0
    for block in stream:
        channel, bank, row, _ = model.decode(block)
        if open_rows.get((channel, bank)) != row:
            open_rows[(channel, bank)] = row
            activations += 1
    return activations


def _check_activations(model, stream):
    now = 0
    for block, is_write, step in stream:
        now += step
        model.request(block, is_write, now=now)
    expected = _reference_activations(model, [block for block, _, _ in stream])
    assert model.stats.activations == model.stats.row_misses == expected
    assert model.stats.as_dict()["activations"] == expected


@settings(max_examples=40, deadline=None)
@given(stream=_requests)
def test_ledger_matches_reference_without_refresh(stream):
    _check_activations(_model(refresh_interval=0), stream)


@settings(max_examples=40, deadline=None)
@given(stream=_requests, interval=st.sampled_from([64, 256, 1024]))
def test_ledger_resets_at_window_boundaries(stream, interval):
    """A tREFI window boundary closes no row and drops no activation: the
    total over many windows still equals the un-windowed reference."""
    _check_activations(_model(refresh_interval=interval), stream)


@settings(max_examples=25, deadline=None)
@given(stream=_requests, interval=st.sampled_from([0, 128]))
def test_stats_are_pure_function_of_stream(stream, interval):
    first = _model(refresh_interval=interval)
    second = _model(refresh_interval=interval)
    now = 0
    for block, is_write, step in stream:
        now += step
        first.request(block, is_write, now=now)
        second.request(block, is_write, now=now)
    assert first.stats == second.stats
    assert first.stats.as_dict() == second.stats.as_dict()
