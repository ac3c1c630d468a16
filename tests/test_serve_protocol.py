"""Wire-protocol tests: frame round-trips and malformed-input rejection."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import JobSpec, make_spec
from repro.serve import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameError,
    decode_frame,
    encode_frame,
    parse_address,
    parse_submit,
    ping_frame,
    stats_frame,
    submit_frame,
)
from repro.sim.config import small_test_config


def make_job(**overrides):
    base = dict(design="np", workload="dfs", config=small_test_config(),
                num_cores=1, trace_length=400, graph_scale=0.02)
    base.update(overrides)
    return JobSpec(**base)


# ----------------------------------------------------------------------
# Frame round-trips
# ----------------------------------------------------------------------
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=40),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=10), children, max_size=4),
    ),
    max_leaves=20,
)
frames = st.dictionaries(st.text(min_size=1, max_size=20), json_values,
                         min_size=1, max_size=6)


@settings(max_examples=50, deadline=None)
@given(frames)
def test_encode_decode_round_trip(frame):
    assert decode_frame(encode_frame(frame)) == frame


@settings(max_examples=50, deadline=None)
@given(frames)
def test_encoded_frames_are_single_lines(frame):
    data = encode_frame(frame)
    assert data.endswith(b"\n")
    assert data.count(b"\n") == 1  # NDJSON invariant: one frame, one line


def test_constructors_round_trip():
    for frame in (ping_frame(), stats_frame(),
                  submit_frame([make_job()], request_id="r1")):
        assert decode_frame(encode_frame(frame)) == frame
        assert frame["v"] == PROTOCOL_VERSION


# ----------------------------------------------------------------------
# Malformed input rejection
# ----------------------------------------------------------------------
def test_oversized_frame_rejected_both_directions():
    huge = {"blob": "x" * MAX_FRAME_BYTES}
    with pytest.raises(FrameError, match="exceeds"):
        encode_frame(huge)
    line = b'{"k": "' + b"y" * MAX_FRAME_BYTES + b'"}\n'
    with pytest.raises(FrameError, match="exceeds"):
        decode_frame(line)


def test_truncated_frame_rejected():
    with pytest.raises(FrameError, match="truncated"):
        decode_frame(b'{"type": "ping"')  # no newline: partial read


def test_garbage_rejected():
    with pytest.raises(FrameError, match="not JSON"):
        decode_frame(b"!!! not json at all\n")
    with pytest.raises(FrameError, match="not UTF-8"):
        decode_frame(b'\xff\xfe{"a":1}\n')
    with pytest.raises(FrameError, match="JSON object"):
        decode_frame(b"[1,2,3]\n")


def test_unserialisable_payload_rejected():
    with pytest.raises(FrameError, match="unserialisable"):
        encode_frame({"fn": object()})
    with pytest.raises(FrameError, match="unserialisable"):
        encode_frame({"x": float("nan")})  # NaN would not survive JSON


# ----------------------------------------------------------------------
# Spec wire format
# ----------------------------------------------------------------------
def test_spec_wire_round_trip_preserves_content_hash():
    spec = make_spec("cosmos", "dfs", config=small_test_config(), num_cores=2,
                     max_accesses=500, seed=7)
    rebuilt = JobSpec.from_wire(spec.to_wire())
    assert rebuilt.content_hash() == spec.content_hash()
    assert rebuilt.design == "cosmos" and rebuilt.seed == 7
    assert rebuilt.config == spec.config


def test_spec_wire_survives_json_transport():
    spec = make_job(seed=3)
    payload = json.loads(json.dumps(spec.to_wire()))
    assert JobSpec.from_wire(payload).content_hash() == spec.content_hash()


def test_spec_from_wire_rejects_bad_payloads():
    good = make_job().to_wire()
    with pytest.raises(ValueError, match="spec version"):
        JobSpec.from_wire({**good, "spec_version": 99})
    missing = dict(good)
    del missing["config"]
    with pytest.raises(ValueError):
        JobSpec.from_wire(missing)
    with pytest.raises(ValueError):
        JobSpec.from_wire({**good, "config": {**good["config"],
                                              "no_such_field": 1}})


# ----------------------------------------------------------------------
# Submit validation
# ----------------------------------------------------------------------
def test_parse_submit_round_trip():
    specs = [make_job(), make_job(design="cosmos")]
    parsed = parse_submit(submit_frame(specs, request_id="r"))
    assert [s.content_hash() for s in parsed] == \
        [s.content_hash() for s in specs]


def test_parse_submit_rejections():
    frame = submit_frame([make_job()], request_id="r")
    for version in (None, 2, 3):
        with pytest.raises(FrameError, match="version"):
            parse_submit({**frame, "v": version})
    with pytest.raises(FrameError, match="specs"):
        parse_submit({**frame, "specs": []})
    with pytest.raises(FrameError, match="specs"):
        parse_submit({**frame, "specs": "nope"})
    with pytest.raises(FrameError):
        parse_submit({**frame, "specs": [{"bad": "spec"}]})


# ----------------------------------------------------------------------
# Addresses
# ----------------------------------------------------------------------
def test_parse_address_forms():
    assert parse_address("example.org:9000") == ("example.org", 9000)
    assert parse_address("example.org") == ("example.org", 7911)
    assert parse_address(":9000") == ("127.0.0.1", 9000)
    assert parse_address("10.0.0.1:", default_port=123) == ("10.0.0.1", 123)
    with pytest.raises(ValueError, match="port"):
        parse_address("host:notaport")
