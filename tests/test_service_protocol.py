"""Tests for the `repro serve` wire protocol (repro.service.protocol)."""

import numpy as np
import pytest

from repro.service.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    ERR_BAD_REQUEST,
    ERR_TOO_LARGE,
    ERROR_CODES,
    FrameReader,
    ProtocolError,
    encode_body,
    encode_frame,
    error_response,
    format_address,
    ok_frame,
    ok_response,
    parse_address,
    validate_request,
)


# ---------------------------------------------------------------------------
# Framing.
# ---------------------------------------------------------------------------


def test_encode_frame_is_one_json_line():
    data = encode_frame({"op": "ping", "id": 7})
    assert data.endswith(b"\n")
    assert data.count(b"\n") == 1
    frames = FrameReader().feed(data)
    assert frames == [{"op": "ping", "id": 7}]


def test_encode_frame_coerces_numpy_scalars():
    data = encode_frame({"count": np.int64(3), "ratio": np.float64(0.5)})
    (frame,) = FrameReader().feed(data)
    assert frame == {"count": 3, "ratio": 0.5}


def test_frame_reader_handles_partial_and_batched_frames():
    reader = FrameReader()
    assert reader.feed(b'{"op": "pi') == []
    assert reader.feed(b'ng"}\n{"op": "stats"}\n{"op"') == [
        {"op": "ping"},
        {"op": "stats"},
    ]
    assert reader.feed(b': "shutdown"}\n') == [{"op": "shutdown"}]


def test_frame_reader_skips_blank_lines():
    assert FrameReader().feed(b'\n\n{"op": "ping"}\n\n') == [{"op": "ping"}]


def test_frame_reader_rejects_invalid_json():
    with pytest.raises(ProtocolError) as excinfo:
        FrameReader().feed(b"not json\n")
    assert excinfo.value.code == ERR_BAD_REQUEST


def test_frame_reader_rejects_non_object_frames():
    with pytest.raises(ProtocolError, match="JSON object"):
        FrameReader().feed(b"[1, 2, 3]\n")


def test_frame_reader_bounds_unterminated_buffers():
    reader = FrameReader(max_frame_bytes=64)
    with pytest.raises(ProtocolError) as excinfo:
        reader.feed(b"x" * 65)  # no newline: bound enforced before parsing
    assert excinfo.value.code == ERR_TOO_LARGE


def test_frame_reader_bounds_single_oversized_line():
    reader = FrameReader(max_frame_bytes=32)
    payload = b'{"op": "compile", "qasm": "' + b"x" * 40 + b'"}\n'
    with pytest.raises(ProtocolError) as excinfo:
        reader.feed(payload)
    assert excinfo.value.code == ERR_TOO_LARGE


def _chunks(data, size):
    return [data[start:start + size] for start in range(0, len(data), size)]


def _stream():
    """Frames of mixed sizes, one larger than 64 KB, with blank lines between."""
    messages = [
        {"op": "ping", "id": 1},
        {"op": "compile", "id": "big", "qasm": "x" * 150_000},
        {"op": "stats", "id": [2, "three"]},
        {"op": "compile", "id": None, "qasm": "h q[0];\n" * 900},
    ]
    return messages, b"\n".join(encode_frame(message) for message in messages)


@pytest.mark.parametrize("size", [1, 7, 65536])
def test_frame_reader_chunking_does_not_change_the_frames(size):
    messages, data = _stream()
    reader = FrameReader()
    frames = [frame for chunk in _chunks(data, size) for frame in reader.feed(chunk)]
    assert frames == messages
    assert reader.feed(b"") == []


@pytest.mark.parametrize("size", [1, 7, 64])
def test_frame_reader_chunked_bound_fires_as_soon_as_it_is_passed(size):
    limit = 200
    reader = FrameReader(max_frame_bytes=limit)
    data = b"y" * (limit + 1 + size)
    fed = 0
    with pytest.raises(ProtocolError) as excinfo:
        for chunk in _chunks(data, size):
            fed += len(chunk)
            reader.feed(chunk)
    assert excinfo.value.code == ERR_TOO_LARGE
    assert limit < fed <= limit + size


@pytest.mark.parametrize("size", [1, 7, 64])
def test_frame_reader_passes_a_frame_of_exactly_the_limit(size):
    frame = encode_frame({"op": "compile", "qasm": "z" * 100})
    reader = FrameReader(max_frame_bytes=len(frame) - 1)  # the newline is not counted
    frames = [got for chunk in _chunks(frame * 3, size) for got in reader.feed(chunk)]
    assert frames == [{"op": "compile", "qasm": "z" * 100}] * 3


def test_default_frame_bound_is_generous():
    assert DEFAULT_MAX_FRAME_BYTES >= 1024 * 1024


# ---------------------------------------------------------------------------
# Request validation.
# ---------------------------------------------------------------------------


def test_validate_compile_fills_defaults():
    request = validate_request({"op": "compile", "id": "a", "qasm": "OPENQASM 2.0;"})
    assert request == {
        "op": "compile",
        "id": "a",
        "qasm": "OPENQASM 2.0;",
        "compiler": "reqisc-eff",
        "seed": 0,
        "target": None,
        "timeout": None,
        "priority": 5,
    }


def test_validate_rejects_unknown_op():
    with pytest.raises(ProtocolError, match="unknown op"):
        validate_request({"op": "transmogrify"})


def test_validate_rejects_unknown_fields():
    # A typo like "complier" must fail loudly, not compile with defaults.
    with pytest.raises(ProtocolError, match="complier"):
        validate_request({"op": "compile", "qasm": "x", "complier": "reqisc-eff"})
    with pytest.raises(ProtocolError, match="unknown field"):
        validate_request({"op": "ping", "qasm": "x"})
    # Sessions are gone: a frame that still names one is a bad request.
    with pytest.raises(ProtocolError, match="unknown field.*session"):
        validate_request({"op": "compile", "qasm": "x", "session": "edits"})
    # So is the per-request fault hook: faults come from a FaultPlan only.
    with pytest.raises(ProtocolError, match="unknown field.*fault"):
        validate_request({"op": "compile", "qasm": "x", "fault": "raise"})


@pytest.mark.parametrize(
    "overrides, match",
    [
        ({"qasm": ""}, "qasm"),
        ({"qasm": 42}, "qasm"),
        ({"compiler": 3}, "compiler"),
        ({"seed": "zero"}, "seed"),
        ({"seed": True}, "seed"),
        ({"target": 17}, "target"),
        ({"timeout": 0}, "timeout"),
        ({"timeout": -1.0}, "timeout"),
        ({"timeout": True}, "timeout"),
        ({"priority": 10}, "priority"),
        ({"compiler": "nope"}, "unknown compiler 'nope'"),
    ],
)
def test_validate_rejects_bad_compile_fields(overrides, match):
    frame = {"op": "compile", "qasm": "OPENQASM 2.0;"}
    frame.update(overrides)
    with pytest.raises(ProtocolError, match=match):
        validate_request(frame)


def test_validate_normalizes_timeout_to_float():
    frame = {"op": "compile", "qasm": "OPENQASM 2.0;", "timeout": 5}
    assert validate_request(frame)["timeout"] == 5.0


# ---------------------------------------------------------------------------
# Responses.
# ---------------------------------------------------------------------------


def test_ok_and_error_response_shapes():
    assert ok_response("id-1", op="ping") == {"id": "id-1", "ok": True, "op": "ping"}
    response = error_response(2, ERR_BAD_REQUEST, "nope", pending=3)
    assert response["ok"] is False
    assert response["error"] == {"code": ERR_BAD_REQUEST, "message": "nope"}
    assert response["pending"] == 3


@pytest.mark.parametrize(
    "request_id",
    [7, -3, 2.5, 1e300, "req-\u00e9\"\\", "", None, True, False, [1, "x", None], {"a": {"b": [1.5]}}],
)
@pytest.mark.parametrize("cached", ["no", "result"])
def test_ok_frame_equals_a_fresh_encode(request_id, cached):
    fields = {
        "key": "k" * 64,
        "qasm": 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncx q[0],q[1];\n',
        "summary": {"num_2q": np.int64(5), "duration": np.float64(2.25), "compiler": "reqisc-eff"},
        "compile_seconds": 0.125,
        "worker": 1,
    }
    expected = encode_frame(ok_response(request_id, cached=cached, **fields))
    assert ok_frame(request_id, cached, encode_body(fields)) == expected
    assert encode_body(fields) == encode_frame(fields)[1:-2]


def test_error_codes_are_unique():
    assert len(set(ERROR_CODES)) == len(ERROR_CODES)


# ---------------------------------------------------------------------------
# Addresses.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec, expected",
    [
        (".repro-serve.sock", ("unix", ".repro-serve.sock")),
        ("/tmp/x/y.sock", ("unix", "/tmp/x/y.sock")),
        ("unix:/tmp/a:b.sock", ("unix", "/tmp/a:b.sock")),
        ("tcp:127.0.0.1:7001", ("tcp", ("127.0.0.1", 7001))),
        ("localhost:7001", ("tcp", ("localhost", 7001))),
        (("127.0.0.1", 7001), ("tcp", ("127.0.0.1", 7001))),
    ],
)
def test_parse_address_forms(spec, expected):
    assert parse_address(spec) == expected


def test_parse_address_rejects_bad_tcp_spec():
    with pytest.raises(ValueError, match="tcp"):
        parse_address("tcp:no-port")


def test_format_address_round_trips():
    for spec in ("unix:/tmp/s.sock", "tcp:127.0.0.1:7001"):
        assert format_address(parse_address(spec)) == spec
