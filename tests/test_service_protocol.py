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
    encode_frame,
    error_response,
    format_address,
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
        "fault": None,
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
        ({"fault": "explode"}, "fault"),
        ({"compiler": "nope"}, "unknown compiler 'nope'"),
    ],
)
def test_validate_rejects_bad_compile_fields(overrides, match):
    frame = {"op": "compile", "qasm": "OPENQASM 2.0;"}
    frame.update(overrides)
    with pytest.raises(ProtocolError, match=match):
        validate_request(frame, allow_fault=True)


def test_validate_fault_requires_server_opt_in():
    frame = {"op": "compile", "qasm": "OPENQASM 2.0;", "fault": "raise"}
    with pytest.raises(ProtocolError, match="disabled"):
        validate_request(frame)
    assert validate_request(frame, allow_fault=True)["fault"] == "raise"


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
