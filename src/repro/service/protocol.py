"""Wire protocol of the ``repro serve`` daemon.

Frames are newline-delimited JSON objects (one request or response per
line) over a Unix-domain or local TCP socket.  NDJSON keeps the framing
trivially debuggable (``nc -U .repro-serve.sock`` works) while still
supporting strict validation: a frame that is not valid JSON, not an
object, or longer than ``max_frame_bytes`` is a :class:`ProtocolError` —
the server answers with a ``bad-request`` / ``too-large`` error frame and
closes the connection, because a malformed stream has no recoverable
record boundary.

Requests carry an ``op``:

``compile``
    ``{"op": "compile", "id": ..., "qasm": "...", "compiler": "reqisc-eff",
    "seed": 0, "target": null, "timeout": 30.0}`` — compile an OpenQASM 2.0
    program.  ``id`` is an arbitrary client token echoed back verbatim;
    ``compiler`` must be a registered pipeline name.
    ``priority`` (optional int 0–9, default 5; higher is more important)
    orders queued work and decides what the daemon sheds first when its
    watchdog declares the queue degraded (see ``docs/resilience.md``).
``ping`` / ``stats`` / ``shutdown``
    Liveness probe, counter snapshot, and clean daemon shutdown.
``health``
    Watchdog snapshot: queue depth, worker liveness, dedup/cache hit
    rates, degraded-mode flag and last-scrub age — the op a load balancer
    or the ``repro chaos`` soak polls.

Responses echo ``id`` and carry ``ok``; failures carry
``{"error": {"code": ..., "message": ...}}`` with a code from
:data:`ERROR_CODES` — most importantly ``overloaded`` (bounded-queue
backpressure: resubmit later; the frame carries a ``retry_after`` hint in
seconds that resilient clients honor), ``timeout`` (the per-job deadline
killed the worker) and ``worker-crash`` (the job took its worker down; the
pool respawned it).  See ``docs/serving.md`` and ``docs/resilience.md``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.target.pipeline import has_pipeline, pipeline_names

__all__ = [
    "DEFAULT_MAX_FRAME_BYTES",
    "ERR_BAD_REQUEST",
    "ERR_COMPILE",
    "ERR_INTERNAL",
    "ERR_OVERLOADED",
    "ERR_SHUTDOWN",
    "ERR_TIMEOUT",
    "ERR_TOO_LARGE",
    "ERR_WORKER_CRASH",
    "ERROR_CODES",
    "DEFAULT_PRIORITY",
    "MAX_PRIORITY",
    "MIN_PRIORITY",
    "FrameReader",
    "ProtocolError",
    "encode_body",
    "encode_frame",
    "error_response",
    "ok_frame",
    "ok_response",
    "parse_address",
    "validate_request",
]

#: Hard ceiling on one frame (request or response) in bytes.  Large enough
#: for any realistic compiled program, small enough that a single client
#: cannot exhaust daemon memory with one unbounded line.
DEFAULT_MAX_FRAME_BYTES = 8 * 1024 * 1024

ERR_BAD_REQUEST = "bad-request"
ERR_TOO_LARGE = "too-large"
ERR_OVERLOADED = "overloaded"
ERR_TIMEOUT = "timeout"
ERR_WORKER_CRASH = "worker-crash"
ERR_COMPILE = "compile-error"
ERR_SHUTDOWN = "shutting-down"
ERR_INTERNAL = "internal"

ERROR_CODES = (
    ERR_BAD_REQUEST,
    ERR_TOO_LARGE,
    ERR_OVERLOADED,
    ERR_TIMEOUT,
    ERR_WORKER_CRASH,
    ERR_COMPILE,
    ERR_SHUTDOWN,
    ERR_INTERNAL,
)

_OPS = ("compile", "ping", "stats", "shutdown", "health")

#: Priority bounds for compile requests (higher = shed later).
MIN_PRIORITY, MAX_PRIORITY, DEFAULT_PRIORITY = 0, 9, 5


class ProtocolError(Exception):
    """A frame violated the wire protocol (bad JSON, bad shape, too large)."""

    def __init__(self, message: str, code: str = ERR_BAD_REQUEST) -> None:
        super().__init__(message)
        self.code = code


def _coerce_json(value: Any) -> Any:
    """JSON fallback for numpy scalars that leak into summaries."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return str(value)


def _dumps(message: Dict[str, Any]) -> bytes:
    return json.dumps(message, separators=(",", ":"), default=_coerce_json).encode("utf-8")


def encode_frame(message: Dict[str, Any]) -> bytes:
    """Serialize one message as a newline-terminated JSON line."""
    return _dumps(message) + b"\n"


def encode_body(fields: Dict[str, Any]) -> bytes:
    """``fields`` encoded as :func:`encode_frame` would, without its braces
    and newline: an answer's body, encoded once and reused by :func:`ok_frame`."""
    return _dumps(fields)[1:-1]


def ok_frame(request_id: Any, cached: str, body: bytes) -> bytes:
    """The success frame of an encoded answer, with the client's ``id``.

    Byte-identical to ``encode_frame(ok_response(request_id, cached=cached,
    **fields))`` for ``body = encode_body(fields)`` of non-empty ``fields``;
    only the head is encoded.
    """
    head = _dumps({"id": request_id, "ok": True, "cached": cached})
    return b"".join((head[:-1], b",", body, b"}\n"))


class FrameReader:
    """Incremental NDJSON frame decoder with a per-frame size bound.

    Feed raw socket bytes in; complete frames come out.  Raises
    :class:`ProtocolError` on a non-JSON or non-object line, or as soon as
    the unterminated buffer exceeds ``max_frame_bytes`` (before the memory
    is spent, not after).
    """

    def __init__(self, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        # Bytes of the buffer already searched for a newline: a frame that
        # arrives in many chunks is scanned once, not once per chunk.
        self._scanned = 0

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        """Consume ``data``; return every frame it completed."""
        buffer = self._buffer
        buffer.extend(data)
        frames: List[Dict[str, Any]] = []
        start = 0
        while True:
            newline = buffer.find(b"\n", self._scanned)
            if newline < 0:
                break
            line = bytes(buffer[start:newline]).strip()
            start = self._scanned = newline + 1
            if not line:
                continue
            if len(line) > self.max_frame_bytes:
                raise ProtocolError(
                    f"frame exceeds {self.max_frame_bytes} bytes", code=ERR_TOO_LARGE
                )
            try:
                frame = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as exc:
                raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
            if not isinstance(frame, dict):
                raise ProtocolError("frame must be a JSON object")
            frames.append(frame)
        del buffer[:start]
        self._scanned = len(buffer)
        if self._scanned > self.max_frame_bytes:
            raise ProtocolError(f"frame exceeds {self.max_frame_bytes} bytes", code=ERR_TOO_LARGE)
        return frames


def validate_request(frame: Dict[str, Any]) -> Dict[str, Any]:
    """Check shape and types of a request frame; return it normalized.

    Raises :class:`ProtocolError` with a human-readable message on any
    violation.  Unknown keys are rejected so client typos (``complier``)
    fail loudly instead of silently compiling with defaults.
    """
    op = frame.get("op")
    if op not in _OPS:
        raise ProtocolError(f"unknown op {op!r}; expected one of {', '.join(_OPS)}")
    allowed = {"op", "id"}
    if op == "compile":
        allowed |= {"qasm", "compiler", "seed", "target", "timeout", "priority"}
    unknown = set(frame) - allowed
    if unknown:
        raise ProtocolError(f"unknown field(s) for op {op!r}: {', '.join(sorted(unknown))}")

    request: Dict[str, Any] = {"op": op, "id": frame.get("id")}
    if op != "compile":
        return request

    qasm = frame.get("qasm")
    if not isinstance(qasm, str) or not qasm.strip():
        raise ProtocolError("compile requires a non-empty 'qasm' string")
    compiler = frame.get("compiler", "reqisc-eff")
    if not isinstance(compiler, str):
        raise ProtocolError("'compiler' must be a string")
    if not has_pipeline(compiler):
        raise ProtocolError(f"unknown compiler {compiler!r}; expected one of {', '.join(pipeline_names())}")
    seed = frame.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ProtocolError("'seed' must be an integer")
    target = frame.get("target")
    if target is not None and not isinstance(target, str):
        raise ProtocolError("'target' must be a preset name (string) or null")
    timeout = frame.get("timeout")
    if timeout is not None:
        if not isinstance(timeout, (int, float)) or isinstance(timeout, bool) or timeout <= 0:
            raise ProtocolError("'timeout' must be a positive number of seconds")
        timeout = float(timeout)
    priority = frame.get("priority", DEFAULT_PRIORITY)
    if (
        not isinstance(priority, int)
        or isinstance(priority, bool)
        or not MIN_PRIORITY <= priority <= MAX_PRIORITY
    ):
        raise ProtocolError(
            f"'priority' must be an integer in [{MIN_PRIORITY}, {MAX_PRIORITY}]"
        )
    request.update(
        {"qasm": qasm, "compiler": compiler, "seed": seed, "target": target,
         "timeout": timeout, "priority": priority}
    )
    return request


def ok_response(request_id: Any, **fields: Any) -> Dict[str, Any]:
    """A success frame echoing the client's ``id``."""
    response: Dict[str, Any] = {"id": request_id, "ok": True}
    response.update(fields)
    return response


def error_response(request_id: Any, code: str, message: str, **fields: Any) -> Dict[str, Any]:
    """A failure frame with a structured ``{code, message}`` error."""
    assert code in ERROR_CODES, code
    response: Dict[str, Any] = {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }
    response.update(fields)
    return response


def parse_address(spec: Union[str, Tuple[str, int]]) -> Tuple[str, Any]:
    """Normalize an address spec into ``("unix", path)`` or ``("tcp", (host, port))``.

    Accepted forms: a filesystem path (Unix-domain socket, the default),
    ``unix:PATH``, ``tcp:HOST:PORT`` or ``HOST:PORT`` where PORT is numeric.
    """
    if isinstance(spec, tuple):
        host, port = spec
        return ("tcp", (str(host), int(port)))
    if spec.startswith("unix:"):
        return ("unix", spec[len("unix:"):])
    if spec.startswith("tcp:"):
        rest = spec[len("tcp:"):]
        host, _, port = rest.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"invalid tcp address {spec!r}; expected tcp:HOST:PORT")
        return ("tcp", (host, int(port)))
    host, _, port = spec.rpartition(":")
    if host and port.isdigit() and "/" not in spec:
        return ("tcp", (host, int(port)))
    return ("unix", spec)


def format_address(address: Tuple[str, Any]) -> str:
    """Human-readable form of a :func:`parse_address` result."""
    family, value = address
    if family == "unix":
        return f"unix:{value}"
    host, port = value
    return f"tcp:{host}:{port}"


def receive_frames(sock, reader: FrameReader, bufsize: int = 65536) -> Optional[List[Dict[str, Any]]]:
    """Blocking read of at least one frame from ``sock``.

    Returns ``None`` on a clean EOF with an empty buffer; raises
    :class:`ProtocolError` exactly like :meth:`FrameReader.feed`.
    """
    while True:
        data = sock.recv(bufsize)
        if not data:
            return None
        frames = reader.feed(data)
        if frames:
            return frames
