"""The ``repro serve`` daemon: a long-running compile service.

Turns the one-shot fork/compile/exit :class:`~repro.service.batch.BatchCompiler`
into a resident service: job intake over a Unix-domain (or local TCP)
socket speaking the NDJSON protocol of :mod:`repro.service.protocol`, a
persistent sharded :class:`~repro.service.pool.WorkerPool`, and three
layers of request coalescing in front of it:

1. **Result cache** — a bounded LRU of completed answers keyed by the
   request's content hash, each held as its encoded response body; a
   repeat submission answers without touching the pool at all, and
   encodes nothing but its own request id.  In front of it, a raw-request
   pre-key (a hash of the exact QASM bytes and options) aliases requests
   that were already answered, so an exact repeat answers before its QASM
   is even parsed.
2. **In-flight dedup** — concurrent submissions of the same circuit
   (same :func:`~repro.service.cache.circuit_fingerprint`, compiler,
   target and seed) attach to the one running job and all
   receive the identical result; only one compile ever runs.
3. **Synthesis cache** — inside the workers, the segment-backed
   :class:`~repro.service.cache.SynthesisCache` shares KAK/template
   results across jobs, workers and daemon restarts.

Backpressure is a bounded queue: when ``queued + running`` jobs reach
``max_pending``, new work is refused with an explicit ``overloaded``
response instead of building an unbounded backlog (the client retries
later).  Per-job deadlines and crash containment come from the pool: a
poisoned circuit, hung worker or dying process fails only its own job and
the worker is respawned — proven by the tests in
``tests/test_service_server.py``, which inject worker faults through a
seeded :class:`~repro.resilience.faultplan.FaultPlan` (``fault_plan``),
the daemon's only fault-injection path.

Determinism contract: for every registered pipeline name, a daemon
response is bit-identical to ``BatchCompiler`` output, to ``repro compile``
and to an in-process ``compile(spec=name)`` with the same seed and target.
Workers call that same ``compile()``, job identity hashes exact circuit
content and the synthesis cache keys on exact matrix bytes.  Gated by
``tests/test_pipeline_identity.py`` (every name through every front end)
and ``tests/test_service_server.py`` (every answer under concurrent load
against the sequential compile).  An unknown name is a ``bad-request``.
"""

from __future__ import annotations

import hashlib
import logging
import os
import queue as queue_module
import socket
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.service import protocol
from repro.service.pool import JobOutcome, PoolJob, WorkerPool

__all__ = ["ServeConfig", "ServeStats", "CompileServer", "ServeClient", "ServeError"]

logger = logging.getLogger(__name__)

#: Extra seconds a connection thread waits beyond the job deadline before
#: giving up on the pool (the pool's own timeout should always fire first).
_WAIT_GRACE_SECONDS = 10.0
#: How long a chaos-injected "delay" socket fault withholds a response.
_SOCKET_DELAY_SECONDS = 0.5
#: EWMA smoothing for observed compile latency (drives the retry-after hint).
_EWMA_ALPHA = 0.2


def _raw_request_key(qasm_bytes: bytes, request: Dict[str, Any]) -> str:
    """Hash of a compile request's exact QASM bytes and every option the
    content key covers.  ``repr`` keeps ``None`` apart from ``"None"``."""
    options = tuple(request[name] for name in ("compiler", "target", "seed"))
    digest = hashlib.blake2b(repr(options).encode("utf-8"), digest_size=32)
    digest.update(b"\n")
    digest.update(qasm_bytes)
    return digest.hexdigest()


@dataclass
class _InFlight:
    """One running compile; ``body`` is its encoded answer once a waiter has it."""

    future: "Future[JobOutcome]"
    body: Optional[bytes] = None


@dataclass
class ServeConfig:
    """Tunables of one :class:`CompileServer` instance."""

    address: str = ".repro-serve.sock"  # path, unix:PATH, tcp:HOST:PORT or HOST:PORT
    workers: int = 2
    max_pending: int = 64  # queued + running jobs before `overloaded`
    job_timeout: float = 60.0  # default per-job deadline (seconds)
    max_frame_bytes: int = protocol.DEFAULT_MAX_FRAME_BYTES
    max_qasm_bytes: int = 1024 * 1024
    max_qubits: Optional[int] = 64  # None disables the bound
    cache_dir: Optional[str] = None
    cache_capacity: Optional[int] = 4096
    result_cache_size: int = 256
    allow_shutdown_op: bool = True
    compact_cache_on_shutdown: bool = False
    # Resilience layer (docs/resilience.md):
    fault_plan: Optional[Any] = None  # repro.resilience.FaultPlan — chaos and fault tests only
    watchdog_interval: float = 1.0  # seconds between watchdog sweeps (<= 0 disables)
    shed_after: float = 5.0  # sustained seconds at max_pending before degraded mode
    shed_priority: int = 5  # queued jobs below this priority are shed when degraded

    def __post_init__(self) -> None:
        # Settings under which the daemon could never answer a compile.
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, not {self.workers}")
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, not {self.max_pending}")
        if not self.job_timeout > 0:
            raise ValueError(f"job_timeout must be > 0 seconds, not {self.job_timeout}")
        for name in ("max_frame_bytes", "max_qasm_bytes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, not {getattr(self, name)}")
        for name in ("max_qubits", "cache_capacity"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be None or >= 1, not {value}")


@dataclass
class ServeStats:
    """Daemon-level counters (the ``stats`` op payload)."""

    received: int = 0
    completed: int = 0
    failed: int = 0
    compiles_started: int = 0
    dedup_inflight: int = 0
    dedup_result_cache: int = 0  # every result-LRU answer, raw-key hits included
    dedup_raw_key: int = 0  # result-LRU answers found by raw pre-key, before parsing
    rejected_overload: int = 0
    rejected_invalid: int = 0
    malformed_frames: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "received": self.received,
            "completed": self.completed,
            "failed": self.failed,
            "compiles_started": self.compiles_started,
            "dedup_inflight": self.dedup_inflight,
            "dedup_result_cache": self.dedup_result_cache,
            "dedup_raw_key": self.dedup_raw_key,
            "rejected_overload": self.rejected_overload,
            "rejected_invalid": self.rejected_invalid,
            "malformed_frames": self.malformed_frames,
        }


class CompileServer:
    """Socket front end + dedup layer over a persistent :class:`WorkerPool`."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        if config is None:
            config = ServeConfig()
        self.config = config
        self.stats = ServeStats()
        self.address = protocol.parse_address(config.address)
        self._pool: Optional[WorkerPool] = None
        self._socket: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._connections: List[socket.socket] = []
        self._lock = threading.Lock()
        self._shutdown = threading.Event()
        self._started = False
        # Dedup state: content-hash -> running compile (in flight) / encoded
        # response body, ``protocol.encode_body`` of the answer's fields
        # (result LRU).  Aggregated worker-side cache counters.
        self._inflight: Dict[str, _InFlight] = {}
        self._result_cache: "OrderedDict[str, bytes]" = OrderedDict()
        # Raw pre-key (exact QASM bytes + options) -> content key, recorded
        # only once that request was answered with a result; bounded like
        # the result LRU.
        self._result_aliases: "OrderedDict[str, str]" = OrderedDict()
        self._cache_totals: Dict[str, int] = {}
        # Resilience state: chaos socket-layer injector, watchdog thread and
        # the degraded-mode latch it drives, compile-latency EWMA for the
        # retry-after hint.
        self._socket_faults = (
            config.fault_plan.injector("socket") if config.fault_plan is not None else None
        )
        self._watchdog_thread: Optional[threading.Thread] = None
        self._watchdog_sweeps = 0
        self._degraded = False
        self._overloaded_since: Optional[float] = None
        self._ewma_compile_seconds: Optional[float] = None
        self._started_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def start(self) -> "CompileServer":
        """Bind the socket, spawn the worker pool and the accept thread."""
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        cache_spec = None
        if self.config.cache_dir is not None:
            cache_spec = (self.config.cache_capacity, self.config.cache_dir)
        elif self.config.cache_capacity is not None:
            cache_spec = (self.config.cache_capacity, None)
        self._pool = WorkerPool(
            workers=self.config.workers,
            cache_spec=cache_spec,
            default_timeout=self.config.job_timeout,
            fault_plan=self.config.fault_plan,
        )
        self._started_at = time.monotonic()
        family, value = self.address
        if family == "unix":
            try:
                os.unlink(value)
            except OSError:
                pass
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.bind(value)
        else:
            host, port = value
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, port))
            if port == 0:  # ephemeral port: record what the OS picked
                self.address = ("tcp", sock.getsockname()[:2])
        sock.listen(128)
        sock.settimeout(0.2)  # lets the accept loop notice shutdown
        self._socket = sock
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._accept_thread.start()
        if self.config.watchdog_interval > 0:
            self._watchdog_thread = threading.Thread(
                target=self._watchdog_loop, name="repro-serve-watchdog", daemon=True
            )
            self._watchdog_thread.start()
        return self

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the daemon shuts down; True when it did."""
        return self._shutdown.wait(timeout)

    def close(self) -> None:
        """Stop accepting, fail queued jobs, stop workers, release the socket."""
        if self._shutdown.is_set():
            return
        self._shutdown.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        if self._watchdog_thread is not None:
            self._watchdog_thread.join(timeout=2.0)
        with self._lock:
            connections = list(self._connections)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._pool is not None:
            self._pool.shutdown()
        if self._socket is not None:
            try:
                self._socket.close()
            except OSError:
                pass
        family, value = self.address
        if family == "unix":
            try:
                os.unlink(value)
            except OSError:
                pass
        if self.config.compact_cache_on_shutdown and self.config.cache_dir is not None:
            from repro.service.cache import SynthesisCache

            SynthesisCache(capacity=1, directory=self.config.cache_dir).compact()

    def __enter__(self) -> "CompileServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Accept / connection handling.
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._shutdown.is_set():
            try:
                conn, _ = self._socket.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            conn.settimeout(None)
            with self._lock:
                self._connections.append(conn)
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), name="repro-serve-conn", daemon=True
            )
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        reader = protocol.FrameReader(max_frame_bytes=self.config.max_frame_bytes)
        try:
            while not self._shutdown.is_set():
                try:
                    frames = protocol.receive_frames(conn, reader)
                except protocol.ProtocolError as exc:
                    # The stream has no recoverable record boundary after a
                    # framing violation: answer once, then hang up.
                    with self._lock:
                        self.stats.malformed_frames += 1
                    self._send(conn, protocol.error_response(None, exc.code, str(exc)))
                    break
                except OSError:
                    break
                if frames is None:
                    break  # clean EOF
                for frame in frames:
                    response = self._handle_frame(frame)
                    if response is not None:
                        # Only compile responses are chaos-faultable: probes
                        # (ping/health/stats) must stay reliable so soaks
                        # and watchdog pollers can trust them.
                        faultable = isinstance(frame, dict) and frame.get("op") == "compile"
                        if not self._send(conn, response, faultable=faultable):
                            return  # injected reset/partial: connection is gone
                    if self._shutdown.is_set():
                        break
        finally:
            with self._lock:
                if conn in self._connections:
                    self._connections.remove(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _send(
        self, conn: socket.socket, message: Union[Dict[str, Any], bytes], faultable: bool = False
    ) -> bool:
        """Send one frame; returns False when the connection is unusable.

        ``message`` is a response dict, or a frame already encoded by
        :func:`protocol.ok_frame`, which goes out as it is.

        When a chaos :class:`FaultPlan` arms the ``socket`` layer and this
        frame is faultable, a scheduled fault may fire instead of a clean
        send: ``reset`` drops the connection without answering, ``partial``
        sends a torn half-frame then hangs up, ``delay`` withholds the
        response briefly (tail latency — the client's hedging trigger).
        """
        payload = message if isinstance(message, bytes) else protocol.encode_frame(message)
        if faultable and self._socket_faults is not None:
            mode = self._socket_faults.draw()
            if mode == "reset":
                logger.warning("chaos: resetting connection instead of answering")
                self._drop_connection(conn)
                return False
            if mode == "partial":
                logger.warning("chaos: sending torn half-frame, then hanging up")
                try:
                    conn.sendall(payload[: max(1, len(payload) // 2)])
                except OSError:
                    pass
                self._drop_connection(conn)
                return False
            if mode == "delay":
                logger.warning("chaos: delaying response by %.1fs", _SOCKET_DELAY_SECONDS)
                time.sleep(_SOCKET_DELAY_SECONDS)
        try:
            conn.sendall(payload)
            return True
        except OSError:
            return False

    @staticmethod
    def _drop_connection(conn: socket.socket) -> None:
        try:
            conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            conn.close()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Request handling.
    # ------------------------------------------------------------------
    def _handle_frame(self, frame: Dict[str, Any]) -> Optional[Union[Dict[str, Any], bytes]]:
        request_id = frame.get("id") if isinstance(frame, dict) else None
        try:
            request = protocol.validate_request(frame)
        except protocol.ProtocolError as exc:
            with self._lock:
                self.stats.rejected_invalid += 1
            return protocol.error_response(request_id, exc.code, str(exc))

        op = request["op"]
        if op == "ping":
            return protocol.ok_response(request_id, op="ping")
        if op == "stats":
            return protocol.ok_response(request_id, op="stats", stats=self.snapshot())
        if op == "health":
            return protocol.ok_response(request_id, op="health", health=self.health())
        if op == "shutdown":
            if not self.config.allow_shutdown_op:
                return protocol.error_response(
                    request_id, protocol.ERR_BAD_REQUEST, "shutdown op is disabled"
                )
            # Answer first, then tear down shortly after so this connection
            # still receives its acknowledgement frame.
            timer = threading.Timer(0.2, self.close)
            timer.daemon = True
            timer.start()
            return protocol.ok_response(request_id, op="shutdown")
        return self._handle_compile(request)

    def _handle_compile(self, request: Dict[str, Any]) -> Union[Dict[str, Any], bytes]:
        request_id = request["id"]
        with self._lock:
            self.stats.received += 1
        if self._shutdown.is_set():
            return protocol.error_response(
                request_id, protocol.ERR_SHUTDOWN, "server is shutting down"
            )

        qasm = request["qasm"]
        qasm_bytes = qasm.encode("utf-8")
        if len(qasm_bytes) > self.config.max_qasm_bytes:
            with self._lock:
                self.stats.rejected_invalid += 1
            return protocol.error_response(
                request_id,
                protocol.ERR_TOO_LARGE,
                f"qasm exceeds max_qasm_bytes={self.config.max_qasm_bytes}",
            )

        # Exact repeat of an answered request: same bytes and options passed
        # every check below before, so answer from the result LRU unparsed.
        raw_key = _raw_request_key(qasm_bytes, request)
        with self._lock:
            aliased = self._result_aliases.get(raw_key)
            if aliased is not None:
                body = self._result_cache.get(aliased)
                if body is not None:
                    self._result_aliases.move_to_end(raw_key)
                    self._result_cache.move_to_end(aliased)
                    self.stats.dedup_raw_key += 1
                    self.stats.dedup_result_cache += 1
                    self.stats.completed += 1
                    return protocol.ok_frame(request_id, "result", body)
                del self._result_aliases[raw_key]  # its result was evicted

        # Parse up front: a syntactically broken program is the client's
        # error (bad-request), not a compile failure, and the parsed circuit
        # gives us the content-addressed dedup key + early size validation.
        from repro.qasm import QasmError, QubitCapError, loads
        from repro.service.cache import circuit_fingerprint

        try:
            # The qubit cap is checked at the qreg, before any gate expands.
            circuit = loads(qasm, max_qubits=self.config.max_qubits)
        except QubitCapError as exc:
            with self._lock:
                self.stats.rejected_invalid += 1
            return protocol.error_response(
                request_id,
                protocol.ERR_TOO_LARGE,
                f"circuit has {exc.num_qubits} qubits; this server caps jobs at "
                f"max_qubits={exc.max_qubits}",
            )
        except QasmError as exc:
            with self._lock:
                self.stats.rejected_invalid += 1
            return protocol.error_response(
                request_id, protocol.ERR_BAD_REQUEST, f"invalid QASM: {exc}"
            )
        target = request["target"]
        if target is not None:
            from repro.target.target import resolve_target

            try:
                resolve_target(target, num_qubits=max(2, circuit.num_qubits))
            except (ValueError, TypeError, KeyError, OSError) as exc:
                with self._lock:
                    self.stats.rejected_invalid += 1
                return protocol.error_response(
                    request_id, protocol.ERR_BAD_REQUEST, f"invalid target {target!r}: {exc}"
                )

        # Job identity: exact circuit content + everything that can change
        # the compiled bytes.
        key = circuit_fingerprint(
            circuit, "serve", request["compiler"], str(target), str(request["seed"])
        )
        timeout = request["timeout"] or self.config.job_timeout

        with self._lock:
            body = self._result_cache.get(key)
            if body is not None:
                self._result_cache.move_to_end(key)
                self._remember_alias(raw_key, key)
                self.stats.dedup_result_cache += 1
                self.stats.completed += 1
                return protocol.ok_frame(request_id, "result", body)
            running = self._inflight.get(key)
            if running is not None:
                self.stats.dedup_inflight += 1
            else:
                if self._degraded and request["priority"] < self.config.shed_priority:
                    # Degraded mode refuses sheddable work at the door: the
                    # queue it would join is already being shed.
                    self.stats.rejected_overload += 1
                    return protocol.error_response(
                        request_id,
                        protocol.ERR_OVERLOADED,
                        f"server is degraded and shedding priority < "
                        f"{self.config.shed_priority}; retry later",
                        pending=self._pool.pending_jobs(),
                        retry_after=self._retry_after_hint(),
                    )
                if self._pool.pending_jobs() >= self.config.max_pending:
                    self.stats.rejected_overload += 1
                    return protocol.error_response(
                        request_id,
                        protocol.ERR_OVERLOADED,
                        f"server is at max_pending={self.config.max_pending} jobs; retry later",
                        pending=self._pool.pending_jobs(),
                        retry_after=self._retry_after_hint(),
                    )
                self.stats.compiles_started += 1
                job = PoolJob(
                    key=key,
                    qasm=qasm,
                    compiler=request["compiler"],
                    seed=request["seed"],
                    target=target,
                    timeout=timeout,
                    priority=request["priority"],
                )
                running = _InFlight(self._pool.submit(job))
                self._inflight[key] = running

        try:
            outcome = running.future.result(timeout=timeout + _WAIT_GRACE_SECONDS)
        except Exception as exc:  # noqa: BLE001 — defensive: pool must answer
            outcome = JobOutcome(
                key=key,
                ok=False,
                error_code=protocol.ERR_INTERNAL,
                error_message=f"{type(exc).__name__}: {exc}",
            )

        with self._lock:
            if self._inflight.get(key) is running:
                del self._inflight[key]
            if outcome.ok and outcome.payload is not None:
                if running.body is None:  # first waiter: account, encode, cache
                    running.body = self._store_result(key, outcome)
                self._remember_alias(raw_key, key)
                self.stats.completed += 1
                return protocol.ok_frame(request_id, "no", running.body)
            self.stats.failed += 1
            extra: Dict[str, Any] = {}
            if outcome.error_code == protocol.ERR_OVERLOADED:
                # Shed jobs resolve to `overloaded`; tell the client when it
                # is worth coming back.
                extra["retry_after"] = self._retry_after_hint()
            return protocol.error_response(
                request_id,
                outcome.error_code or protocol.ERR_INTERNAL,
                outcome.error_message or "unknown failure",
                key=key,
                worker=outcome.worker,
                **extra,
            )

    def _store_result(self, key: str, outcome: JobOutcome) -> bytes:
        """Fold a compile's counters into the daemon's, then encode its answer
        once and put it in the result LRU (lock held); returns the body."""
        payload = outcome.payload
        for name, count in payload.get("cache", {}).items():
            self._cache_totals[name] = self._cache_totals.get(name, 0) + count
        seconds = payload["compile_seconds"]
        if self._ewma_compile_seconds is None:
            self._ewma_compile_seconds = seconds
        else:
            self._ewma_compile_seconds = (
                _EWMA_ALPHA * seconds + (1.0 - _EWMA_ALPHA) * self._ewma_compile_seconds
            )
        body = protocol.encode_body(
            {
                "key": key,
                "qasm": payload["qasm"],
                "summary": payload["summary"],
                "compile_seconds": seconds,
                "worker": outcome.worker,
            }
        )
        self._result_cache[key] = body
        while len(self._result_cache) > self.config.result_cache_size:
            self._result_cache.popitem(last=False)
        return body

    def _remember_alias(self, raw_key: str, key: str) -> None:
        """Alias an answered request's raw pre-key to its content key (lock held)."""
        self._result_aliases[raw_key] = key
        self._result_aliases.move_to_end(raw_key)
        while len(self._result_aliases) > self.config.result_cache_size:
            self._result_aliases.popitem(last=False)

    def snapshot(self) -> Dict[str, Any]:
        """Daemon + pool + aggregated worker-cache counters (``stats`` op)."""
        with self._lock:
            payload = {
                "server": self.stats.as_dict(),
                "pool": self._pool.stats() if self._pool is not None else {},
                "cache": dict(self._cache_totals),
                "inflight": len(self._inflight),
                "result_cache_entries": len(self._result_cache),
                "result_cache_aliases": len(self._result_aliases),
                "config": {
                    "workers": self.config.workers,
                    "max_pending": self.config.max_pending,
                    "job_timeout": self.config.job_timeout,
                    "max_qubits": self.config.max_qubits,
                    "cache_dir": self.config.cache_dir,
                },
            }
        return payload

    # ------------------------------------------------------------------
    # Watchdog + graceful degradation (docs/resilience.md).
    # ------------------------------------------------------------------
    def _watchdog_loop(self) -> None:
        """Supervisor sweep: probe worker liveness, track backpressure.

        Runs every ``watchdog_interval`` seconds.  Dead *idle* workers are
        respawned preemptively (the pump only notices dead *busy* workers).
        Sustained saturation — the pending count pinned at ``max_pending``
        for ``shed_after`` seconds — latches *degraded mode*: queued jobs
        below ``shed_priority`` are shed with ``overloaded`` + a
        ``retry_after`` hint, every sweep, until pending falls back under
        half of ``max_pending`` (hysteresis, so the mode doesn't flap).
        """
        interval = self.config.watchdog_interval
        while not self._shutdown.wait(interval):
            pool = self._pool
            if pool is None:
                continue
            try:
                pool.probe()
                pending = pool.pending_jobs()
                now = time.monotonic()
                with self._lock:
                    if pending >= self.config.max_pending:
                        if self._overloaded_since is None:
                            self._overloaded_since = now
                        if (
                            not self._degraded
                            and now - self._overloaded_since >= self.config.shed_after
                        ):
                            self._degraded = True
                            logger.warning(
                                "watchdog: %d jobs pending for %.1fs — entering degraded "
                                "mode (shedding priority < %d)",
                                pending,
                                now - self._overloaded_since,
                                self.config.shed_priority,
                            )
                    elif pending <= self.config.max_pending // 2:
                        self._overloaded_since = None
                        if self._degraded:
                            self._degraded = False
                            logger.info("watchdog: backlog drained — leaving degraded mode")
                    degraded = self._degraded
                    self._watchdog_sweeps += 1
                if degraded:
                    shed = pool.shed(self.config.shed_priority)
                    if shed:
                        logger.info("watchdog: shed %d queued job(s) under degraded load", shed)
            except Exception:  # noqa: BLE001 — the watchdog must never die
                logger.exception("watchdog sweep failed")

    def _retry_after_hint(self) -> float:
        """Seconds a refused client should wait: queue depth x observed latency.

        ``pending / workers`` is how many service times deep the queue is;
        multiplied by the compile-latency EWMA it estimates when capacity
        frees up.  Clamped to [0.1, 30] so a cold EWMA or a monster queue
        still yields a sane hint.
        """
        pool = self._pool
        pending = pool.pending_jobs() if pool is not None else 0
        per_job = self._ewma_compile_seconds if self._ewma_compile_seconds else 0.5
        hint = (max(1, pending) / max(1, self.config.workers)) * per_job
        return max(0.1, min(30.0, hint))

    def health(self) -> Dict[str, Any]:
        """The ``health`` op payload: liveness, saturation, hit rates, scrub age."""
        pool_stats = self._pool.stats() if self._pool is not None else {}
        with self._lock:
            cache = dict(self._cache_totals)
            degraded = self._degraded
            sweeps = self._watchdog_sweeps
            ewma = self._ewma_compile_seconds
            inflight = len(self._inflight)
            server_stats = self.stats.as_dict()
        hits, misses = cache.get("hits", 0), cache.get("misses", 0)
        dedup = server_stats["dedup_inflight"] + server_stats["dedup_result_cache"]
        scrub_age: Optional[float] = None
        if self.config.cache_dir is not None:
            from repro.service.cache import scrub_age_seconds

            scrub_age = scrub_age_seconds(self.config.cache_dir)
        if self._shutdown.is_set():
            status = "shutting-down"
        elif degraded:
            status = "degraded"
        elif pool_stats and pool_stats.get("alive", 0) < pool_stats.get("workers", 0):
            status = "impaired"
        else:
            status = "ok"
        return {
            "status": status,
            "degraded": degraded,
            "uptime_seconds": (
                time.monotonic() - self._started_at if self._started_at is not None else 0.0
            ),
            "pending": pool_stats.get("pending", 0),
            "max_pending": self.config.max_pending,
            "inflight": inflight,
            "workers": pool_stats.get("workers", 0),
            "workers_alive": pool_stats.get("alive", 0),
            "respawns": pool_stats.get("respawns", 0),
            "probe_respawns": pool_stats.get("probe_respawns", 0),
            "shed_jobs": pool_stats.get("shed_jobs", 0),
            "watchdog_sweeps": sweeps,
            "retry_after_hint": self._retry_after_hint(),
            "ewma_compile_seconds": ewma,
            "requests_completed": server_stats["completed"],
            "requests_failed": server_stats["failed"],
            "dedup_rate": (
                dedup / server_stats["received"] if server_stats["received"] else 0.0
            ),
            "synthesis_cache_hit_rate": hits / (hits + misses) if hits + misses else None,
            "last_scrub_age_seconds": scrub_age,
        }

    def fault_counts(self) -> Dict[str, int]:
        """Chaos faults fired so far, per ``layer.mode`` (soak reporting).

        Covers the layers injected in this process: ``worker`` and ``clock``
        (pool dispatch) and ``socket`` (response path).  ``cache`` faults
        fire inside worker processes; their evidence is what
        :meth:`SynthesisCache.scrub` finds afterwards.
        """
        counts: Dict[str, int] = {}
        if self._pool is not None:
            counts.update(self._pool.fault_counts())
        if self._socket_faults is not None:
            counts.update(self._socket_faults.fired_counts())
        return counts


# ---------------------------------------------------------------------------
# Client.
# ---------------------------------------------------------------------------


class ServeError(Exception):
    """An error response from the daemon (carries the protocol error code)."""

    def __init__(self, code: str, message: str, response: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message
        self.response = response or {}


class ServeClient:
    """Synchronous client for the ``repro serve`` daemon, with resilience.

    One socket, one outstanding request at a time (lock-protected), which
    is exactly what the CLI and the load generator's per-thread clients
    need.  Use one client per thread for concurrency.

    Socket lifecycle is strict: connects honor ``connect_timeout``, any
    error path closes the socket (no descriptor leaks under repeated
    failures), and the client transparently reconnects on the next request.
    When a :class:`~repro.resilience.retry.RetryPolicy` is given,
    :meth:`compile` retries transport failures and retriable daemon errors
    with bounded jittered backoff, honors the server's ``retry_after``
    hint, and optionally *hedges* slow requests on a second connection —
    all safe because compile submissions are idempotent (content-hash
    dedup server-side).  What actually happened is counted in
    :attr:`retry_stats`.
    """

    def __init__(
        self,
        address: Union[str, Tuple[str, int]] = ".repro-serve.sock",
        timeout: Optional[float] = 120.0,
        max_frame_bytes: int = protocol.DEFAULT_MAX_FRAME_BYTES,
        connect_timeout: Optional[float] = 10.0,
        retry: Optional[Any] = None,
        retry_stats: Optional[Any] = None,
    ) -> None:
        self._address_spec = address
        self.address = protocol.parse_address(address)
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.retry = retry
        if retry_stats is None:
            from repro.resilience.retry import RetryStats

            retry_stats = RetryStats()
        self.retry_stats = retry_stats
        self._max_frame_bytes = max_frame_bytes
        self._sock: Optional[socket.socket] = None
        self._reader = protocol.FrameReader(max_frame_bytes=max_frame_bytes)
        self._lock = threading.Lock()
        self._counter = 0

    def _connect(self) -> socket.socket:
        if self._sock is not None:
            return self._sock
        family, value = self.address
        connect_timeout = self.connect_timeout if self.connect_timeout is not None else self.timeout
        if family == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.settimeout(connect_timeout)
                sock.connect(value)
            except BaseException:
                # A failed connect must not leak the descriptor (repeated
                # retries against a dead daemon would exhaust the fd table).
                sock.close()
                raise
        else:
            # create_connection closes its socket internally on failure.
            sock = socket.create_connection(tuple(value), timeout=connect_timeout)
        sock.settimeout(self.timeout)
        self._sock = sock
        self._reader = protocol.FrameReader(max_frame_bytes=self._max_frame_bytes)
        return sock

    def _close_unlocked(self) -> None:
        """Drop the socket.  Caller holds (or is) ``self._lock``."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        with self._lock:
            self._close_unlocked()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one frame, wait for one response frame (raw, no raising)."""
        with self._lock:
            self._counter += 1
            message = dict(message)
            message.setdefault("id", self._counter)
            sock = self._connect()
            try:
                sock.sendall(protocol.encode_frame(message))
                frames = protocol.receive_frames(sock, self._reader)
            except (OSError, protocol.ProtocolError):
                self._close_unlocked()
                raise
            if frames is None:
                self._close_unlocked()
                raise ConnectionError("server closed the connection")
            return frames[0]

    def _checked(self, message: Dict[str, Any]) -> Dict[str, Any]:
        response = self.request(message)
        if not response.get("ok"):
            error = response.get("error") or {}
            raise ServeError(
                error.get("code", protocol.ERR_INTERNAL),
                error.get("message", "unknown error"),
                response,
            )
        return response

    def ping(self) -> bool:
        """True when the daemon answers."""
        return bool(self._checked({"op": "ping"}).get("ok"))

    def stats(self) -> Dict[str, Any]:
        """The daemon's counter snapshot."""
        return self._checked({"op": "stats"})["stats"]

    def health(self) -> Dict[str, Any]:
        """The daemon's watchdog health snapshot (``health`` op)."""
        return self._checked({"op": "health"})["health"]

    def shutdown_server(self) -> bool:
        """Ask the daemon to shut down cleanly."""
        return bool(self._checked({"op": "shutdown"}).get("ok"))

    # -- resilient request path (retry / backoff / hedging) -------------

    def _resilient(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Run ``message`` under the retry policy; single-shot without one."""
        policy = self.retry
        if policy is None:
            return self._checked(message)
        stats = self.retry_stats
        last_exc: Optional[BaseException] = None
        for attempt in range(policy.max_attempts):
            stats.bump("attempts")
            retry_after: Optional[float] = None
            try:
                if policy.hedge_after is not None:
                    return self._hedged(message, policy, stats)
                return self._checked(message)
            except ServeError as exc:
                if not policy.retriable(exc.code):
                    raise
                last_exc = exc
                value = exc.response.get("retry_after")
                retry_after = value if isinstance(value, (int, float)) else None
            except (OSError, ConnectionError, protocol.ProtocolError) as exc:
                # request() already dropped the socket; the next attempt
                # reconnects transparently.
                last_exc = exc
                stats.bump("reconnects")
            if attempt + 1 >= policy.max_attempts:
                break
            delay, honored = policy.delay(attempt, retry_after)
            if honored:
                stats.bump("retry_after_honored")
            stats.bump("retries")
            if delay > 0:
                time.sleep(delay)
        stats.bump("giveups")
        assert last_exc is not None
        raise last_exc

    def _hedged(self, message: Dict[str, Any], policy: Any, stats: Any) -> Dict[str, Any]:
        """One attempt with tail-latency hedging.

        The primary request runs on this client's connection in a helper
        thread.  If it has not answered within ``policy.hedge_after``
        seconds, an identical request is raced on a *fresh* connection and
        the first response wins — the daemon's in-flight dedup attaches the
        duplicate to the running compile, so nothing runs twice.  The
        abandoned loser drains (or times out) in the background; both
        sockets stay lock-consistent.
        """
        results: "queue_module.Queue[Tuple[str, Any]]" = queue_module.Queue()

        def run_primary() -> None:
            try:
                results.put(("primary", self._checked(message)))
            except BaseException as exc:  # noqa: BLE001 — relayed to caller
                results.put(("primary-error", exc))

        primary = threading.Thread(target=run_primary, name="serve-client-primary", daemon=True)
        primary.start()
        try:
            source, value = results.get(timeout=policy.hedge_after)
        except queue_module.Empty:
            stats.bump("hedges")
            hedge_client = ServeClient(
                self._address_spec,
                timeout=self.timeout,
                max_frame_bytes=self._max_frame_bytes,
                connect_timeout=self.connect_timeout,
            )

            def run_hedge() -> None:
                try:
                    results.put(("hedge", hedge_client._checked(message)))
                except BaseException as exc:  # noqa: BLE001 — relayed to caller
                    results.put(("hedge-error", exc))
                finally:
                    hedge_client.close()

            threading.Thread(target=run_hedge, name="serve-client-hedge", daemon=True).start()
            deadline = self.timeout if self.timeout is not None else 300.0
            first_error: Optional[BaseException] = None
            for _ in range(2):  # at most two outcomes can arrive
                source, value = results.get(timeout=deadline)
                if source in ("primary", "hedge"):
                    if source == "hedge":
                        stats.bump("hedge_wins")
                    return value
                if first_error is None:
                    first_error = value
            assert first_error is not None
            raise first_error
        if source == "primary":
            return value
        raise value

    def compile(
        self,
        qasm: str,
        compiler: str = "reqisc-eff",
        seed: int = 0,
        target: Optional[str] = None,
        timeout: Optional[float] = None,
        priority: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Compile one OpenQASM 2.0 program; raises :class:`ServeError` on failure.

        The success response carries ``qasm`` (the compiled program),
        ``summary`` (the metric row), ``key`` (the dedup content hash),
        ``cached`` (``"no"`` / ``"result"``) and ``compile_seconds``.

        ``priority`` (0–9, higher first) orders queued work and decides
        what a degraded daemon sheds.  Optional fields are only sent when
        set, so older daemons keep working.

        When the client carries a retry policy, transport failures and
        retriable daemon errors (``overloaded``/``timeout``/``worker-crash``,
        plus transient ``internal``) are retried with bounded backoff —
        safe, because submissions are idempotent under content-hash dedup.
        """
        message: Dict[str, Any] = {
            "op": "compile",
            "qasm": qasm,
            "compiler": compiler,
            "seed": seed,
            "target": target,
        }
        if timeout is not None:
            message["timeout"] = timeout
        if priority is not None:
            message["priority"] = priority
        return self._resilient(message)
