"""Tests for the `repro serve` daemon (repro.service.server + pool).

Covers the tentpole service contracts end-to-end against live daemons:

* round trips are bit-identical to sequential in-process compilation and
  to :class:`~repro.service.batch.BatchCompiler` output;
* concurrent identical submissions coalesce into one compile (proven by
  the daemon's own counters);
* worker faults (raise / hang-past-timeout / worker exit), scheduled by a
  seeded :class:`~repro.resilience.FaultPlan` on the first dispatches,
  fail only their own job, the pool respawns the worker, and later jobs
  still produce bit-identical results; a compile that really fails is a
  ``compile-error`` and fails alone too;
* malformed frames, oversized circuits and overload get explicit,
  structured refusals instead of hangs or crashes;
* the raw-request pre-key answers exact repeats without parsing, never
  answers one option set with another's result, and stays correct while
  a tiny result LRU evicts (differential fuzz, concurrent clients);
* answers from the result LRU, which holds encoded bodies, are the bytes
  a fresh encode of the same fields gives, chaos-torn ones included.
"""

import contextlib
import functools
import socket
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.qasm import dumps, loads
from repro.service.protocol import FrameReader, encode_frame, ok_response
from repro.service.server import CompileServer, ServeClient, ServeConfig, ServeError
from repro.workloads.algorithms import hamiltonian_simulation, qft_circuit


def _sequential_qasm(circuit, compiler="reqisc-eff", seed=0):
    """The reference output: a plain in-process compile, dumped to QASM."""
    from repro.target.api import compile as target_compile

    return dumps(target_compile(circuit, spec=compiler, seed=seed).circuit)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "main.sock"
    config = ServeConfig(
        address=str(path),
        workers=2,
        job_timeout=30.0,
        cache_dir=None,
    )
    with CompileServer(config) as instance:
        yield instance


@pytest.fixture()
def client(server):
    with ServeClient(server.config.address) as instance:
        yield instance


@pytest.fixture()
def parse_calls(monkeypatch):
    """Count the daemon's QASM parses (it runs in this process)."""
    import repro.qasm

    calls = []
    real_loads = repro.qasm.loads

    def counting_loads(text, *args, **kwargs):
        calls.append(len(text))
        return real_loads(text, *args, **kwargs)

    monkeypatch.setattr(repro.qasm, "loads", counting_loads)
    return calls


# ---------------------------------------------------------------------------
# Round trip + determinism.
# ---------------------------------------------------------------------------


def test_ping(client):
    assert client.ping() is True


def test_compile_round_trip_matches_sequential(client):
    circuit = qft_circuit(3)
    response = client.compile(dumps(circuit))
    assert response["ok"] is True
    assert response["qasm"] == _sequential_qasm(circuit)
    assert loads(response["qasm"]).num_qubits == 3
    summary = response["summary"]
    assert summary["compiler"] == "reqisc-eff"
    assert summary["num_2q"] >= 1
    assert response["compile_seconds"] > 0.0


def test_repeat_submission_hits_result_cache(server, client, parse_calls):
    qasm = dumps(qft_circuit(3))
    first = client.compile(qasm)
    before = server.snapshot()["server"]
    parses = len(parse_calls)
    second = client.compile(qasm)
    after = server.snapshot()["server"]
    assert second["cached"] == "result"
    assert second["qasm"] == first["qasm"]
    assert second["key"] == first["key"]
    assert second["summary"] == first["summary"]
    # An exact repeat is answered by its raw pre-key, before parsing.
    assert len(parse_calls) == parses
    assert after["dedup_raw_key"] == before["dedup_raw_key"] + 1
    assert after["dedup_result_cache"] == before["dedup_result_cache"] + 1
    assert after["completed"] == before["completed"] + 1


def test_seed_and_compiler_participate_in_job_identity(client):
    qasm = dumps(qft_circuit(3))
    base = client.compile(qasm)
    other_seed = client.compile(qasm, seed=123)
    assert other_seed["key"] != base["key"]
    other_compiler = client.compile(qasm, compiler="reqisc-full")
    assert other_compiler["key"] != base["key"]
    assert other_compiler["summary"]["compiler"] == "reqisc-full"


def test_concurrent_identical_submissions_compile_once(server):
    # K clients race the same brand-new circuit: the in-flight dedup layer
    # must coalesce them into exactly one compile, all answers identical.
    circuit = qft_circuit(5)
    qasm = dumps(circuit)
    before = server.snapshot()["server"]
    results = [None] * 8
    failures = []

    def submit(slot):
        try:
            with ServeClient(server.config.address) as c:
                results[slot] = c.compile(qasm)
        except Exception as exc:  # noqa: BLE001 — surfaced via `failures`
            failures.append(repr(exc))

    threads = [threading.Thread(target=submit, args=(i,)) for i in range(len(results))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert failures == []
    outputs = {response["qasm"] for response in results}
    assert len(outputs) == 1
    assert outputs == {_sequential_qasm(circuit)}
    after = server.snapshot()["server"]
    assert after["compiles_started"] - before["compiles_started"] == 1
    dedup = (
        after["dedup_inflight"]
        - before["dedup_inflight"]
        + after["dedup_result_cache"]
        - before["dedup_result_cache"]
    )
    assert dedup == len(results) - 1


def test_daemon_matches_batch_compiler_and_sequential(client):
    from repro.service.batch import BatchCompiler

    circuit = qft_circuit(4)
    daemon_qasm = client.compile(dumps(circuit))["qasm"]
    sequential_qasm = _sequential_qasm(circuit)
    batch = BatchCompiler(compiler="reqisc-eff", workers=2, seed=0).compile_all([circuit])
    batch_qasm = dumps(batch.items[0].result.circuit)
    assert daemon_qasm == sequential_qasm == batch_qasm


def test_concurrent_suite_load_matches_sequential(server):
    # Four clients share one round-robin schedule of every tiny suite
    # program twice, so identical submissions meet in the dedup layers;
    # every single answer must be the sequential compile, byte for byte.
    from repro.workloads.suite import benchmark_suite

    cases = benchmark_suite(scale="tiny")
    expected = {case.name: _sequential_qasm(case.circuit) for case in cases}
    schedule = [(case.name, dumps(case.circuit)) for case in cases] * 2
    cursor = iter(schedule)
    lock = threading.Lock()
    answers, failures = [], []

    def run_client():
        try:
            with ServeClient(server.config.address) as client:
                while True:
                    with lock:
                        item = next(cursor, None)
                    if item is None:
                        return
                    name, qasm = item
                    answers.append((name, client.compile(qasm)["qasm"]))
        except Exception as exc:  # noqa: BLE001 — surfaced via `failures`
            failures.append(repr(exc))

    threads = [threading.Thread(target=run_client) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(answers) == len(schedule)
    for name, qasm in answers:
        assert qasm == expected[name], name


# ---------------------------------------------------------------------------
# Worker faults: each failure mode fails alone, the pool self-heals.
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _fault_server(tmp_path, window, counts):
    """A daemon whose seeded fault plan fires on its first dispatches."""
    from repro.resilience import FaultPlan

    config = ServeConfig(
        address=str(tmp_path / "faults.sock"),
        workers=2,
        cache_dir=None,
        fault_plan=FaultPlan(seed=0, window=window, counts=counts),
    )
    with CompileServer(config) as instance:
        with ServeClient(instance.config.address) as client:
            yield instance, client


def test_failing_compile_is_a_compile_error(client):
    # reqisc-noise needs a calibrated target: the worker's compile raises.
    circuit = qft_circuit(3)
    with pytest.raises(ServeError) as excinfo:
        client.compile(dumps(circuit), compiler="reqisc-noise", target="xy-line")
    assert excinfo.value.code == "compile-error"
    assert "calibrated target" in excinfo.value.message
    assert client.ping() is True  # the daemon is unharmed
    response = client.compile(dumps(circuit), seed=3)
    assert response["qasm"] == _sequential_qasm(circuit, seed=3)


def test_fault_raise_is_a_retriable_internal_error(tmp_path):
    with _fault_server(tmp_path, 1, {"worker.raise": 1}) as (server, client):
        with pytest.raises(ServeError) as excinfo:
            client.compile(dumps(qft_circuit(3)))
        assert excinfo.value.code == "internal"
        assert client.ping() is True
        assert server.fault_counts() == {"worker.raise": 1}


def test_fault_exit_is_contained_and_worker_respawns(tmp_path):
    with _fault_server(tmp_path, 1, {"worker.exit": 1}) as (server, client):
        with pytest.raises(ServeError) as excinfo:
            client.compile(dumps(qft_circuit(3)))
        assert excinfo.value.code == "worker-crash"
        pool = server.snapshot()["pool"]
        assert pool["crashes"] == 1
        assert pool["respawns"] >= 1
        assert pool["alive"] == server.config.workers


def test_fault_hang_hits_the_job_deadline(tmp_path):
    with _fault_server(tmp_path, 1, {"worker.hang": 1}) as (server, client):
        start = time.perf_counter()
        with pytest.raises(ServeError) as excinfo:
            client.compile(dumps(qft_circuit(3)), timeout=1.0)
        elapsed = time.perf_counter() - start
        assert excinfo.value.code == "timeout"
        assert elapsed < 10.0  # the deadline fired, not the grace fallback
        pool = server.snapshot()["pool"]
        assert pool["timeouts"] == 1
        assert pool["alive"] == server.config.workers


def test_jobs_after_faults_are_bit_identical(tmp_path):
    # Seed 0 schedules raise, exit, hang on dispatches 0, 1, 2.  Failures
    # are never cached, so the fourth submission is a real compile on the
    # healed pool, and its output must still match the reference.
    counts = {"worker.raise": 1, "worker.exit": 1, "worker.hang": 1}
    circuit = qft_circuit(3)
    with _fault_server(tmp_path, 3, counts) as (server, client):
        codes = []
        for _ in range(3):
            with pytest.raises(ServeError) as excinfo:
                client.compile(dumps(circuit), timeout=1.0, seed=7)
            codes.append(excinfo.value.code)
        assert codes == ["internal", "worker-crash", "timeout"]
        response = client.compile(dumps(circuit), seed=7)
        assert response["cached"] == "no"
        assert response["qasm"] == _sequential_qasm(circuit, seed=7)
        assert server.fault_counts() == {"worker." + mode: 1 for mode in ("raise", "exit", "hang")}


# ---------------------------------------------------------------------------
# Refusals: invalid input, size caps, malformed framing, overload.
# ---------------------------------------------------------------------------


def test_invalid_qasm_is_a_bad_request(client):
    with pytest.raises(ServeError) as excinfo:
        client.compile("this is not OpenQASM")
    assert excinfo.value.code == "bad-request"


def test_unknown_op_is_a_bad_request(client):
    response = client.request({"op": "transmogrify"})
    assert response["ok"] is False
    assert response["error"]["code"] == "bad-request"


def test_unknown_target_is_a_bad_request(client):
    with pytest.raises(ServeError) as excinfo:
        client.compile(dumps(qft_circuit(3)), target="warp-topology")
    assert excinfo.value.code == "bad-request"


def test_unknown_compiler_is_a_bad_request_and_the_daemon_keeps_serving(client):
    circuit = qft_circuit(3)
    with pytest.raises(ServeError) as excinfo:
        client.compile(dumps(circuit), compiler="nope")
    assert excinfo.value.code == "bad-request"
    assert "unknown compiler 'nope'" in excinfo.value.message
    assert client.compile(dumps(circuit))["qasm"] == _sequential_qasm(circuit)


@pytest.fixture(scope="module")
def limits_server(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve-limits") / "limits.sock"
    config = ServeConfig(
        address=str(path),
        workers=1,
        max_qubits=2,
        max_qasm_bytes=512,
        max_frame_bytes=2048,
        cache_dir=None,
    )
    with CompileServer(config) as instance:
        yield instance


def test_oversized_circuit_is_refused(limits_server):
    with ServeClient(limits_server.config.address) as client:
        with pytest.raises(ServeError) as excinfo:
            client.compile(dumps(qft_circuit(3)))  # 3 qubits > max_qubits=2
        assert excinfo.value.code == "too-large"
        assert "max_qubits" in excinfo.value.message


def test_oversized_qasm_is_refused_before_parsing(limits_server, monkeypatch):
    from repro.service import server as server_module

    hashed = []
    real_key = server_module._raw_request_key

    def counting_key(qasm_bytes, request):
        hashed.append(len(qasm_bytes))
        return real_key(qasm_bytes, request)

    monkeypatch.setattr(server_module, "_raw_request_key", counting_key)
    padded = "OPENQASM 2.0;\n" + "// padding\n" * 100  # > max_qasm_bytes
    with ServeClient(limits_server.config.address) as client:
        for _ in range(2):  # a refusal never becomes a pre-key alias
            with pytest.raises(ServeError) as excinfo:
                client.compile(padded)
            assert excinfo.value.code == "too-large"
            assert "max_qasm_bytes" in excinfo.value.message
    assert hashed == []  # refused before the raw pre-key is even computed
    assert limits_server.snapshot()["result_cache_aliases"] == 0


def test_intake_work_is_bounded_by_the_caps(client):
    # 23 bytes that would expand to 10^8 instructions: refused at the qreg.
    start = time.monotonic()
    with pytest.raises(ServeError) as excinfo:
        client.compile("qreg q[100000000]; h q;")
    assert time.monotonic() - start < 1.0
    assert excinfo.value.code == "too-large"
    assert "100000000 qubits" in excinfo.value.message
    assert "max_qubits=64" in excinfo.value.message
    # Gate macros doubling over 40 levels: refused before they expand.
    lines = ["OPENQASM 2.0;", "qreg q[1];", "gate g0 a { h a; }"]
    lines += [f"gate g{k} a {{ g{k - 1} a; g{k - 1} a; }}" for k in range(1, 41)]
    lines.append("g40 q[0];")
    start = time.monotonic()
    with pytest.raises(ServeError) as excinfo:
        client.compile("\n".join(lines))
    assert time.monotonic() - start < 1.0
    assert excinfo.value.code == "bad-request"
    assert "instructions" in excinfo.value.message
    # The daemon is still healthy and still bit-identical.
    assert client.ping()
    circuit = qft_circuit(4)
    assert client.compile(dumps(circuit))["qasm"] == _sequential_qasm(circuit)


def _raw_connect(server):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(10.0)
    sock.connect(server.config.address)
    return sock


def test_malformed_frame_answers_then_closes(server, client):
    before = server.snapshot()["server"]["malformed_frames"]
    raw = _raw_connect(server)
    try:
        raw.sendall(b"{broken json\n")
        frames = FrameReader().feed(raw.recv(65536))
        assert frames[0]["ok"] is False
        assert frames[0]["error"]["code"] == "bad-request"
        assert raw.recv(65536) == b""  # the server hung up on this stream
    finally:
        raw.close()
    assert server.snapshot()["server"]["malformed_frames"] == before + 1
    assert client.ping() is True  # other connections are unaffected


def test_oversized_frame_answers_then_closes(limits_server):
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.settimeout(10.0)
    raw.connect(limits_server.config.address)
    try:
        raw.sendall(b"x" * 4096)  # no newline, past max_frame_bytes=2048
        frames = FrameReader().feed(raw.recv(65536))
        assert frames[0]["error"]["code"] == "too-large"
        assert raw.recv(65536) == b""
    finally:
        raw.close()


def test_overload_is_an_explicit_refusal(tmp_path):
    # One worker, max_pending=1: while a hung job occupies the pool, a
    # second submission must be refused as `overloaded`, not queued forever.
    from repro.resilience import FaultPlan

    config = ServeConfig(
        address=str(tmp_path / "overload.sock"),
        workers=1,
        max_pending=1,
        job_timeout=30.0,
        cache_dir=None,
        fault_plan=FaultPlan(seed=0, window=1, counts={"worker.hang": 1}),
    )
    with CompileServer(config) as server:
        hang_error = []

        def hang():
            try:
                with ServeClient(server.config.address) as c:
                    c.compile(dumps(qft_circuit(3)), timeout=5.0)
            except ServeError as exc:
                hang_error.append(exc.code)

        blocker = threading.Thread(target=hang)
        blocker.start()
        try:
            deadline = time.time() + 10.0
            while server._pool.pending_jobs() < 1:
                assert time.time() < deadline, "hung job never reached the pool"
                time.sleep(0.01)
            with ServeClient(server.config.address) as probe:
                with pytest.raises(ServeError) as excinfo:
                    probe.compile(dumps(qft_circuit(4)))
                assert excinfo.value.code == "overloaded"
        finally:
            blocker.join()
        assert hang_error == ["timeout"]
        assert server.snapshot()["server"]["rejected_overload"] == 1


# ---------------------------------------------------------------------------
# Ops + lifecycle.
# ---------------------------------------------------------------------------


def test_stats_snapshot_shape(client, server):
    stats = client.stats()
    assert set(stats) >= {"server", "pool", "cache", "config"}
    assert stats["pool"]["workers"] == server.config.workers
    assert stats["config"]["max_pending"] == server.config.max_pending
    assert stats["server"]["received"] >= 1
    assert {"dedup_result_cache", "dedup_raw_key"} <= set(stats["server"])
    assert stats["server"]["dedup_raw_key"] <= stats["server"]["dedup_result_cache"]
    assert 0 <= stats["result_cache_aliases"] <= server.config.result_cache_size


def test_worker_cache_counters_aggregate(server, client):
    # The same circuit under a fresh seed compiles once per distinct key;
    # worker-side synthesis-cache deltas must flow into the daemon totals.
    client.compile(dumps(qft_circuit(6)), seed=11)
    totals = server.snapshot()["cache"]
    assert totals.get("puts", 0) >= 1


def test_shutdown_op_acknowledges_then_stops(tmp_path):
    config = ServeConfig(
        address=str(tmp_path / "stop.sock"), workers=1, cache_dir=None
    )
    server = CompileServer(config).start()
    with ServeClient(server.config.address) as client:
        assert client.shutdown_server() is True  # the ack frame arrives
    assert server.wait(timeout=10.0) is True
    with pytest.raises((ConnectionError, OSError)):
        ServeClient(server.config.address).ping()


def test_shutdown_op_can_be_disabled(tmp_path):
    config = ServeConfig(
        address=str(tmp_path / "noshut.sock"),
        workers=1,
        cache_dir=None,
        allow_shutdown_op=False,
    )
    with CompileServer(config) as server:
        with ServeClient(server.config.address) as client:
            with pytest.raises(ServeError) as excinfo:
                client.shutdown_server()
            assert excinfo.value.code == "bad-request"
            assert client.ping() is True


def test_server_rejects_config_plus_overrides():
    # A ServeConfig is the one way to configure a daemon.
    with pytest.raises(TypeError):
        CompileServer(workers=4)
    with pytest.raises(TypeError):
        CompileServer(ServeConfig(), workers=4)


@pytest.mark.parametrize(
    "setting",
    [
        {"workers": 0},
        {"max_pending": 0},
        {"job_timeout": 0},
        {"job_timeout": -1.0},
        {"max_qubits": 0},
        {"cache_capacity": 0},
        {"max_qasm_bytes": 0},
        {"max_frame_bytes": 0},
    ],
    ids=lambda setting: "{}={}".format(*next(iter(setting.items()))),
)
def test_config_refuses_settings_that_can_never_answer(setting):
    name = next(iter(setting))
    with pytest.raises(ValueError, match=name):
        ServeConfig(**setting)


def test_config_accepts_disabled_bounds():
    config = ServeConfig(max_qubits=None, cache_capacity=None, workers=1, max_pending=1)
    assert config.max_qubits is None and config.cache_capacity is None


def test_removed_fault_hook_surfaces_fail_loudly(client):
    from repro.service import protocol

    assert not hasattr(protocol, "FAULT_MODES")
    with pytest.raises(TypeError):
        protocol.validate_request({"op": "ping"}, allow_fault=True)
    with pytest.raises(TypeError):
        ServeConfig(enable_fault_injection=True)
    with pytest.raises(TypeError):
        client.compile(dumps(qft_circuit(3)), fault="raise")
    # A raw frame that still carries the field is a bad request naming it.
    response = client.request({"op": "compile", "qasm": dumps(qft_circuit(3)), "fault": "raise"})
    assert response["ok"] is False
    assert response["error"]["code"] == "bad-request"
    assert "fault" in response["error"]["message"]


def test_shared_disk_cache_across_daemon_restarts(tmp_path):
    # Segment-backed cache directory: a second daemon instance starts with
    # the first one's synthesis results already on disk (hits, not puts).
    cache_dir = str(tmp_path / "cache")
    qasm = dumps(qft_circuit(5))
    config = ServeConfig(
        address=str(tmp_path / "first.sock"), workers=1, cache_dir=cache_dir
    )
    with CompileServer(config) as first:
        with ServeClient(first.config.address) as client:
            first_qasm = client.compile(qasm)["qasm"]
        first_totals = first.snapshot()["cache"]
    assert first_totals.get("puts", 0) >= 1

    config = ServeConfig(
        address=str(tmp_path / "second.sock"), workers=1, cache_dir=cache_dir
    )
    with CompileServer(config) as second:
        with ServeClient(second.config.address) as client:
            second_qasm = client.compile(qasm)["qasm"]
        second_totals = second.snapshot()["cache"]
    assert second_qasm == first_qasm  # cache reuse never changes output
    assert second_totals.get("disk_hits", 0) >= 1


# ---------------------------------------------------------------------------
# Raw-request pre-key: exact repeats answer from the result LRU unparsed.
# ---------------------------------------------------------------------------


def _result_fields(response):
    return {name: response[name] for name in ("key", "qasm", "summary", "compile_seconds", "worker")}


def _other_text(qasm, note):
    """The same program as different text: a comment line after the header."""
    return qasm.replace("\n", f"\n// {note}\n", 1)


def test_other_text_hits_by_content_then_by_its_own_alias(client, parse_calls):
    qasm = dumps(qft_circuit(4))
    first = client.compile(qasm, seed=4)
    variant = _other_text(qasm, "same circuit, other text")
    parses = len(parse_calls)
    by_content = client.compile(variant, seed=4)
    assert len(parse_calls) == parses + 1  # new bytes: parsed, content key hits
    assert by_content["cached"] == "result"
    assert _result_fields(by_content) == _result_fields(first)
    by_alias = client.compile(variant, seed=4)
    assert len(parse_calls) == parses + 1  # its own alias now answers unparsed
    assert by_alias["cached"] == "result"
    assert _result_fields(by_alias) == _result_fields(first)


def test_every_option_separates_pre_keys(client, parse_calls):
    circuit = qft_circuit(3)
    qasm = _other_text(dumps(circuit), "option separation")
    base = client.compile(qasm)
    client.compile(qasm)  # the base option set now has an alias
    option_sets = ({"seed": 9}, {"compiler": "reqisc-full"}, {"target": "xy-line"})
    keys = {base["key"]}
    responses = {}
    for options in option_sets:
        parses = len(parse_calls)
        response = client.compile(qasm, **options)
        assert len(parse_calls) == parses + 1, options  # no alias crosses option sets
        assert response["key"] not in keys, options
        keys.add(response["key"])
        repeat = client.compile(qasm, **options)
        assert len(parse_calls) == parses + 1, options
        assert _result_fields(repeat) == _result_fields(response), options
        responses.update(dict.fromkeys(options, response))
    assert responses["seed"]["qasm"] == _sequential_qasm(circuit, seed=9)
    assert responses["compiler"]["qasm"] == _sequential_qasm(circuit, compiler="reqisc-full")


def test_failed_requests_never_create_an_alias(server, client, parse_calls):
    aliases = server.snapshot()["result_cache_aliases"]
    for _ in range(2):
        with pytest.raises(ServeError) as excinfo:
            client.compile("this is not OpenQASM either")
        assert excinfo.value.code == "bad-request"
    assert len(parse_calls) == 2  # both submissions were parsed
    for _ in range(2):
        with pytest.raises(ServeError) as excinfo:
            client.compile(dumps(qft_circuit(3)), compiler="reqisc-noise", target="xy-line")
        assert excinfo.value.code == "compile-error"
    assert server.snapshot()["result_cache_aliases"] == aliases


# ---------------------------------------------------------------------------
# Encoded answers: the result LRU holds response bodies, hits splice the id.
# ---------------------------------------------------------------------------


def _raw_exchange(sock, message):
    """Send one request frame; the raw bytes received up to a newline or EOF."""
    sock.sendall(encode_frame(message))
    received = b""
    while not received.endswith(b"\n"):
        chunk = sock.recv(65536)
        if not chunk:
            break
        received += chunk
    return received


def _hit_frame(request_id, cold_frame):
    """What a fresh encode of a result-LRU answer to ``cold_frame`` gives."""
    (cold,) = FrameReader().feed(cold_frame)
    return encode_frame(ok_response(request_id, cached="result", **_result_fields(cold)))


def test_cold_content_and_raw_key_answers_carry_one_result(server):
    qasm = dumps(hamiltonian_simulation(4))
    request = {"op": "compile", "qasm": qasm, "seed": 43}
    raw = _raw_connect(server)
    try:
        cold = _raw_exchange(raw, dict(request, id=1))
        by_content = _raw_exchange(raw, dict(request, id={"n": [2, 2.5]}, qasm=_other_text(qasm, "hit")))
        by_raw_key = _raw_exchange(raw, dict(request, id="three"))
    finally:
        raw.close()
    answers = [FrameReader().feed(frame)[0] for frame in (cold, by_content, by_raw_key)]
    assert [answer["cached"] for answer in answers] == ["no", "result", "result"]
    assert answers[0]["qasm"] == _sequential_qasm(hamiltonian_simulation(4), seed=43)
    for answer in answers[1:]:
        assert _result_fields(answer) == _result_fields(answers[0])
    # Byte for byte what encoding the response dict would have sent.
    assert cold == encode_frame(ok_response(1, cached="no", **_result_fields(answers[0])))
    assert by_content == _hit_frame({"n": [2, 2.5]}, cold)
    assert by_raw_key == _hit_frame("three", cold)


def test_chaos_partial_fault_tears_a_hit_at_half_its_length(tmp_path):
    from repro.resilience import FaultPlan

    # The plan whose one torn frame is the second compile answer: a hit.
    plan = next(
        plan
        for plan in (FaultPlan(seed=seed, window=2, counts={"socket.partial": 1}) for seed in range(64))
        if plan.schedule("socket") == {1: "partial"}
    )
    config = ServeConfig(address=str(tmp_path / "torn.sock"), workers=1, cache_dir=None, fault_plan=plan)
    request = {"op": "compile", "qasm": dumps(qft_circuit(4)), "seed": 5}
    with CompileServer(config) as instance:
        raw = _raw_connect(instance)
        try:
            cold = _raw_exchange(raw, dict(request, id=1))
            torn = _raw_exchange(raw, dict(request, id=2))
            assert raw.recv(65536) == b""  # the server hung up after the torn half
        finally:
            raw.close()
        assert instance.snapshot()["server"]["dedup_raw_key"] == 1
    full = _hit_frame(2, cold)
    assert torn == full[: len(full) // 2]


@pytest.fixture(scope="module")
def small_lru_server(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve-lru") / "lru.sock"
    config = ServeConfig(address=str(path), workers=1, cache_dir=None, result_cache_size=2)
    with CompileServer(config) as instance:
        yield instance


def test_evicted_result_falls_through_to_a_fresh_compile(small_lru_server, parse_calls):
    server = small_lru_server
    circuit = qft_circuit(5)
    qasm = _other_text(dumps(circuit), "eviction")
    with ServeClient(server.config.address) as client:
        first = client.compile(qasm)
        for n in (3, 4):  # two newer results evict the first one
            client.compile(_other_text(dumps(qft_circuit(n)), "eviction"))
        snapshot = server.snapshot()
        assert snapshot["result_cache_entries"] == 2
        assert snapshot["result_cache_aliases"] <= 2
        parses = len(parse_calls)
        again = client.compile(qasm)
        assert len(parse_calls) == parses + 1
        assert again["cached"] == "no"
        assert again["qasm"] == first["qasm"] == _sequential_qasm(circuit)

        # An alias whose content entry is gone is dropped, not followed.
        assert client.compile(qasm)["cached"] == "result"
        with server._lock:
            del server._result_cache[again["key"]]
        parses = len(parse_calls)
        compiles = server.snapshot()["server"]["compiles_started"]
        third = client.compile(qasm)
        assert len(parse_calls) == parses + 1
        assert third["cached"] == "no"
        assert third["qasm"] == first["qasm"]
        snapshot = server.snapshot()
        assert snapshot["server"]["compiles_started"] == compiles + 1
        assert snapshot["result_cache_aliases"] <= 2


# Programs whose reqisc-eff and reqisc-full outputs differ, so an answer
# crossing compilers shows in the bytes; the seed shows in the key.
_FUZZ_PROGRAMS = (qft_circuit(4), hamiltonian_simulation(4))


@functools.lru_cache(maxsize=None)
def _fuzz_reference(program, compiler, seed):
    from repro.service.cache import circuit_fingerprint

    circuit = _FUZZ_PROGRAMS[program]
    key = circuit_fingerprint(loads(dumps(circuit)), "serve", compiler, "None", str(seed))
    return _sequential_qasm(circuit, compiler=compiler, seed=seed), key


@settings(max_examples=10, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 1),  # program
            st.integers(0, 1),  # textual variant
            st.sampled_from((0, 7)),  # seed
            st.sampled_from(("reqisc-eff", "reqisc-full")),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_prekey_differential_fuzz_under_eviction(small_lru_server, submissions):
    # A 2-entry LRU against 16 request shapes: aliases and results are
    # evicted constantly, and every answer must still be the reference.
    with ServeClient(small_lru_server.config.address) as client:
        for program, variant, seed, compiler in submissions:
            qasm = dumps(_FUZZ_PROGRAMS[program])
            if variant:
                qasm = _other_text(qasm, "variant")
            response = client.compile(qasm, compiler=compiler, seed=seed)
            assert (response["qasm"], response["key"]) == _fuzz_reference(program, compiler, seed)
    assert small_lru_server.snapshot()["result_cache_aliases"] <= 2


def test_prekey_under_concurrent_clients(small_lru_server):
    # More client threads than cores, with a short switch interval, race the
    # alias table and the 2-entry LRU; a lost update shows as a wrong answer,
    # a table over its bound or counters that stop adding up.
    shapes = [
        (program, variant, seed, compiler)
        for program in (0, 1)
        for variant in (0, 1)
        for seed in (0, 7)
        for compiler in ("reqisc-eff", "reqisc-full")
    ]
    responses, failures = [], []

    def submit(offset):
        try:
            with ServeClient(small_lru_server.config.address) as client:
                for step in range(12):
                    shape = shapes[(offset * 5 + step * 3) % len(shapes)]
                    program, variant, seed, compiler = shape
                    qasm = dumps(_FUZZ_PROGRAMS[program])
                    if variant:
                        qasm = _other_text(qasm, "variant")
                    responses.append((shape, client.compile(qasm, compiler=compiler, seed=seed)))
        except Exception as exc:  # noqa: BLE001 — surfaced via `failures`
            failures.append(repr(exc))

    before = small_lru_server.snapshot()["server"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=submit, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(responses) == 8 * 12
    for (program, _, seed, compiler), response in responses:
        assert (response["qasm"], response["key"]) == _fuzz_reference(program, compiler, seed)
    after = small_lru_server.snapshot()
    delta = {name: after["server"][name] - before[name] for name in before}
    from_cache = sum(response["cached"] == "result" for _, response in responses)
    assert delta["received"] == delta["completed"] == len(responses)
    assert delta["dedup_result_cache"] == from_cache
    assert delta["compiles_started"] + delta["dedup_inflight"] == len(responses) - from_cache
    assert delta["dedup_raw_key"] <= delta["dedup_result_cache"]
    assert after["result_cache_aliases"] <= 2
