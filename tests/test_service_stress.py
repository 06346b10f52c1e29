"""Multi-process stress tests (nightly; `pytest -m stress` to run).

Satellite suites for the compile-service PR:

* **Cache stress** — N writer processes and M reader processes hammer one
  cache directory concurrently; one extra writer is SIGKILLed mid-write.
  The invariant under test is the segment store's crash-safety contract:
  a reader never sees a torn record (CRC + length validation make a
  partial tail read as a miss), every surviving writer's entries stay
  readable, and offline compaction preserves all of them.
* **Compact crash** — a child process SIGKILLs *itself* at each stage of
  ``compact()``'s rewrite (before the rename, after it, before the old
  segments are unlinked); a cold reopen plus ``scrub()`` must still serve
  every live entry with its newest value.  The fast deterministic variant
  (raising a test hook instead of forking) runs in tier-1 —
  ``tests/test_resilience.py``.
* **Serve soak** — several client threads mix probe and real compiles
  against one daemon whose seeded worker-layer :class:`FaultPlan` injects
  raise/hang/exit faults; every answer must still come back bit-identical
  to the sequential reference while the pool keeps healing underneath.
* **Chaos soak** — the acceptance-scale seeded :class:`FaultPlan` (50
  faults across the worker / clock / socket / cache layers) against a
  live daemon with resilient clients, mirroring the nightly
  ``repro chaos`` CLI gate in-process.

These fork dozens of processes and kill some of them, which is too heavy
for the tier-1 loop — `setup.cfg` deselects the `stress` marker by
default and the nightly workflow opts back in.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.service.cache import SynthesisCache

pytestmark = pytest.mark.stress

_CTX = multiprocessing.get_context("fork")


def _writer_proc(directory, writer_id, count, start_gate):
    cache = SynthesisCache(capacity=32, directory=directory)
    start_gate.wait()
    for i in range(count):
        cache.put(f"w{writer_id}-{i}", {"writer": writer_id, "value": i, "pad": b"x" * 512})
    cache.flush()
    cache.close()


def _victim_proc(directory, start_gate):
    # Writes as fast as possible until SIGKILLed — the kill lands mid-append
    # with high probability, leaving a torn record at its segment tail.
    cache = SynthesisCache(capacity=32, directory=directory)
    start_gate.wait()
    i = 0
    while True:
        cache.put(f"victim-{i}", {"victim": True, "pad": b"y" * 2048})
        i += 1


def _reader_proc(directory, writer_ids, count, start_gate, stop_gate):
    # Loop over every expected key while writers are racing; any exception
    # (torn pickle, bad CRC handling, ...) crashes this process and fails
    # the test via its exit code.  A key is either absent or fully correct.
    cache = SynthesisCache(capacity=32, directory=directory)
    start_gate.wait()
    while not stop_gate.is_set():
        for writer_id in writer_ids:
            for i in range(0, count, 7):
                value = cache.get(f"w{writer_id}-{i}")
                if value is not None:
                    assert value["writer"] == writer_id
                    assert value["value"] == i
        time.sleep(0.001)


def test_cache_survives_concurrent_writers_readers_and_a_kill(tmp_path):
    directory = str(tmp_path / "store")
    writers, entries = 3, 200
    start_gate = _CTX.Event()
    stop_gate = _CTX.Event()

    writer_procs = [
        _CTX.Process(target=_writer_proc, args=(directory, w, entries, start_gate))
        for w in range(writers)
    ]
    victim = _CTX.Process(target=_victim_proc, args=(directory, start_gate))
    readers = [
        _CTX.Process(
            target=_reader_proc,
            args=(directory, list(range(writers)), entries, start_gate, stop_gate),
        )
        for _ in range(2)
    ]
    for proc in writer_procs + [victim] + readers:
        proc.start()
    start_gate.set()

    for proc in writer_procs:
        proc.join(timeout=120.0)
        assert proc.exitcode == 0
    # Kill the victim while it is still streaming appends.
    assert victim.is_alive()
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=30.0)
    stop_gate.set()
    for proc in readers:
        proc.join(timeout=30.0)
        assert proc.exitcode == 0, "a reader crashed on concurrently-written data"

    # A fresh instance (as a restarted daemon would be) sees every entry of
    # every completed writer, despite the SIGKILLed writer's torn tail.
    fresh = SynthesisCache(directory=directory)
    for writer_id in range(writers):
        for i in range(entries):
            value = fresh.get(f"w{writer_id}-{i}")
            assert value is not None, f"lost w{writer_id}-{i}"
            assert value["value"] == i

    # Compaction folds all segments (including the victim's valid prefix)
    # into one and loses nothing.
    outcome = fresh.compact()
    assert outcome["entries"] >= writers * entries
    compacted = SynthesisCache(directory=directory)
    for writer_id in range(writers):
        for i in range(entries):
            assert compacted.get(f"w{writer_id}-{i}") == {
                "writer": writer_id,
                "value": i,
                "pad": b"x" * 512,
            }


def test_killed_mid_write_cache_stays_readable_repeatedly(tmp_path):
    # Tighter loop on the torn-tail invariant: kill a streaming writer at
    # random points several times; the directory must stay fully readable
    # (whatever made it to disk intact) after every kill.
    directory = str(tmp_path / "store")
    baseline = SynthesisCache(directory=directory)
    for i in range(20):
        baseline.put(f"stable-{i}", i)
    baseline.flush()
    baseline.close()

    for round_index in range(4):
        gate = _CTX.Event()
        victim = _CTX.Process(target=_victim_proc, args=(directory, gate))
        victim.start()
        gate.set()
        time.sleep(0.05 * (round_index + 1))
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=30.0)

        reader = SynthesisCache(directory=directory)
        for i in range(20):
            assert reader.get(f"stable-{i}") == i
        reader.close()


def _compacting_victim_proc(directory, stage):
    # SIGKILL *ourselves* at the requested stage of compact()'s rewrite —
    # a real crash, not an exception the caller could clean up after.
    import repro.service.cache as cache_module

    def hook(point):
        if point == stage:
            os.kill(os.getpid(), signal.SIGKILL)

    cache_module._compact_test_hook = hook
    cache = SynthesisCache(capacity=8, directory=directory)
    cache.compact()


@pytest.mark.parametrize("stage", ["pre-replace", "post-replace", "pre-unlink"])
def test_sigkill_during_compact_never_loses_entries(tmp_path, stage):
    directory = str(tmp_path / "store")
    first = SynthesisCache(capacity=8, directory=directory)
    for i in range(40):
        first.put(f"key{i}", {"index": i, "pad": b"x" * 256})
    first.flush()
    first.close()
    # A second writer supersedes half the keys in its own segment, so the
    # crashed compaction leaves genuine cross-segment duplicates behind.
    second = SynthesisCache(capacity=8, directory=directory)
    for i in range(20):
        second.put(f"key{i}", {"index": i, "rev": 2})
    second.flush()
    second.close()

    victim = _CTX.Process(target=_compacting_victim_proc, args=(directory, stage))
    victim.start()
    victim.join(timeout=60.0)
    assert victim.exitcode == -signal.SIGKILL

    # A cold reopen + scrub (as a restarted daemon would run) must serve
    # every key, and the superseded keys must resolve to their newest value.
    reopened = SynthesisCache(capacity=8, directory=directory)
    scrub_report = reopened.scrub()
    assert scrub_report["entries"] >= 40
    for i in range(40):
        value = reopened.get(f"key{i}")
        assert value is not None, f"key{i} lost after SIGKILL at {stage}"
        if i < 20:
            assert value == {"index": i, "rev": 2}
    reopened.close()


def test_serve_soak_mixed_faults_and_compiles(tmp_path):
    import collections
    import threading

    from repro.qasm import dumps
    from repro.resilience import FaultPlan
    from repro.service.server import CompileServer, ServeClient, ServeConfig, ServeError
    from repro.target.api import compile as target_compile
    from repro.workloads.algorithms import qft_circuit

    circuits = [qft_circuit(n) for n in (3, 4, 5)]
    threads, rounds = 4, 6
    # Each round a thread sends a probe under its own seed (a fresh job
    # every time), then a real compile at seed 0 that it resubmits until it
    # is answered; the real compiles share three jobs.
    probes = {
        (thread_index, round_index): (
            (thread_index + round_index) % len(circuits),
            1 + thread_index * rounds + round_index,
        )
        for thread_index in range(threads)
        for round_index in range(rounds)
    }
    expected = {
        (index, seed): dumps(target_compile(circuits[index], spec="reqisc-eff", seed=seed).circuit)
        for index, seed in [*probes.values(), *((index, 0) for index in range(len(circuits)))]
    }
    # The soak makes at least one dispatch per probe and per real job, so
    # every fault scheduled in that window fires, wherever it lands.
    window = len(probes) + len(circuits)
    plan = FaultPlan(seed=0, window=window, counts={"worker.raise": 4, "worker.exit": 4, "worker.hang": 4})
    fault_codes = {"raise": "internal", "exit": "worker-crash", "hang": "timeout"}

    config = ServeConfig(
        address=str(tmp_path / "soak.sock"),
        workers=2,
        job_timeout=30.0,
        cache_dir=None,
        fault_plan=plan,
    )
    failures, error_codes = [], []
    with CompileServer(config) as server:
        def submit(client, index, seed):
            """One compile: True when answered, False on an injected fault."""
            try:
                response = client.compile(dumps(circuits[index]), timeout=1.0, seed=seed)
            except ServeError as exc:
                error_codes.append(exc.code)
                if exc.code not in fault_codes.values():
                    failures.append(f"seed {seed}: {exc.code}")
                return False
            if response["qasm"] != expected[index, seed]:
                failures.append(f"divergent output for {circuits[index].name} seed {seed}")
            return True

        def soak(thread_index):
            try:
                with ServeClient(server.config.address) as client:
                    for round_index in range(rounds):
                        submit(client, *probes[thread_index, round_index])
                        index = (thread_index + round_index) % len(circuits)
                        for _ in range(plan.total_faults() + 1):
                            if submit(client, index, 0):
                                break
                        else:
                            failures.append(f"real compile of {circuits[index].name} never answered")
            except Exception as exc:  # noqa: BLE001 — surfaced via `failures`
                failures.append(f"thread {thread_index}: {type(exc).__name__}: {exc}")

        clients = [threading.Thread(target=soak, args=(i,)) for i in range(threads)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
        pool_stats = server.snapshot()["pool"]
        fired = server.fault_counts()

    assert failures == []
    assert fired == plan.counts  # every scheduled fault fired
    answered = collections.Counter(error_codes)
    for mode, code in fault_codes.items():
        assert answered[code] >= plan.counts[f"worker.{mode}"], (mode, answered)
    assert pool_stats["alive"] == config.workers  # the pool healed every time
    assert pool_stats["crashes"] == plan.counts["worker.exit"]
    assert pool_stats["timeouts"] == plan.counts["worker.hang"]


def test_chaos_soak_full_fault_plan():
    # The acceptance-scale soak the nightly `repro chaos` job runs, driven
    # in-process: 50 seeded faults over every layer, resilient clients, and
    # a cold post-mortem scrub.  Everything in `ok` is a hard invariant —
    # bit identity, zero unrecovered jobs, zero hung clients.
    from repro.resilience import FaultPlan, run_chaos

    plan = FaultPlan.balanced(seed=42, faults=50)
    report = run_chaos(plan, scale="tiny", requests_per_circuit=3)
    assert report["ok"], report
    assert report["completed"] == report["jobs"]
    assert report["faults_scheduled"] == 50
    assert report["disk_after_scrub"]["corrupt_records"] == 0
