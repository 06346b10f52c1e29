"""Tests for the end-to-end resilience layer (repro.resilience + friends).

Covers the tentpole contracts:

* :class:`FaultPlan` — deterministic seeded schedules, spec round trips,
  thread-safe injectors, picklability (plans cross the fork into workers);
* :class:`RetryPolicy` / :class:`RetryStats` — bounded jittered backoff,
  retry-after hints that only ever *raise* the delay, counter plumbing;
* live-daemon resilience — a retrying client recovers injected transient
  worker faults, connection resets and delayed responses (hedging), the
  ``health`` op and watchdog respawn dead idle workers, degraded mode
  sheds low-priority queued work with a ``retry_after`` hint;
* cache self-healing — ``scrub()`` quarantines corrupt segments without
  losing any valid record, counts torn tails and corruption in
  ``disk_stats()``, and a crash at any stage of ``compact()`` never loses
  an entry (fast deterministic variant; the SIGKILL stress variant lives
  in ``test_service_stress.py``);
* a miniature end-to-end chaos soak (the acceptance-scale 50-fault soak
  runs nightly via ``repro chaos`` and ``-m stress``).
"""

import os
import pickle
import random
import threading
import time

import pytest

from repro.resilience import (
    DEFAULT_RETRY_CODES,
    FAULT_LAYERS,
    FaultPlan,
    RetryPolicy,
    RetryStats,
    run_chaos,
)
from repro.qasm import dumps
from repro.service.cache import SynthesisCache, scrub_age_seconds
from repro.service.server import CompileServer, ServeClient, ServeConfig, ServeError
from repro.workloads.algorithms import qft_circuit


# ---------------------------------------------------------------------------
# FaultPlan: deterministic schedules.
# ---------------------------------------------------------------------------


def test_balanced_plan_spreads_faults_round_robin():
    plan = FaultPlan.balanced(seed=7, faults=18)
    assert plan.total_faults() == 18
    # 9 modes across 4 layers -> exactly two of each.
    assert set(plan.counts.values()) == {2}
    assert len(plan.counts) == sum(len(modes) for modes in FAULT_LAYERS.values())


def test_schedule_is_deterministic_and_layer_scoped():
    plan_a = FaultPlan.balanced(seed=42, faults=20)
    plan_b = FaultPlan.balanced(seed=42, faults=20)
    for layer in FAULT_LAYERS:
        assert plan_a.schedule(layer) == plan_b.schedule(layer)
    # Adding faults to one layer never perturbs another layer's schedule.
    augmented = FaultPlan(
        seed=42, window=plan_a.window, counts={**plan_a.counts, "cache.bitflip": 40}
    )
    assert augmented.schedule("worker") == plan_a.schedule("worker")
    assert augmented.schedule("socket") == plan_a.schedule("socket")


def test_different_seeds_give_different_schedules():
    schedules = {
        seed: FaultPlan.balanced(seed=seed, faults=30).schedule("worker") for seed in (0, 1)
    }
    assert schedules[0] != schedules[1]


def test_schedule_respects_counts_and_window():
    plan = FaultPlan(seed=3, window=10, counts={"socket.reset": 4, "socket.delay": 2})
    schedule = plan.schedule("socket")
    assert len(schedule) == 6
    assert all(0 <= index < 10 for index in schedule)
    assert sorted(schedule.values()).count("reset") == 4
    assert sorted(schedule.values()).count("delay") == 2


def test_plan_validates_names_counts_and_window():
    with pytest.raises(ValueError, match="unknown fault"):
        FaultPlan(counts={"worker.explode": 1})
    with pytest.raises(ValueError, match="unknown fault"):
        FaultPlan(counts={"disk.bitflip": 1})
    with pytest.raises(ValueError, match="non-negative int"):
        FaultPlan(counts={"worker.raise": -1})
    with pytest.raises(ValueError, match="exceed window"):
        FaultPlan(window=2, counts={"worker.raise": 2, "worker.exit": 1})


def test_spec_round_trip_and_json():
    plan = FaultPlan(seed=9, window=50, counts={"cache.truncate": 3, "clock.skew": 1})
    assert FaultPlan.from_spec(plan.to_dict()) == plan
    assert FaultPlan.from_spec('{"seed": 9, "window": 50, "counts": {"clock.skew": 2}}') == FaultPlan(
        seed=9, window=50, counts={"clock.skew": 2}
    )
    with pytest.raises(ValueError, match="not valid JSON"):
        FaultPlan.from_spec("{nope")
    with pytest.raises(ValueError, match="either 'faults'"):
        FaultPlan.from_spec({"faults": 3, "counts": {"clock.skew": 1}})
    balanced = FaultPlan.from_spec({"seed": 4, "faults": 9})
    assert balanced.total_faults() == 9


def test_plan_pickles_and_injects_identically():
    plan = FaultPlan.balanced(seed=11, faults=16)
    clone = pickle.loads(pickle.dumps(plan))
    assert clone == plan
    assert clone.schedule("cache") == plan.schedule("cache")


def test_injector_fires_each_scheduled_fault_exactly_once():
    plan = FaultPlan(seed=5, window=20, counts={"worker.raise": 3, "worker.hang": 2})
    injector = plan.injector("worker")
    drawn = [injector.draw() for _ in range(plan.window)]
    assert drawn.count("raise") == 3
    assert drawn.count("hang") == 2
    assert injector.operations == plan.window
    assert injector.fired_counts() == {"worker.raise": 3, "worker.hang": 2}
    # Past the window, nothing more fires.
    assert all(injector.draw() is None for _ in range(10))


def test_injector_is_thread_safe():
    plan = FaultPlan(seed=6, window=400, counts={"socket.reset": 40})
    injector = plan.injector("socket")
    results = []
    lock = threading.Lock()

    def spin():
        local = [injector.draw() for _ in range(100)]
        with lock:
            results.extend(local)

    threads = [threading.Thread(target=spin) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert sum(1 for mode in results if mode == "reset") == 40


# ---------------------------------------------------------------------------
# RetryPolicy / RetryStats.
# ---------------------------------------------------------------------------


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=-1.0)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5)
    with pytest.raises(ValueError):
        RetryPolicy(hedge_after=0.0)


def test_retriable_codes():
    policy = RetryPolicy()
    for code in DEFAULT_RETRY_CODES:
        assert policy.retriable(code)
    for code in ("bad-request", "too-large", "compile-error", "shutting-down"):
        assert not policy.retriable(code)


def test_backoff_is_bounded_exponential_with_jitter():
    policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.5, seed=1)
    for attempt in range(8):
        delay = policy.backoff(attempt)
        ceiling = min(0.1 * 2.0**attempt, 0.5)
        assert 0.5 * ceiling <= delay <= ceiling
        # Deterministic for a given (seed, attempt).
        assert policy.backoff(attempt) == delay


def test_backoff_without_jitter_is_exact():
    policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=10.0, jitter=0.0)
    assert [policy.backoff(k) for k in range(4)] == [0.1, 0.2, 0.4, 0.8]


def test_delay_honors_retry_after_only_upward():
    policy = RetryPolicy(base_delay=0.05, max_delay=2.0, jitter=0.0)
    seconds, honored = policy.delay(0, retry_after=5.0)
    assert (seconds, honored) == (5.0, True)
    # A hint below the local backoff must not shorten it (no busy loops).
    seconds, honored = policy.delay(3, retry_after=0.0)
    assert seconds == policy.backoff(3) and not honored
    # Absurd hints are clamped.
    seconds, honored = policy.delay(0, retry_after=9999.0)
    assert seconds == 30.0 and honored
    # Garbage hints are ignored.
    assert policy.delay(0, retry_after="soon") == (policy.backoff(0), False)


def test_retry_stats_bump_merge_and_snapshot():
    stats = RetryStats()
    stats.bump("attempts")
    stats.bump("retries", 3)
    other = RetryStats()
    other.bump("attempts", 2)
    other.bump("hedge_wins")
    stats.merge(other)
    snapshot = stats.as_dict()
    assert snapshot["attempts"] == 3
    assert snapshot["retries"] == 3
    assert snapshot["hedge_wins"] == 1
    assert snapshot["giveups"] == 0


# ---------------------------------------------------------------------------
# Live daemon: client retries, hedging, health, watchdog, shedding.
# ---------------------------------------------------------------------------


def _serve_config(tmp_path, name, **overrides):
    defaults = dict(
        address=str(tmp_path / name),
        workers=1,
        job_timeout=30.0,
        cache_dir=None,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


def test_client_recovers_injected_worker_fault_with_retries(tmp_path):
    # The single scheduled worker fault hits the first dispatch; the retry
    # (attempt 2) finds a clean schedule and must succeed bit-identically.
    plan = FaultPlan(seed=1, window=1, counts={"worker.raise": 1})
    config = _serve_config(tmp_path, "retry.sock", fault_plan=plan)
    qasm = dumps(qft_circuit(3))
    with CompileServer(config) as server:
        stats = RetryStats()
        policy = RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0)
        with ServeClient(config.address, retry=policy, retry_stats=stats) as client:
            response = client.compile(qasm, compiler="reqisc-eff", seed=0)
        assert response["ok"]
        assert server.fault_counts() == {"worker.raise": 1}
    snapshot = stats.as_dict()
    assert snapshot["attempts"] == 2
    assert snapshot["retries"] == 1
    assert snapshot["giveups"] == 0


def test_client_reconnects_after_injected_socket_reset(tmp_path):
    plan = FaultPlan(seed=2, window=1, counts={"socket.reset": 1})
    config = _serve_config(tmp_path, "reset.sock", fault_plan=plan)
    qasm = dumps(qft_circuit(3))
    with CompileServer(config):
        stats = RetryStats()
        policy = RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0)
        with ServeClient(config.address, retry=policy, retry_stats=stats) as client:
            response = client.compile(qasm)
            assert response["ok"]
            # The same socket keeps working for subsequent requests.
            assert client.ping()
    snapshot = stats.as_dict()
    assert snapshot["reconnects"] == 1
    assert snapshot["retries"] == 1


def test_without_retry_policy_injected_reset_is_an_error(tmp_path):
    plan = FaultPlan(seed=2, window=1, counts={"socket.reset": 1})
    config = _serve_config(tmp_path, "oneshot.sock", fault_plan=plan)
    qasm = dumps(qft_circuit(3))
    with CompileServer(config):
        with ServeClient(config.address) as client:
            with pytest.raises((ConnectionError, OSError)):
                client.compile(qasm)
            # The client recovers on the next call by reconnecting.
            assert client.ping()


def test_hedged_request_beats_injected_delay(tmp_path):
    plan = FaultPlan(seed=3, window=1, counts={"socket.delay": 1})
    config = _serve_config(tmp_path, "hedge.sock", fault_plan=plan)
    qasm = dumps(qft_circuit(3))
    with CompileServer(config):
        stats = RetryStats()
        policy = RetryPolicy(max_attempts=2, base_delay=0.01, jitter=0.0, hedge_after=0.05)
        with ServeClient(config.address, retry=policy, retry_stats=stats) as client:
            response = client.compile(qasm)
        assert response["ok"]
    assert stats.as_dict()["hedges"] >= 1


def test_health_op_shape(tmp_path):
    config = _serve_config(tmp_path, "health.sock", watchdog_interval=0.05)
    with CompileServer(config):
        with ServeClient(config.address) as client:
            client.compile(dumps(qft_circuit(3)))
            deadline = time.monotonic() + 5.0
            health = client.health()
            while health["watchdog_sweeps"] == 0 and time.monotonic() < deadline:
                time.sleep(0.05)
                health = client.health()
    assert health["status"] == "ok"
    assert health["degraded"] is False
    assert health["workers"] == 1
    assert health["workers_alive"] == 1
    assert health["watchdog_sweeps"] > 0
    assert health["requests_completed"] == 1
    assert health["retry_after_hint"] >= 0.1
    assert health["uptime_seconds"] > 0.0
    assert health["ewma_compile_seconds"] is not None


def test_watchdog_respawns_dead_idle_worker(tmp_path):
    config = _serve_config(tmp_path, "respawn.sock", watchdog_interval=0.05)
    with CompileServer(config) as server:
        with ServeClient(config.address) as client:
            client.compile(dumps(qft_circuit(3)))  # make sure the worker is live
            slot = server._pool._slots[0]
            os.kill(slot.process.pid, 9)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                health = client.health()
                if health["probe_respawns"] >= 1 and health["workers_alive"] == 1:
                    break
                time.sleep(0.05)
            assert health["probe_respawns"] >= 1
            assert health["workers_alive"] == 1
            # The respawned worker still compiles, bit-identically.
            first = client.compile(dumps(qft_circuit(4)))
            assert first["ok"]


def test_degraded_mode_sheds_low_priority_queued_jobs(tmp_path):
    config = _serve_config(
        tmp_path,
        "shed.sock",
        fault_plan=FaultPlan(seed=0, window=1, counts={"worker.hang": 1}),
        max_pending=3,
        watchdog_interval=0.05,
        shed_after=0.15,
        shed_priority=5,
    )
    with CompileServer(config) as server:
        outcomes = {}

        def submit(tag, circuit, priority=None, timeout=None):
            with ServeClient(config.address, timeout=30.0) as client:
                try:
                    outcomes[tag] = client.compile(dumps(circuit), priority=priority, timeout=timeout)
                except ServeError as exc:
                    outcomes[tag] = exc

        # The plan's hang, on the first dispatch, occupies the single worker
        # until its 3s deadline; two low-priority jobs queue behind it,
        # pinning pending at max_pending.
        hang = threading.Thread(target=submit, args=("hang", qft_circuit(3)), kwargs={"timeout": 3.0})
        hang.start()
        time.sleep(0.3)  # let the hang job reach the worker
        queued = [
            threading.Thread(target=submit, args=(f"low{i}", qft_circuit(4 + i)), kwargs={"priority": 0})
            for i in range(2)
        ]
        for thread in queued:
            thread.start()
        for thread in queued:
            thread.join(timeout=15.0)
        shed = [outcomes[f"low{i}"] for i in range(2)]
        assert all(isinstance(item, ServeError) for item in shed)
        assert {item.code for item in shed} == {"overloaded"}
        # Every shed refusal tells the client when to come back.
        assert all(item.response.get("retry_after", 0) > 0 for item in shed)
        assert server.stats.as_dict()  # server still healthy
        hang.join(timeout=15.0)
        assert not hang.is_alive()
        assert outcomes["hang"].code == "timeout"
        stats = server._pool.stats()
        assert stats["shed_jobs"] >= 2


def test_priority_is_validated_and_orders_queued_work(tmp_path):
    config = _serve_config(tmp_path, "prio.sock")
    with CompileServer(config):
        with ServeClient(config.address) as client:
            with pytest.raises(ServeError) as excinfo:
                client.compile(dumps(qft_circuit(3)), priority=42)
            assert excinfo.value.code == "bad-request"
            with pytest.raises(ServeError):
                client.compile(dumps(qft_circuit(3)), priority=True)
            # In-range priorities are accepted.
            assert client.compile(dumps(qft_circuit(3)), priority=9)["ok"]


def test_overload_refusal_carries_retry_after_hint(tmp_path):
    config = _serve_config(
        tmp_path,
        "full.sock",
        fault_plan=FaultPlan(seed=0, window=1, counts={"worker.hang": 1}),
        max_pending=1,
    )
    with CompileServer(config):
        filler_done = threading.Event()

        def fill():
            with ServeClient(config.address, timeout=30.0) as client:
                try:
                    client.compile(dumps(qft_circuit(3)), timeout=3.0)
                except ServeError:
                    pass
                finally:
                    filler_done.set()

        filler = threading.Thread(target=fill)
        filler.start()
        time.sleep(0.3)
        with ServeClient(config.address) as client:
            with pytest.raises(ServeError) as excinfo:
                client.compile(dumps(qft_circuit(5)))
        assert excinfo.value.code == "overloaded"
        assert excinfo.value.response.get("retry_after", 0) > 0
        assert filler_done.wait(timeout=15.0)
        filler.join(timeout=5.0)


def test_client_closes_socket_on_connect_failure(tmp_path):
    client = ServeClient(str(tmp_path / "nothing.sock"), connect_timeout=0.5)
    with pytest.raises((ConnectionError, OSError)):
        client.ping()
    assert client._sock is None  # no leaked descriptor
    client.close()


def test_client_context_manager_closes(tmp_path):
    config = _serve_config(tmp_path, "ctx.sock")
    with CompileServer(config):
        with ServeClient(config.address) as client:
            assert client.ping()
        assert client._sock is None


# ---------------------------------------------------------------------------
# Cache self-healing: scrub, counters, quarantine.
# ---------------------------------------------------------------------------


def _fill_cache(directory, count, prefix="key"):
    cache = SynthesisCache(capacity=4, directory=directory)
    for index in range(count):
        cache.put(f"{prefix}{index}", {"index": index, "pad": b"x" * 128})
    cache.flush()
    cache.close()


def _only_segment(directory):
    segment_dir = os.path.join(directory, "segments")
    names = [name for name in os.listdir(segment_dir) if name.endswith(".seg")]
    assert len(names) == 1
    return os.path.join(segment_dir, names[0])


def test_scrub_on_healthy_cache_is_a_no_op(tmp_path):
    directory = str(tmp_path / "cache")
    _fill_cache(directory, 10)
    cache = SynthesisCache(capacity=4, directory=directory)
    report = cache.scrub()
    assert report["segments_scanned"] == 1
    assert report["records_valid"] == 10
    assert report["records_salvaged"] == 0
    assert report["segments_quarantined"] == 0
    assert report["corrupt_sites"] == 0
    assert report["entries"] == 10
    stats = cache.disk_stats()
    assert stats["entries"] == 10
    assert stats["quarantined_segments"] == 0
    assert stats["last_scrub_age_seconds"] is not None
    assert scrub_age_seconds(directory) >= 0.0
    for index in range(10):
        assert cache.get(f"key{index}") == {"index": index, "pad": b"x" * 128}
    cache.close()


def test_scrub_quarantines_corruption_without_losing_valid_records(tmp_path):
    directory = str(tmp_path / "cache")
    _fill_cache(directory, 20)
    path = _only_segment(directory)
    os.unlink(os.path.join(directory, "index.json"))  # force a cold full scan
    with open(path, "r+b") as handle:
        handle.seek(os.path.getsize(path) // 2)
        byte = handle.read(1)
        handle.seek(-1, os.SEEK_CUR)
        handle.write(bytes([byte[0] ^ 0x41]))

    cache = SynthesisCache(capacity=4, directory=directory)
    before = cache.disk_stats()
    assert before["corrupt_records"] >= 1

    report = cache.scrub()
    assert report["segments_quarantined"] == 1
    assert report["corrupt_sites"] >= 1
    assert report["records_salvaged"] >= 18
    # The damaged original is preserved for forensics, out of the scan path.
    quarantine = os.path.join(directory, "segments", "quarantine")
    assert len(os.listdir(quarantine)) == 1

    # Every record the corruption did not destroy survives the scrub.
    readable = sum(1 for index in range(20) if cache.get(f"key{index}") is not None)
    assert readable >= 19
    assert readable == report["entries"]
    after = cache.disk_stats()
    assert after["quarantined_segments"] == 1
    assert after["corrupt_records"] == 0  # the live scan path is clean again
    cache.close()

    # A cold reopen sees the healed store.
    reopened = SynthesisCache(capacity=4, directory=directory)
    assert sum(1 for i in range(20) if reopened.get(f"key{i}") is not None) == readable
    reopened.close()


def test_torn_tail_is_counted_kept_and_not_quarantined(tmp_path):
    directory = str(tmp_path / "cache")
    _fill_cache(directory, 8)
    path = _only_segment(directory)
    os.unlink(os.path.join(directory, "index.json"))
    os.truncate(path, os.path.getsize(path) - 9)  # tear the final record

    cache = SynthesisCache(capacity=4, directory=directory)
    stats = cache.disk_stats()
    assert stats["partial_tails"] >= 1
    assert stats["corrupt_records"] == 0

    report = cache.scrub()
    assert report["torn_tails"] == 1
    assert report["segments_quarantined"] == 0
    assert report["records_valid"] == 7
    for index in range(7):
        assert cache.get(f"key{index}") is not None
    cache.close()


def test_scrub_removes_stale_tmp_files(tmp_path):
    directory = str(tmp_path / "cache")
    _fill_cache(directory, 3)
    stale = os.path.join(directory, "segments", "w-999-dead.seg.tmp")
    with open(stale, "wb") as handle:
        handle.write(b"half-written compaction output")
    cache = SynthesisCache(capacity=4, directory=directory)
    report = cache.scrub()
    assert report["tmp_files_removed"] == 1
    assert not os.path.exists(stale)
    cache.close()


# ---------------------------------------------------------------------------
# Crash during compact(): fast deterministic tier-1 variant.
# ---------------------------------------------------------------------------


class _CompactCrash(RuntimeError):
    pass


@pytest.mark.parametrize("stage", ["pre-replace", "post-replace", "pre-unlink"])
def test_crash_during_compact_never_loses_entries(tmp_path, monkeypatch, stage):
    import repro.service.cache as cache_module

    directory = str(tmp_path / "cache")
    _fill_cache(directory, 12)
    # Overwrite half the keys so compaction actually drops superseded bytes.
    cache = SynthesisCache(capacity=4, directory=directory)
    for index in range(6):
        cache.put(f"key{index}", {"index": index, "rev": 2})
    cache.flush()
    cache.close()

    def hook(point):
        if point == stage:
            raise _CompactCrash(point)

    monkeypatch.setattr(cache_module, "_compact_test_hook", hook)
    crashing = SynthesisCache(capacity=4, directory=directory)
    with pytest.raises(_CompactCrash):
        crashing.compact()
    crashing.close()
    monkeypatch.setattr(cache_module, "_compact_test_hook", None)

    # Whatever instant the crash hit, a cold reopen (plus scrub, which also
    # sweeps any leftover *.tmp) must still serve every live entry.
    reopened = SynthesisCache(capacity=4, directory=directory)
    reopened.scrub()
    for index in range(12):
        value = reopened.get(f"key{index}")
        assert value is not None, f"key{index} lost after compact crash at {stage}"
        if index < 6:
            assert value == {"index": index, "rev": 2}
    reopened.close()


# ---------------------------------------------------------------------------
# Miniature end-to-end chaos soak (tier-1; the 50-fault soak is nightly).
# ---------------------------------------------------------------------------


def test_mini_chaos_soak_recovers_everything():
    plan = FaultPlan.from_spec(
        {
            "seed": 3,
            "window": 12,
            "counts": {
                "worker.raise": 1,
                "socket.reset": 1,
                "socket.delay": 1,
                "cache.bitflip": 1,
            },
        }
    )
    report = run_chaos(
        plan,
        scale="tiny",
        clients=2,
        workers=2,
        requests_per_circuit=1,
        job_timeout=20.0,
        wall_deadline=120.0,
    )
    assert report["ok"], report
    assert report["completed"] == report["jobs"]
    assert report["bit_identical"] is True
    assert report["unrecovered"] == []
    assert report["hung_clients"] == 0
    assert report["faults_scheduled"] == 4
    # Every scheduled worker and socket fault really fired.  Cache faults
    # fire inside the worker processes and are not counted here.
    assert report["faults_fired"] == {"worker.raise": 1, "socket.reset": 1, "socket.delay": 1}
    # Post-soak scrub must leave a clean store.
    assert report["disk_after_scrub"]["corrupt_records"] == 0
    assert report["health"].get("status") in ("ok", "degraded", "impaired")


def test_chaos_soak_fails_when_no_scheduled_runtime_fault_fires():
    # 17 jobs never reach the first worker, clock or socket fault of a
    # window-200 schedule: the soak exercised nothing and must not pass.
    report = run_chaos(
        FaultPlan.balanced(seed=42, faults=10),
        scale="tiny",
        clients=2,
        workers=2,
        requests_per_circuit=1,
        job_timeout=20.0,
        wall_deadline=120.0,
    )
    assert report["completed"] == report["jobs"] == 17
    assert report["bit_identical"] is True
    assert report["faults_fired"] == {}
    assert report["faults_exercised"] is False
    assert report["ok"] is False


def test_chaos_report_is_json_serializable():
    import json

    plan = FaultPlan(seed=1, window=4, counts={"clock.skew": 1})
    report = run_chaos(
        plan,
        scale="tiny",
        clients=1,
        workers=1,
        requests_per_circuit=1,
        job_timeout=20.0,
        wall_deadline=120.0,
    )
    assert json.dumps(report)  # no stray non-serializable objects
    assert report["plan"] == plan.to_dict()


# ---------------------------------------------------------------------------
# Deterministic seeded RNG sanity (regression: tuple seeds are not valid).
# ---------------------------------------------------------------------------


def test_backoff_rng_seeding_accepts_all_attempts():
    policy = RetryPolicy(jitter=0.9, seed=123)
    for attempt in range(12):
        assert policy.backoff(attempt) >= 0.0
    # An explicit RNG overrides the seeded default.
    rng = random.Random(0)
    assert policy.backoff(0, rng=rng) <= policy.base_delay
