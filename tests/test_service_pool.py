"""Tests for the event-driven pump of :class:`repro.service.pool.WorkerPool`.

The pump blocks on the workers' result pipes, the busy workers' sentinels
and a wake pipe instead of polling, so an idle pool costs no CPU, a
shutdown is prompt, and a deadline set while the pump sleeps (a chaos
``clock.skew``) is still enforced on time.  Deadlines, crashes, ``probe``
and ``shed`` are covered end to end by ``test_service_server.py`` and
``test_resilience.py``.
"""

import time

import pytest

from repro.qasm import dumps
from repro.resilience import FaultPlan
from repro.service.pool import PoolJob, WorkerPool
from repro.workloads.algorithms import qft_circuit


def _job(timeout=60.0):
    return PoolJob(key="0" * 64, qasm=dumps(qft_circuit(3)), timeout=timeout)


@pytest.mark.skipif(
    not hasattr(time, "pthread_getcpuclockid"), reason="needs per-thread CPU clocks"
)
def test_idle_pump_spends_no_cpu():
    pool = WorkerPool(workers=2)
    try:
        # One job first, so the pump has dispatched, completed and gone idle.
        assert pool.submit(_job()).result(timeout=60).ok
        clock = time.pthread_getcpuclockid(pool._pump_thread.ident)
        before = time.clock_gettime(clock)
        time.sleep(1.0)
        spent = time.clock_gettime(clock) - before
    finally:
        pool.shutdown()
    assert spent < 0.005, f"idle pump used {spent * 1e3:.1f} ms of CPU in 1 s"


def test_shutdown_of_an_idle_pool_is_prompt():
    pool = WorkerPool(workers=2)
    time.sleep(0.2)  # the pump is asleep with no deadline to wake it
    start = time.monotonic()
    pool.shutdown()
    assert time.monotonic() - start < 1.0
    assert not pool._pump_thread.is_alive()
    with pytest.raises(RuntimeError):
        pool.submit(_job())


def test_clock_skew_dispatched_to_an_idle_pump_times_out_promptly():
    # The first dispatch hangs and its deadline collapses to ~20 ms; only
    # the wake from submit() tells the sleeping pump about that deadline.
    plan = FaultPlan(seed=0, window=1, counts={"clock.skew": 1, "worker.hang": 1})
    pool = WorkerPool(workers=1, fault_plan=plan)
    try:
        time.sleep(0.2)
        start = time.monotonic()
        outcome = pool.submit(_job()).result(timeout=30)
        elapsed = time.monotonic() - start
        assert outcome.error_code == "timeout"
        assert elapsed < 1.0
        assert pool.fault_counts() == {"clock.skew": 1, "worker.hang": 1}
        # The respawned worker serves the next job.
        assert pool.submit(_job()).result(timeout=60).ok
    finally:
        pool.shutdown()
