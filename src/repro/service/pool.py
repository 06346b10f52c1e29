"""Persistent sharded worker pool of the ``repro serve`` daemon.

Unlike :class:`~repro.service.batch.BatchCompiler`, which forks a fresh
process pool per batch and tears it down afterwards, this pool keeps its
workers alive across jobs: each worker owns a warm
:class:`~repro.service.cache.SynthesisCache` (memory tier hot, disk tier
shared through the segment store) and module imports are paid once, not per
request.  The design borrows the decoupled submit/complete structure of
asynchronous device pools (CXLMemUring in PAPERS.md): callers get a future
at submit time, a single pump thread moves jobs and completions.  The pump
is event-driven: it blocks in :func:`multiprocessing.connection.wait` on
every worker's result pipe, the sentinel of every busy worker and a wake
pipe, with a timeout that ends at the nearest running job's deadline (none
when no job runs).  ``submit``, ``probe`` and ``shutdown`` write one byte to
the wake pipe when they dispatch, respawn or close, so a fresh deadline is
enforced on time; an idle pool costs no CPU.

Isolation properties (proven by ``tests/test_service_server.py``):

* **Sharding.**  A job's content-hash key pins it to one worker
  (``int(key, 16) % workers``), so repeated submissions of the same circuit
  hit the same warm memory cache.  Each worker has its *own* job and
  result pipes — a wedged worker never blocks another worker's traffic,
  and a killed worker's pipes are discarded wholesale (a channel shared
  with other workers could be corrupted by killing a process mid-write).
  The parent closes its copy of a worker's result-pipe write end, so a
  dead worker's pipe reads as end-of-file.
* **One outstanding job per worker.**  Queued jobs wait server-side in
  per-shard deques; a worker only ever holds the job it is running.  The
  pump thread can therefore enforce per-job deadlines exactly: kill the
  process, fail that job alone, respawn, dispatch the shard's next job.
* **Crash containment.**  A worker that dies (a fault plan's ``exit``,
  segfault, OOM kill) fails only the job it was running; the pool respawns
  the worker and the shard keeps draining.  Results are never reordered
  across a respawn because the shard's pending deque lives in the parent.
"""

from __future__ import annotations

import collections
import dataclasses
import gc
import multiprocessing
import os
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Any, Deque, Dict, Optional, Tuple

__all__ = ["PoolJob", "JobOutcome", "WorkerPool"]

#: Deadline used for a chaos-injected clock skew: the job's real deadline
#: collapses to (almost) now, so the pump enforces it the way it would a
#: wildly skewed clock — kill, fail with a retriable ``timeout``, respawn.
_CLOCK_SKEW_DEADLINE_SECONDS = 0.02

#: Grace given to workers to drain their sentinel at shutdown.
_SHUTDOWN_GRACE_SECONDS = 2.0


@dataclass(frozen=True)
class PoolJob:
    """One compile job, picklable for the worker boundary.

    ``key`` is the request's content-hash (dedup identity); it also selects
    the shard.  ``fault`` carries the worker fault (``raise``/``hang``/
    ``exit``) that the pool's fault plan drew for this dispatch; only
    :meth:`WorkerPool._dispatch` sets it.
    ``priority`` (0–9, higher first) orders each shard's backlog and decides
    what :meth:`WorkerPool.shed` drops under degraded load.
    """

    key: str
    qasm: str
    compiler: str = "reqisc-eff"
    seed: int = 0
    target: Optional[str] = None
    timeout: float = 60.0
    fault: Optional[str] = None
    priority: int = 5


@dataclass
class JobOutcome:
    """What came back for one job: a payload or a structured failure."""

    key: str
    ok: bool
    payload: Optional[Dict[str, Any]] = None  # qasm, summary, cache, elapsed
    error_code: Optional[str] = None
    error_message: Optional[str] = None
    worker: int = -1
    elapsed_seconds: float = 0.0


@dataclass
class _WorkerSlot:
    """Parent-side state of one worker: process, pipes, shard backlog."""

    index: int
    process: Optional[multiprocessing.Process] = None
    jobs: Optional[Any] = None  # send end: PoolJob, or None to stop
    results: Optional[Any] = None  # receive end: (key, ok, payload, code, message, elapsed)
    running: Optional[Tuple[PoolJob, Future, float]] = None  # job, future, deadline
    backlog: Deque[Tuple[PoolJob, Future]] = field(default_factory=collections.deque)
    generation: int = 0


def _execute_job(job: PoolJob, cache) -> Tuple[bool, Any, Optional[str], Optional[str]]:
    """Worker-side job body; returns (ok, payload, error_code, error_message)."""
    from repro.service.protocol import ERR_COMPILE, ERR_INTERNAL

    if job.fault == "raise":
        # A transient internal failure, not a property of the circuit: the
        # answer is retriable.
        return False, None, ERR_INTERNAL, "injected transient worker fault (chaos)"
    if job.fault == "hang":
        time.sleep(3600.0)
    if job.fault == "exit":
        os._exit(17)

    from repro.qasm import QasmError, dumps, loads
    from repro.service.cache import CacheStats
    from repro.target.api import compile as target_compile

    before = cache.stats.snapshot() if cache is not None else CacheStats()
    start = time.perf_counter()
    try:
        circuit = loads(job.qasm)
        result = target_compile(
            circuit, target=job.target, spec=job.compiler, seed=job.seed, synthesis_cache=cache
        )
    except QasmError as exc:
        return False, None, ERR_COMPILE, f"QasmError: {exc}"
    except Exception as exc:  # noqa: BLE001 — a poisoned circuit fails alone
        return False, None, ERR_COMPILE, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    delta = cache.stats.delta_since(before) if cache is not None else CacheStats()
    payload = {
        "qasm": dumps(result.circuit),
        "summary": result.summary(),
        "cache": delta.as_dict(),
        "compile_seconds": elapsed,
    }
    return True, payload, None, None


def _worker_main(worker_index: int, jobs, results, cache_spec, fault_plan=None) -> None:
    """Worker process loop: one job at a time until the ``None`` sentinel."""
    from repro.service.cache import SynthesisCache
    from repro.service.protocol import ERR_COMPILE

    cache = None
    if cache_spec is not None:
        capacity, directory = cache_spec
        cache = SynthesisCache(capacity=capacity, directory=directory)
        if fault_plan is not None:
            # Chaos cache layer: the plan crosses the fork as a plain value;
            # each worker owns a fresh injector over its own write stream.
            cache.fault_injector = fault_plan.injector("cache")
    # Move the heap inherited from the daemon out of the collector's reach:
    # a full collection would otherwise walk all of it on some job's time.
    gc.freeze()
    try:
        while True:
            try:
                job = jobs.recv()
            except EOFError:  # the parent is gone
                break
            if job is None:
                break
            start = time.perf_counter()
            try:
                ok, payload, code, message = _execute_job(job, cache)
            except Exception as exc:  # noqa: BLE001 — report, don't die
                ok, payload = False, None
                code, message = ERR_COMPILE, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            results.send((job.key, ok, payload, code, message, elapsed))
    finally:
        if cache is not None:
            cache.close()


class WorkerPool:
    """``workers`` persistent compile processes with per-job deadlines.

    Parameters
    ----------
    workers:
        Number of worker processes (shards).
    cache_spec:
        ``(capacity, directory)`` passed to each worker's
        :class:`~repro.service.cache.SynthesisCache`, or ``None`` to run
        cacheless.  A shared ``directory`` makes workers exchange synthesis
        results through the concurrency-safe segment store.
    default_timeout:
        Per-job deadline in seconds when a job does not carry its own.
    fault_plan:
        Optional :class:`~repro.resilience.faultplan.FaultPlan`.  The pool
        arms its ``worker`` layer (inject ``raise``/``hang``/``exit`` into
        dispatched jobs) and its ``clock`` layer (collapse a job's deadline
        to now, modelling a skewed clock).  Chaos soaks and fault tests
        only — never in production.
    """

    def __init__(
        self,
        workers: int = 2,
        cache_spec: Optional[Tuple[Optional[int], Optional[str]]] = None,
        default_timeout: float = 60.0,
        fault_plan: Optional[Any] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if "fork" in multiprocessing.get_all_start_methods():
            # Workers inherit loaded modules: respawn after a crash costs
            # milliseconds instead of a full interpreter + numpy re-import.
            self._ctx = multiprocessing.get_context("fork")
        else:  # pragma: no cover - non-POSIX fallback
            self._ctx = multiprocessing.get_context()
        self.workers = workers
        self.cache_spec = cache_spec
        self.default_timeout = default_timeout
        self._slots = [_WorkerSlot(index=i) for i in range(workers)]
        self._lock = threading.Lock()
        self._closed = threading.Event()
        self._respawns = 0
        self._timeouts = 0
        self._crashes = 0
        self._probe_respawns = 0
        self._shed_jobs = 0
        self._fault_plan = fault_plan
        self._worker_faults = fault_plan.injector("worker") if fault_plan is not None else None
        self._clock_faults = fault_plan.injector("clock") if fault_plan is not None else None
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        for slot in self._slots:
            self._spawn(slot)
        self._pump_thread = threading.Thread(target=self._pump, name="repro-pool-pump", daemon=True)
        self._pump_thread.start()

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------
    def submit(self, job: PoolJob) -> "Future[JobOutcome]":
        """Queue ``job`` on its shard; the future resolves to a :class:`JobOutcome`."""
        future: "Future[JobOutcome]" = Future()
        # Jobs shard by content hash (warm memory-tier synthesis cache).
        slot = self._slots[self._shard(job.key)]
        with self._lock:
            if self._closed.is_set():
                raise RuntimeError("pool is shut down")
            slot.backlog.append((job, future))
            if len(slot.backlog) > 1 and job.priority > slot.backlog[-2][0].priority:
                # Higher-priority work jumps the shard's queue.  The backlog
                # is kept ordered by descending priority (stable sort, so
                # equal priorities stay strict FIFO); appending only breaks
                # the order when the newcomer outranks its predecessor.
                slot.backlog = collections.deque(
                    sorted(slot.backlog, key=lambda item: -item[0].priority)
                )
            running = slot.running
            self._dispatch(slot)
            if slot.running is not running:
                self._wake()  # the pump must learn the new deadline
        return future

    def pending_jobs(self) -> int:
        """Jobs queued or running right now (the backpressure quantity)."""
        with self._lock:
            return sum(len(slot.backlog) + (1 if slot.running else 0) for slot in self._slots)

    def stats(self) -> Dict[str, Any]:
        """Counter snapshot for the ``stats`` op."""
        with self._lock:
            return {
                "workers": self.workers,
                "alive": sum(
                    1 for slot in self._slots if slot.process is not None and slot.process.is_alive()
                ),
                "pending": sum(
                    len(slot.backlog) + (1 if slot.running else 0) for slot in self._slots
                ),
                "respawns": self._respawns,
                "timeouts": self._timeouts,
                "crashes": self._crashes,
                "probe_respawns": self._probe_respawns,
                "shed_jobs": self._shed_jobs,
            }

    def probe(self) -> Dict[str, int]:
        """Liveness-probe every worker; preemptively respawn dead idle ones.

        The pump only notices a dead worker when it has a *running* job
        (crash containment); a worker that died while idle — OOM killer,
        operator ``kill``, a fault injected between jobs — would otherwise
        sit undetected until the next job dispatched to it timed out.  The
        daemon's watchdog calls this periodically so the pool is healed
        *before* traffic hits the dead shard.  Busy workers are left to the
        pump's crash detection, which also fails the in-flight job properly.
        """
        with self._lock:
            dead_idle = 0
            if not self._closed.is_set():
                for slot in self._slots:
                    if (
                        slot.running is None
                        and slot.process is not None
                        and not slot.process.is_alive()
                    ):
                        dead_idle += 1
                        self._discard_channels(slot)
                        self._respawns += 1
                        self._probe_respawns += 1
                        self._spawn(slot)
                        self._dispatch(slot)
                if dead_idle:
                    self._wake()  # the pump must watch the new pipes
            return {"workers": self.workers, "respawned_idle": dead_idle}

    def shed(self, min_priority: int) -> int:
        """Fail every *queued* job below ``min_priority`` with ``overloaded``.

        Running jobs are never interrupted — shedding is about refusing
        queued work the daemon can no longer serve in time, not aborting
        work already paid for.  Returns how many jobs were shed; each
        resolves to an ``overloaded`` outcome the server answers with a
        ``retry_after`` hint.
        """
        from repro.service.protocol import ERR_OVERLOADED

        shed = 0
        with self._lock:
            for slot in self._slots:
                kept: Deque[Tuple[PoolJob, Future]] = collections.deque()
                while slot.backlog:
                    job, future = slot.backlog.popleft()
                    if job.priority < min_priority:
                        shed += 1
                        self._resolve(
                            future,
                            JobOutcome(
                                key=job.key,
                                ok=False,
                                error_code=ERR_OVERLOADED,
                                error_message=(
                                    f"shed under degraded load "
                                    f"(priority {job.priority} < {min_priority})"
                                ),
                                worker=slot.index,
                            ),
                        )
                    else:
                        kept.append((job, future))
                slot.backlog = kept
            self._shed_jobs += shed
        return shed

    def fault_counts(self) -> Dict[str, int]:
        """Chaos faults this pool has actually fired, per ``layer.mode``."""
        counts: Dict[str, int] = {}
        for injector in (self._worker_faults, self._clock_faults):
            if injector is not None:
                counts.update(injector.fired_counts())
        return counts

    def shutdown(self) -> None:
        """Stop the pump, fail queued jobs, terminate the workers."""
        with self._lock:
            if self._closed.is_set():
                return
            self._closed.set()
            self._wake()
        self._pump_thread.join(timeout=_SHUTDOWN_GRACE_SECONDS + 1.0)
        from repro.service.protocol import ERR_SHUTDOWN

        with self._lock:
            for slot in self._slots:
                while slot.backlog:
                    _, future = slot.backlog.popleft()
                    self._fail(future, slot, ERR_SHUTDOWN, "server shutting down")
                if slot.running is not None:
                    _, future, _ = slot.running
                    slot.running = None
                    self._fail(future, slot, ERR_SHUTDOWN, "server shutting down")
                self._stop_worker(slot)
            os.close(self._wake_r)
            os.close(self._wake_w)

    # ------------------------------------------------------------------
    # Internals (pump thread + process management).
    # ------------------------------------------------------------------
    def _shard(self, key: str) -> int:
        return int(key[:8], 16) % self.workers

    def _wake(self) -> None:
        """Wake the pump from its wait.  Caller holds the lock, pool open."""
        try:
            os.write(self._wake_w, b"\0")
        except BlockingIOError:
            pass  # the pipe is full of wake-ups the pump has yet to read

    def _spawn(self, slot: _WorkerSlot) -> None:
        job_recv, slot.jobs = self._ctx.Pipe(duplex=False)
        slot.results, result_send = self._ctx.Pipe(duplex=False)
        slot.generation += 1
        slot.process = self._ctx.Process(
            target=_worker_main,
            args=(slot.index, job_recv, result_send, self.cache_spec, self._fault_plan),
            name=f"repro-serve-worker-{slot.index}",
            daemon=True,
        )
        slot.process.start()
        # Only the worker holds these ends now: its death closes the result
        # pipe's last writer, so the pump reads end-of-file.
        job_recv.close()
        result_send.close()

    def _kill_and_respawn(self, slot: _WorkerSlot) -> None:
        process = slot.process
        if process is not None and process.is_alive():
            process.kill()
            process.join(timeout=_SHUTDOWN_GRACE_SECONDS)
        self._discard_channels(slot)
        self._respawns += 1
        self._spawn(slot)

    def _stop_worker(self, slot: _WorkerSlot) -> None:
        process = slot.process
        if process is None:
            return
        try:
            if process.is_alive():
                slot.jobs.send(None)
                process.join(timeout=_SHUTDOWN_GRACE_SECONDS)
            if process.is_alive():
                process.kill()
                process.join(timeout=_SHUTDOWN_GRACE_SECONDS)
        except (OSError, ValueError):
            pass
        self._discard_channels(slot)
        slot.process = None

    @staticmethod
    def _discard_channels(slot: _WorkerSlot) -> None:
        for conn in (slot.jobs, slot.results):
            if conn is not None:
                conn.close()
        slot.jobs = None
        slot.results = None

    def _dispatch(self, slot: _WorkerSlot) -> None:
        """Hand the shard's next job to its (idle) worker.  Caller holds the lock."""
        if slot.running is not None or not slot.backlog:
            return
        job, future = slot.backlog.popleft()
        if not future.set_running_or_notify_cancel():
            self._dispatch(slot)
            return
        if self._worker_faults is not None:
            # Chaos: piggyback a scheduled worker fault on this dispatch.
            mode = self._worker_faults.draw()
            if mode is not None:
                job = dataclasses.replace(job, fault=mode)
        deadline = time.monotonic() + (job.timeout or self.default_timeout)
        if self._clock_faults is not None and self._clock_faults.draw() == "skew":
            # Chaos: the job's deadline collapses to (almost) now, as a
            # badly skewed clock would make it — a retriable timeout.
            deadline = time.monotonic() + _CLOCK_SKEW_DEADLINE_SECONDS
        slot.running = (job, future, deadline)
        try:
            slot.jobs.send(job)
        except OSError:
            pass  # the worker is gone; the pump fails the job as a crash

    @staticmethod
    def _resolve(future: Future, outcome: JobOutcome) -> None:
        """Complete a future whether it is still pending or already running."""
        if future.done():
            return
        if not future.running() and not future.set_running_or_notify_cancel():
            return  # cancelled while queued
        future.set_result(outcome)

    def _fail(self, future: Future, slot: _WorkerSlot, code: str, message: str) -> None:
        self._resolve(
            future,
            JobOutcome(key="", ok=False, error_code=code, error_message=message, worker=slot.index),
        )

    def _pump(self) -> None:
        from repro.service.protocol import ERR_TIMEOUT, ERR_WORKER_CRASH

        while True:
            with self._lock:
                if self._closed.is_set():
                    return
                now = time.monotonic()
                for slot in self._slots:
                    # 1. Drain completions.
                    while slot.results is not None and slot.results.poll():
                        try:
                            key, ok, payload, code, message, elapsed = slot.results.recv()
                        except (OSError, EOFError):
                            # The worker is gone: step 3 fails a busy one's
                            # job, probe() respawns an idle one.
                            slot.results.close()
                            slot.results = None
                            break
                        if slot.running is not None and slot.running[0].key == key:
                            job, future, _ = slot.running
                            slot.running = None
                            outcome = JobOutcome(
                                key=key,
                                ok=ok,
                                payload=payload,
                                error_code=code,
                                error_message=message,
                                worker=slot.index,
                                elapsed_seconds=elapsed,
                            )
                            self._resolve(future, outcome)
                    # 2. Deadline enforcement: kill, fail, respawn, move on.
                    if slot.running is not None:
                        job, future, deadline = slot.running
                        if now >= deadline:
                            slot.running = None
                            self._timeouts += 1
                            self._kill_and_respawn(slot)
                            limit = job.timeout or self.default_timeout
                            self._resolve(
                                future,
                                JobOutcome(
                                    key=job.key,
                                    ok=False,
                                    error_code=ERR_TIMEOUT,
                                    error_message=(
                                        f"job exceeded its {limit:.1f}s deadline; "
                                        "worker killed and respawned"
                                    ),
                                    worker=slot.index,
                                ),
                            )
                    # 3. Crash detection: the worker died while busy.
                    if (
                        slot.running is not None
                        and slot.process is not None
                        and not slot.process.is_alive()
                    ):
                        job, future, _ = slot.running
                        slot.running = None
                        self._crashes += 1
                        exitcode = slot.process.exitcode
                        self._discard_channels(slot)
                        self._respawns += 1
                        self._spawn(slot)
                        self._resolve(
                            future,
                            JobOutcome(
                                key=job.key,
                                ok=False,
                                error_code=ERR_WORKER_CRASH,
                                error_message=(
                                    f"worker died (exit code {exitcode}) while running "
                                    "this job; worker respawned"
                                ),
                                worker=slot.index,
                            ),
                        )
                    # 4. Keep the shard busy.
                    self._dispatch(slot)
                # Wait on file descriptors, not connection objects: probe()
                # may close a connection while this thread waits on it.
                ready_on = [self._wake_r]
                deadline = None
                for slot in self._slots:
                    if slot.results is not None:
                        ready_on.append(slot.results.fileno())
                    if slot.running is not None:
                        ready_on.append(slot.process.sentinel)
                        if deadline is None or slot.running[2] < deadline:
                            deadline = slot.running[2]
            timeout = None if deadline is None else max(0.0, deadline - time.monotonic())
            if self._wake_r in wait(ready_on, timeout):
                try:
                    os.read(self._wake_r, 4096)
                except BlockingIOError:
                    pass
