"""Chaos soak: drive a live daemon under a seeded :class:`FaultPlan`.

:func:`run_chaos` is the engine behind ``repro chaos``.  One soak:

1. compiles every suite program *sequentially, fault-free, in process* to
   establish the byte-exact expected output for each job;
2. boots a real :class:`~repro.service.server.CompileServer` on a private
   Unix socket with the fault plan armed across all four layers (worker
   crashes/hangs/exits, clock-skewed deadlines, socket resets / torn
   frames / delayed responses, cache bit-flips and truncations);
3. drives it with resilient :class:`~repro.service.server.ServeClient`
   threads (bounded-backoff retries, reconnects, optional hedging) and
   records every response, every unrecovered error, and every client that
   failed to finish within the wall deadline (a hang);
4. after shutdown, reopens the cache directory cold and runs
   :meth:`~repro.service.cache.SynthesisCache.scrub` — injected disk
   corruption must be detected and quarantined, never silently served;
5. verdicts: the soak *passes* only if every completed job is bit-identical
   to its fault-free compile, no job was unrecoverable, no client hung, and
   -- when the plan scheduled worker, clock or socket faults -- at least one
   of them fired.  A soak whose jobs end before its schedule window reaches
   a fault has exercised nothing and fails rather than reporting a clean
   pass.

The report is plain JSON-serializable data; ``ok`` is the single verdict
bit CI gates on.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional

from repro.resilience.faultplan import FaultPlan
from repro.resilience.retry import RetryPolicy, RetryStats

__all__ = ["run_chaos", "soak_window"]

#: Layers whose faults fire in the daemon process and show in ``faults_fired``
#: (``cache`` faults fire inside workers; the scrub report is their evidence).
_RUNTIME_LAYERS = ("worker", "clock", "socket")

#: Extra read-timeout slack over the server's own job timeout, so a client
#: never gives up before the daemon has had a fair chance to answer.
_CLIENT_TIMEOUT_SLACK = 10.0


def default_retry_policy(plan: FaultPlan) -> RetryPolicy:
    """A retry policy sized to survive the plan's worst-case fault clustering."""
    # Enough attempts that even if every retry draws another scheduled
    # fault, the schedule's per-layer density (faults/window) makes
    # exhaustion vanishingly unlikely; hedging covers the delay faults.
    return RetryPolicy(
        max_attempts=6,
        base_delay=0.05,
        max_delay=1.0,
        jitter=0.5,
        seed=plan.seed,
        hedge_after=1.0,
    )


def soak_window(programs: int, faults: int) -> int:
    """Schedule window of a balanced ``faults`` plan over ``programs`` distinct programs.

    Worker and clock faults draw once per dispatch, and the daemon dispatches
    each distinct program about once: repeats are answered from its result
    cache or joined in flight.  Only the first ``programs`` draws of those
    layers are certain, so a wider window can schedule every fault past the
    end of a short soak.  The window still holds each layer's share of the
    plan, which is at most ``faults``.
    """
    return max(programs, faults)


def run_chaos(
    plan: Optional[FaultPlan] = None,
    *,
    scale: str = "tiny",
    compiler: str = "reqisc-eff",
    seed: int = 0,
    clients: int = 4,
    workers: int = 2,
    requests_per_circuit: int = 3,
    job_timeout: float = 30.0,
    retry: Optional[RetryPolicy] = None,
    cache_dir: Optional[str] = None,
    keep_cache: bool = False,
    wall_deadline: float = 600.0,
) -> Dict[str, Any]:
    """Run one chaos soak; see the module docstring for the protocol.

    ``cache_dir=None`` uses a private temp directory, removed afterwards
    unless ``keep_cache`` (the CLI keeps it when writing a report next to
    it).  Without a ``plan`` the soak runs a balanced 50-fault plan whose
    window is :func:`soak_window`.  ``wall_deadline`` bounds the whole drive phase — a client thread
    still alive past it is reported as hung and the soak fails.
    """
    from repro.qasm import dumps
    from repro.service.cache import SynthesisCache
    from repro.service.server import CompileServer, ServeClient, ServeConfig
    from repro.target.api import compile as target_compile
    from repro.workloads.suite import benchmark_suite

    cases = benchmark_suite(scale=scale)
    if plan is None:
        plan = FaultPlan.balanced(seed=seed, faults=50, window=soak_window(len(cases), 50))
    retry = retry if retry is not None else default_retry_policy(plan)

    programs = [(case.name, dumps(case.circuit)) for case in cases]
    schedule = [programs[i % len(programs)] for i in range(len(programs) * requests_per_circuit)]

    # Ground truth first, fault-free and sequential: the daemon under chaos
    # must reproduce these bytes exactly or the soak fails.
    expected = {c.name: dumps(target_compile(c.circuit, spec=compiler, seed=seed).circuit) for c in cases}

    owns_cache = cache_dir is None
    if owns_cache:
        cache_dir = tempfile.mkdtemp(prefix="repro-chaos-")
    os.makedirs(cache_dir, exist_ok=True)
    address = os.path.join(cache_dir, "chaos.sock")

    config = ServeConfig(
        address=address,
        workers=workers,
        max_pending=max(256, len(schedule)),
        job_timeout=job_timeout,
        cache_dir=os.path.join(cache_dir, "cache"),
        fault_plan=plan,
    )

    responses: Dict[int, str] = {}
    unrecovered: List[Dict[str, Any]] = []
    lock = threading.Lock()
    cursor = iter(range(len(schedule)))
    stats = RetryStats()
    client_timeout = job_timeout + _CLIENT_TIMEOUT_SLACK

    def run_client() -> None:
        with ServeClient(
            address,
            timeout=client_timeout,
            connect_timeout=5.0,
            retry=retry,
            retry_stats=stats,
        ) as client:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                name, qasm = schedule[index]
                try:
                    response = client.compile(qasm, compiler=compiler, seed=seed)
                except Exception as exc:  # noqa: BLE001 — an unrecovered job is a finding, not a crash
                    with lock:
                        unrecovered.append({"job": index, "name": name, "error": str(exc)})
                    continue
                with lock:
                    responses[index] = response["qasm"]

    health: Dict[str, Any] = {}
    snapshot: Dict[str, Any] = {}
    fired: Dict[str, int] = {}
    hung = 0
    try:
        with CompileServer(config) as server:
            threads = [
                threading.Thread(target=run_client, name=f"chaos-client-{i}", daemon=True)
                for i in range(clients)
            ]
            wall_start = time.monotonic()
            for thread in threads:
                thread.start()
            deadline = wall_start + wall_deadline
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
                if thread.is_alive():
                    hung += 1
            wall = time.monotonic() - wall_start

            with ServeClient(address, timeout=10.0, connect_timeout=5.0) as probe:
                health = probe.health()
                snapshot = probe.stats()
            fired = server.fault_counts()
    finally:
        scrub_report: Dict[str, Any] = {}
        disk_after: Dict[str, Any] = {}
        try:
            if hung == 0:
                # Cold reopen: injected disk corruption must be caught by the
                # scrubber, and every surviving record must still verify.
                cache = SynthesisCache(capacity=16, directory=config.cache_dir)
                try:
                    scrub_report = cache.scrub()
                    disk_after = cache.disk_stats()
                finally:
                    cache.close()
        finally:
            if owns_cache and not keep_cache:
                shutil.rmtree(cache_dir, ignore_errors=True)

    mismatches = [
        {"job": index, "name": schedule[index][0]}
        for index, qasm in sorted(responses.items())
        if qasm != expected[schedule[index][0]]
    ]
    completed = len(responses)
    runtime_scheduled = sum(
        count for name, count in plan.counts.items() if name.partition(".")[0] in _RUNTIME_LAYERS
    )
    runtime_fired = sum(
        count for name, count in fired.items() if name.partition(".")[0] in _RUNTIME_LAYERS
    )
    exercised = runtime_scheduled == 0 or runtime_fired > 0
    ok = (
        not mismatches
        and not unrecovered
        and hung == 0
        and completed + len(unrecovered) == len(schedule)
        and exercised
    )

    return {
        "ok": ok,
        "plan": plan.to_dict(),
        "plan_summary": plan.describe(),
        "faults_scheduled": plan.total_faults(),
        "faults_fired": fired,
        "faults_fired_total": sum(fired.values()),
        "faults_exercised": exercised,
        "scale": scale,
        "compiler": compiler,
        "seed": seed,
        "clients": clients,
        "workers": workers,
        "jobs": len(schedule),
        "completed": completed,
        "bit_identical": not mismatches,
        "mismatches": mismatches,
        "unrecovered": unrecovered,
        "hung_clients": hung,
        "wall_seconds": wall if hung == 0 else wall_deadline,
        "resilience": stats.as_dict(),
        "health": health,
        "server": snapshot.get("server", {}),
        "scrub": scrub_report,
        "disk_after_scrub": disk_after,
    }
