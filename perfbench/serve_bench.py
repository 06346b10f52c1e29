"""Daemon workloads: ``serve-hot`` and ``serve-cold``.

The daemon runs in its own process (``perfbench/daemon.py``, 2 workers) and
is driven over its Unix socket by at most 2 client connections.

Each untraced run starts ``COLD_STARTS`` fresh daemons; each is timed from
spawn until its workers answer (``setup_s``) and then compiles the
workload's program set cold from one client (``compile_s``).  One
connection, because with two the time would depend on which worker each
program's content hash lands on.  The last daemon then serves the load.

``serve-hot``: the program set is a pool of distinct programs (the
``medium`` suite plus four seeded 12-14q/1400-2000g programs).  It is then
resubmitted in a seeded order, the larger programs ``HOT_WEIGHT`` times as
often: closed loop on 2 connections over ``HOT_CAPACITY_CYCLES`` whole
cycles (``capacity_jobs_per_s``) and open loop at a fixed rate over whole
cycles (latency).  Almost every answer is a result-LRU hit, so per-request
intake (QASM parse, fingerprint) dominates.

``serve-cold``: every request is a distinct 6-8q/60-120g program; each
daemon compiles a batch of ``COLD_BATCH`` (``capacity_jobs_per_s`` is the
batch's rate), and an open loop below worker capacity gives latency through
parse, LRU miss, pool queue, worker compile and LRU/cache write.

The client threads, the daemon and its workers all run on one core
(``--cpu``), the one the speed sampler watches, so that every part of a
request's time is normalised (``perfbench/speed.py``).
"""

from __future__ import annotations

import itertools
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from perfbench import metrics, oracle, programs, speed

COMPILER = "reqisc-eff"
WORKERS = 2
CONNECTIONS = 2
#: Fresh daemons per untraced run.  Each is booted (``setup_s``) and
#: compiles its program set cold from one client (``compile_s``); both are
#: the median over them, and the last daemon serves the load phases.  A
#: second compile on the same daemon would not be cold: each worker keeps a
#: synthesis cache, and which worker a request lands on depends on its
#: content hash, so how warm a repeat ran varied with the seed.
COLD_STARTS = 3
#: A request that could not be sent within this many seconds of its
#: scheduled time counts as failed.
LATE_LIMIT_S = 1.0
#: Distinct programs that each fresh ``serve-cold`` daemon compiles.
COLD_BATCH = 24
#: Whole resubmission cycles of ``serve-hot``'s closed loop.  Whole cycles
#: keep the request mix, and so the work per request, the same every run.
HOT_CAPACITY_CYCLES = 1
#: How often each larger random program recurs per resubmission cycle of
#: ``serve-hot``, against once for each suite program, so that about three
#: quarters of the requests are 1400-2000-gate programs.  Intake cost lives
#: there (parse time grows with gates).  With equal weights the median
#: request was a 2 ms suite program whose latency is VM wake-up jitter, and
#: the median spread by 30% between runs; with the median at the boundary
#: between two sizes it spread by 60%.
HOT_WEIGHT = 12
SOCKETS = ".bench_build"
_DAEMONS = itertools.count()


class Daemon:
    """A daemon process, booted and with every worker warmed by one compile."""

    def __init__(self, cpu: int, trace_path: Optional[str] = None) -> None:
        from repro.qasm import dumps
        from repro.service.server import ServeClient

        os.makedirs(SOCKETS, exist_ok=True)
        self.address = os.path.join(SOCKETS, f"serve-{os.getpid()}-{next(_DAEMONS)}.sock")
        command = [sys.executable, os.path.join(os.path.dirname(__file__), "daemon.py"),
                   "--address", self.address, "--workers", str(WORKERS), "--cpu", str(cpu)]
        if trace_path:
            command += ["--trace", trace_path]
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                                     start_new_session=True)
        try:
            if self.proc.stdout.readline().strip() != "ready":
                raise RuntimeError("daemon did not start")
            seen = set()
            with ServeClient(self.address, timeout=120.0) as client:
                for index in itertools.count():
                    if len(seen) == WORKERS or index == 32:
                        break
                    warm = programs.random_program(
                        4, 20, programs.rng_for(0, 8, index), f"warm{index}"
                    )
                    seen.add(client.compile(dumps(warm), compiler=COMPILER)["worker"])
        except BaseException:
            self.kill()
            raise

    def peak_rss_mb(self) -> float:
        """Sum of the daemon's and its workers' peak resident sets."""
        pids = [self.proc.pid]
        for task in os.listdir(f"/proc/{self.proc.pid}/task"):
            try:
                with open(f"/proc/{self.proc.pid}/task/{task}/children") as handle:
                    pids += [int(pid) for pid in handle.read().split()]
            except FileNotFoundError:  # the thread ended meanwhile
                continue
        total_kb = 0
        for pid in pids:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGTERM (the daemon closes its pool and writes its trace), then wait."""
        self.proc.stdout.close()
        self.proc.terminate()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.proc.poll() is None:
            self.kill()


def cold_start(cpu: int, load: "Load", jobs, trace_path: Optional[str] = None):
    """Boot a daemon, then compile ``jobs`` on it from one client.

    Returns the daemon and the wall-time intervals of its boot (spawn until
    every worker has answered) and of the compile.
    """
    start = time.perf_counter()
    daemon = Daemon(cpu, trace_path)
    try:
        boot = (start, time.perf_counter())
        compiled = load.closed_loop(daemon.address, jobs, connections=1)[1]
    except BaseException:
        daemon.kill()
        raise
    return daemon, boot, compiled


class Load:
    """Responses and per-request records shared by the load generators."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        #: (program name, compile seed) -> first response
        self.first: Dict[Tuple[str, int], dict] = {}
        self.errors: List[str] = []
        self.attempted = self.failed = self.wrong = 0

    def submit(self, client, name: str, qasm: str, seed: int) -> Optional[dict]:
        """One request; failures and non-identical repeats are counted."""
        try:
            response = client.compile(qasm, compiler=COMPILER, seed=seed)
        except Exception as exc:  # noqa: BLE001 - errors and refusals are counted
            with self.lock:
                self.attempted += 1
                self.failed += 1
                self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return None
        with self.lock:
            self.attempted += 1
            first = self.first.setdefault((name, seed), response)
            if response["qasm"] != first["qasm"]:
                self.failed += 1
                self.wrong += 1
                self.errors.append(f"{name}: repeated response differs from the first")
        return response

    def closed_loop(
        self, address, jobs, connections: int = CONNECTIONS
    ) -> Tuple[int, Tuple[float, float]]:
        """Clients send each job once, back to back.

        Returns the completed jobs and the loop's wall-time interval.
        """
        from repro.service.server import ServeClient

        order = iter(jobs)
        completed = [0]
        start = time.perf_counter()

        def client_loop() -> None:
            with ServeClient(address, timeout=120.0) as client:
                while True:
                    with self.lock:
                        job = next(order, None)
                    if job is None:
                        return
                    if self.submit(client, *job) is not None:
                        with self.lock:
                            completed[0] += 1

        _run_threads(client_loop, connections)
        return completed[0], (start, time.perf_counter())

    def open_loop(self, address, jobs, rate: float) -> List[Tuple[float, float, float, dict]]:
        """Send job ``i`` at ``i / rate``; returns (due, done, lateness, response) each.

        Latency counts from the scheduled send time, so a stalled daemon is
        charged for the wait it imposes on later requests.
        """
        from repro.service.server import ServeClient

        cursor = iter(range(len(jobs)))
        samples: List[Tuple[float, float, float, dict]] = []
        epoch = time.perf_counter() + 0.05

        def client_loop() -> None:
            with ServeClient(address, timeout=120.0) as client:
                while True:
                    with self.lock:
                        index = next(cursor, None)
                    if index is None:
                        return
                    due = epoch + index / rate
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    late = time.perf_counter() - due
                    if late > LATE_LIMIT_S:
                        with self.lock:
                            self.attempted += 1
                            self.failed += 1
                            self.errors.append(f"{jobs[index][0]}: sent {late:.2f}s late")
                        continue
                    response = self.submit(client, *jobs[index])
                    if response is not None:
                        with self.lock:
                            samples.append((due, time.perf_counter(), late, response))

        _run_threads(client_loop, CONNECTIONS)
        return samples


def _run_threads(target, count: int) -> None:
    threads = [threading.Thread(target=target) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def permutation_spec():
    """``COMPILER``'s stages up to the last one that records a qubit map.

    The daemon answers with QASM only; the oracle takes the recorded
    permutation from this prefix, compiled in process with the same seed.
    """
    from repro.target.pipeline import PipelineSpec, named_pipeline

    spec = named_pipeline(COMPILER)
    ids = [stage.pass_id for stage in spec.stages]
    last = max(i for i, pass_id in enumerate(ids) if pass_id in ("mirror", "route"))
    return PipelineSpec(name=spec.name, stages=spec.stages[: last + 1], isa=spec.isa)


def check_outputs(load: Load, sources: Dict[str, str]) -> List[Dict[str, float]]:
    """Oracle every distinct response against its submitted program.

    Returns one quality row per program (its first compile seed's response).
    """
    from repro.qasm import loads
    from repro.target.api import compile as target_compile

    spec = permutation_spec()
    rows: Dict[str, Dict[str, float]] = {}
    checked = set()
    for (name, seed), response in sorted(load.first.items()):
        if (name, response["qasm"]) in checked:
            continue
        checked.add((name, response["qasm"]))
        source = loads(sources[name])
        compiled = loads(response["qasm"])
        properties = target_compile(source, spec=spec, seed=seed).properties
        try:
            oracle.check_equivalent(source, compiled, properties, seed=seed)
        except oracle.OracleError as exc:
            load.failed += 1
            load.wrong += 1
            load.errors.append(f"{name}: {exc}")
        summary = response["summary"]
        rows.setdefault(name, {
            "output_gates": len(compiled),
            "num_2q": summary["num_2q"],
            "depth_2q": summary["depth_2q"],
            "distinct_2q": summary["distinct_2q"],
            "pulse_duration": summary["duration"],
        })
    return list(rows.values())


def run(
    workload: str, seed: int, seconds: float, rate: float, cpu: int,
    trace: bool = False, sampler: Optional[speed.Sampler] = None,
):
    """One run; returns (values, info) like ``compile_bench.run``.

    Untraced, ``COLD_STARTS`` fresh daemons each compile the program set
    (``serve-hot``: the pool; ``serve-cold``: a batch of its own); traced,
    one daemon does.
    """
    from repro.qasm import dumps
    from repro.service.server import ServeClient

    starts = 1 if trace else COLD_STARTS
    if workload == "serve-hot":
        pool = [(name, dumps(circuit), seed) for name, circuit in programs.hot_pool(seed)]
        batches = [pool] * starts
        larger = len(programs.HOT_RANDOM_SIZES)
        cycle = pool[:-larger] + pool[-larger:] * HOT_WEIGHT
        cycle = [cycle[i] for i in programs.rng_for(seed, 4).permutation(len(cycle))]
        # whole cycles, so that the median and the tail fall on the same
        # program sizes in every run
        open_jobs = cycle * max(1, round(rate * seconds * 2 / 3 / len(cycle)))
    else:
        cold = [(n, dumps(c), seed)
                for n, c in programs.cold_programs(seed, COLD_BATCH * starts, 0)]
        batches = [cold[i * COLD_BATCH:(i + 1) * COLD_BATCH] for i in range(starts)]
        count = round(rate * seconds * 2 / 3)
        open_jobs = [(n, dumps(c), seed) for n, c in programs.cold_programs(seed, count, 1)]

    trace_path = os.path.join(".bench_build", "trace", f"{workload}-s{seed}.json") if trace else None
    load = Load()
    boots, compiles = [], []
    for index, jobs in enumerate(batches):
        last = index == len(batches) - 1
        daemon, boot, compiled = cold_start(cpu, load, jobs, trace_path if last else None)
        boots.append(boot)
        compiles.append(compiled)
        if not last:
            daemon.stop()
    with daemon:
        if workload == "serve-hot":
            completed, hot_interval = load.closed_loop(
                daemon.address, cycle * HOT_CAPACITY_CYCLES
            )
        samples = load.open_loop(daemon.address, open_jobs, rate)
        with ServeClient(daemon.address) as client:
            stats = client.stats()["server"]
        peak_rss_mb = daemon.peak_rss_mb()
        daemon.stop()
    timeline = sampler.stop() if sampler is not None else speed.WALL

    rows = check_outputs(load, {name: qasm for name, qasm, _ in sum(batches, []) + open_jobs})
    info = {"attempted": load.attempted, "failed": load.failed, "wrong": load.wrong,
            "errors": load.errors, "open_loop_requests": len(open_jobs),
            "tail_percentile": metrics.tail_percentile(len(samples)), "rate": rate,
            "speed_median_probe_us": 1e6 * timeline.median_probe}
    latencies = [1000.0 * timeline.seconds(due, done) for due, done, _, _ in samples]
    compile_seconds = [timeline.seconds(*interval) for interval in compiles]
    info["cold_compiles_s"] = compile_seconds
    compile_s = metrics.median(compile_seconds)
    if workload == "serve-hot":
        capacity = completed / timeline.seconds(*hot_interval)
    else:
        capacity = COLD_BATCH / compile_s
    if not trace:
        values = {
            "setup_s": metrics.median([timeline.seconds(*interval) for interval in boots]),
            "compile_s": compile_s,
            "peak_rss_mb": peak_rss_mb,
            **metrics.quality_sums(rows),
            "latency_p50_ms": metrics.median(latencies),
            "latency_tail_ms": metrics.tail_value(latencies),
            "capacity_jobs_per_s": capacity,
        }
        return values, info

    from perfbench.tracing import read_chrome

    spans = read_chrome(trace_path)
    requests = {span[0]: {"qasm.loads": 0.0, "service.fingerprint": 0.0}
                for span in spans if span[1] == "service.request"}
    parsed_gates = parse_seconds = 0.0
    for _, name, start, end, parent, _, size in spans:
        if parent in requests and name in requests[parent]:
            requests[parent][name] += end - start
        if name == "qasm.loads":
            parsed_gates += size
            parse_seconds += end - start
    requests = list(requests.values())
    worker_ms = [1000.0 * r["compile_seconds"] for r in load.first.values()
                 if r["cached"] == "no"]
    values = {name: 0.0 for name in metrics.PER_LAYER}
    values.update({
        "qasm.loads.s": metrics.median([r["qasm.loads"] for r in requests]),
        "qasm.loads.gates_per_s": parsed_gates / parse_seconds,
        "service.fingerprint.s": metrics.median([r["service.fingerprint"] for r in requests]),
        "service.result_lru.hit_ratio": stats["dedup_result_cache"] / stats["received"],
        "service.compiles_started": stats["compiles_started"],
        "service.dedup_inflight": stats["dedup_inflight"],
        "service.worker_compile_ms.p50": metrics.median(worker_ms),
        "service.non_compile_ms.p50": metrics.median([
            1000.0 * (done - due - (r["compile_seconds"] if r["cached"] == "no" else 0.0))
            for due, done, _, r in samples
        ]),
        "loadgen.late_ms.max": 1000.0 * max(late for _, _, late, _ in samples),
    })
    return values, info
