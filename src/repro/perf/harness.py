"""The ``repro.perf`` measurement harness.

Times the hot kernels of the stack — compile, route, synthesize,
simulate, the IR pipeline path, and the QASM interchange layer — over
deterministic workloads and emits a schema-stable report
(written as ``BENCH_*.json`` by the CLI).  Two principles, borrowed from the
measurement methodology of the systems papers this repo tracks:

* **Anchored baselines.**  The routing benchmark times the frozen pre-
  optimization router (:class:`~repro.compiler.routing.sabre_reference.ReferenceSabreRouter`)
  next to the fast path in the *same* report, so every ``BENCH_*.json``
  carries its own speedup denominator instead of comparing against a number
  measured on different hardware.
* **Validated measurements.**  Speed claims ride with correctness evidence:
  the routing benchmark asserts the fast path's output is bit-identical to
  the baseline, and the equivalence sweep re-checks that over the whole
  workload suite.

Report schema (``schema = "repro-perf/9"``)::

    {
      "schema": "repro-perf/9",
      "created_unix": <float>,            # seconds since epoch
      "quick": <bool>,                    # quick mode (CI smoke) or full
      "seed": <int>,
      "host": {"python": ..., "numpy": ..., "platform": ...},
      "benchmarks": [                     # one record per microbenchmark
        {"name": str, "kind": "compile"|"route"|"synthesize"|"simulate"|"ir",
         "repeats": int, "wall_seconds": float,   # best of repeats
         "mean_seconds": float, "gates": int,
         "gates_per_second": float,               # gates / wall_seconds
         "extra": {...}},                          # kind-specific details
      ],
      "routing": {                        # the anchored routing comparison
        "num_qubits": int, "num_gates": int, "topology": str,
        "baseline_seconds": float, "fast_seconds": float,
        "speedup": float, "bit_identical": bool},
      "equivalence": {                    # suite-wide fast==reference check
        "scale": str, "cases": int, "bit_identical": bool,
        "mismatches": [str, ...]},
      "ir": {                             # shared-IR vs legacy marshalling
        "compiler": str, "scale": str, "cases": int,
        "conversions_per_compile": float,         # circuit<->IR marshals, IR path
        "legacy_conversions_per_compile": float,  # same, with per-pass boundaries
        "dag_builds_per_compile": float,
        "ir_seconds": float, "legacy_seconds": float,
        "speedup": float, "bit_identical": bool},
      "qasm": {                           # QASM interchange round trip
        "scale": str, "cases": int, "gates": int,
        "dump_seconds": float, "load_seconds": float,
        "dump_gates_per_second": float, "load_gates_per_second": float,
        "bit_identical": bool,                    # from_qasm(to_qasm(c)) == c
        "mismatches": [str, ...]},
      "serve": {                          # repro serve daemon under load
        "scale": str, "compiler": str, "cases": int, "requests": int,
        "completed": int, "clients": int, "workers": int,
        "errors": [str, ...],
        "offered_rate_jobs_per_second": float,    # open-loop arrival rate
        "throughput_jobs_per_second": float,      # completed / wall
        "latency_p50_ms": float, "latency_p99_ms": float,
        "dedup": {"compiles_started": int, "dedup_inflight": int,
                  "dedup_result_cache": int},
        "bit_identical": bool,                    # daemon == sequential compile
        "mismatches": [str, ...]},
      "chaos": {                          # seeded fault-injection soak
        "scale": str, "compiler": str, "jobs": int, "completed": int,
        "clients": int, "workers": int,
        "faults_scheduled": int, "faults_fired": {"layer.mode": int, ...},
        "faults_fired_total": int,
        "resilience": {"attempts": int, "retries": int, "reconnects": int,
                       "giveups": int, "retry_after_honored": int,
                       "hedges": int, "hedge_wins": int},
        "scrub": {...},                           # SynthesisCache.scrub() report
        "unrecovered": [...], "hung_clients": int,
        "ok": bool,                               # the single soak verdict
        "bit_identical": bool,                    # chaos daemon == fault-free
        "mismatches": [...]},
      "synth_batch": {                    # batched KAK / kernel-layer family
        "count": int, "unique": int, "interned": int,
        "interned_fraction": float,               # exact-bytes dedup rate
        "scalar_seconds": float,                  # one-at-a-time kak_decompose
        "batch_seconds": float,                   # kak_decompose_batch
        "speedup": float,                         # scalar / batch
        "kak_max_delta": float, "kak_tolerance": float,
        "apply_loop_seconds": float,              # per-gate apply_gate fold
        "apply_seq_seconds": float,               # apply_gate_sequence kernel
        "apply_speedup": float,
        "composition_independent": bool,          # batch grouping can't perturb
        "bit_identical": bool,                    # all three kernel contracts
        "mismatches": [str, ...]},
      "fidelity": {                       # noise-aware vs distance-only routing
        "scale": str, "presets": [str, ...], "cases": int,
        "rows": [                                 # one per (program, preset)
          {"benchmark": str, "preset": str, "qubits": int, "input_gates": int,
           "distance_log_fidelity": float, "noise_log_fidelity": float,
           "distance_fidelity": float, "noise_fidelity": float,
           "improvement": float,                  # exp(max(logs) - distance_log)
           "strategy": "noise"|"distance",        # which routing was kept
           "distance_swaps": int, "noise_swaps": int}],
        "wins": int, "ties": int,                 # improvement > 1 / == 1
        "regressions": [str, ...],                # rows with improvement < 1
        "min_improvement": float, "geomean_improvement": float,
        "distance_seconds": float,                # distance-only sweep
        "portfolio_seconds": float,               # both-strategies sweep
        "bit_identical": bool,                    # uniform calibration == distance
        "mismatches": [str, ...]},
      "kernels": {...},                   # repro.kernels.backend_info()
      "cache": {"synthesis": {...} | None,        # CacheStats.as_dict()
                "gate_matrix": {...}}             # matrix_cache_stats()
    }

Every section carrying a ``speedup`` computes it through the single
:func:`speedup_ratio` helper from the two ``*_seconds`` fields it reports;
``compare_bench.py`` re-derives the ratio on every self-check so the stored
number can never drift from its operands.
"""

from __future__ import annotations

import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit

__all__ = [
    "SCHEMA_VERSION",
    "PerfRecord",
    "random_two_qubit_circuit",
    "circuits_bit_identical",
    "bench_route",
    "bench_compile",
    "bench_ir",
    "bench_qasm",
    "bench_serve",
    "bench_chaos",
    "bench_synthesize",
    "bench_synth_batch",
    "bench_simulate",
    "bench_fidelity",
    "routing_equivalence",
    "run_perf",
    "speedup_ratio",
    "write_report",
]

SCHEMA_VERSION = "repro-perf/9"

#: Workload categories exercised by the compile benchmark (a representative
#: slice; the full suite is covered by the equivalence sweep).
_COMPILE_CATEGORIES = ("qft", "tof", "alu", "ripple_add")


@dataclass
class PerfRecord:
    """One microbenchmark measurement."""

    name: str
    kind: str  # "compile" | "route" | "synthesize" | "synth_batch" | "simulate" | "ir" | ...
    repeats: int
    wall_seconds: float  # best of repeats
    mean_seconds: float
    gates: int
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def gates_per_second(self) -> float:
        """Throughput over the best repeat."""
        if self.wall_seconds <= 0.0:
            return float("inf")
        return self.gates / self.wall_seconds

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (the ``benchmarks[]`` entry of the schema)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "repeats": self.repeats,
            "wall_seconds": self.wall_seconds,
            "mean_seconds": self.mean_seconds,
            "gates": self.gates,
            "gates_per_second": self.gates_per_second,
            "extra": self.extra,
        }


def speedup_ratio(baseline_seconds: float, fast_seconds: float) -> float:
    """The one place a report ``speedup`` is computed.

    Every section stores the two operand wall times next to the ratio, and
    ``compare_bench.py`` re-derives the ratio from them on self-check — the
    historical drift (one consumer recomputing ``baseline/fast`` while
    another read the stored field) cannot recur as long as both sides agree
    on this definition.
    """
    return baseline_seconds / fast_seconds if fast_seconds > 0 else float("inf")


def _time(fn: Callable[[], Any], repeats: int) -> Tuple[float, float, Any]:
    """Run ``fn`` ``repeats`` times; return (best, mean, last result)."""
    times: List[float] = []
    result: Any = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times), sum(times) / len(times), result


# ---------------------------------------------------------------------------
# Deterministic workloads.
# ---------------------------------------------------------------------------


def random_two_qubit_circuit(
    num_qubits: int,
    num_gates: int,
    seed: int = 0,
    one_qubit_fraction: float = 0.3,
) -> QuantumCircuit:
    """Deterministic random 1Q/2Q circuit (the routing stress workload)."""
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits, f"random-{num_qubits}q-{num_gates}g-s{seed}")
    for _ in range(num_gates):
        if rng.random() < one_qubit_fraction:
            theta, phi, lam = rng.uniform(0.0, 2.0 * np.pi, 3)
            circuit.u3(float(theta), float(phi), float(lam), int(rng.integers(num_qubits)))
        else:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.cx(int(a), int(b))
    return circuit


def circuits_bit_identical(a: QuantumCircuit, b: QuantumCircuit) -> bool:
    """Gate-for-gate equality: qubits, names, params and exact matrices.

    Delegates to ``Instruction``/``Gate`` equality (frozen-dataclass compare
    of ``(gate, qubits)``; ``UnitaryGate.__eq__`` compares exact matrix
    bytes), so fused SU(4) blocks must match bit for bit.
    """
    return a.num_qubits == b.num_qubits and a.instructions == b.instructions


# ---------------------------------------------------------------------------
# Microbenchmarks.
# ---------------------------------------------------------------------------


def bench_route(
    num_qubits: int = 64,
    num_gates: int = 2000,
    seed: int = 42,
    repeats: int = 3,
    mirroring: bool = True,
    include_baseline: bool = True,
) -> Tuple[List[PerfRecord], Optional[Dict[str, Any]]]:
    """Route a random circuit on a near-square grid; fast path vs baseline.

    Returns the benchmark records and (when ``include_baseline``) the
    ``routing`` comparison section of the report.
    """
    from repro.compiler.routing.coupling_map import CouplingMap
    from repro.compiler.routing.sabre import SabreRouter
    from repro.compiler.routing.sabre_reference import ReferenceSabreRouter

    coupling_map = CouplingMap.grid_for(num_qubits)
    circuit = random_two_qubit_circuit(num_qubits, num_gates, seed=seed)
    coupling_map.distance_matrix()  # build shared arrays outside the timer

    fast = SabreRouter(coupling_map, mirroring=mirroring)
    best, mean, result = _time(lambda: fast.run(circuit), repeats)
    records = [
        PerfRecord(
            name=f"route.grid{coupling_map.num_qubits}.random{num_gates}",
            kind="route",
            repeats=repeats,
            wall_seconds=best,
            mean_seconds=mean,
            gates=len(result.circuit),
            extra={
                "topology": f"{coupling_map.name}-{coupling_map.num_qubits}",
                "input_gates": len(circuit),
                "inserted_swaps": result.inserted_swaps,
                "absorbed_swaps": result.absorbed_swaps,
                "mirroring": mirroring,
                "implementation": "fast",
            },
        )
    ]
    routing: Optional[Dict[str, Any]] = None
    if include_baseline:
        # Same repeats as the fast path so the best-of comparison is
        # symmetric — a single noisy baseline run must not flatter speedup.
        reference = ReferenceSabreRouter(coupling_map, mirroring=mirroring)
        ref_best, ref_mean, ref_result = _time(lambda: reference.run(circuit), repeats)
        records.append(
            PerfRecord(
                name=f"route.grid{coupling_map.num_qubits}.random{num_gates}.baseline",
                kind="route",
                repeats=repeats,
                wall_seconds=ref_best,
                mean_seconds=ref_mean,
                gates=len(ref_result.circuit),
                extra={
                    "topology": f"{coupling_map.name}-{coupling_map.num_qubits}",
                    "input_gates": len(circuit),
                    "mirroring": mirroring,
                    "implementation": "reference",
                },
            )
        )
        routing = {
            "num_qubits": coupling_map.num_qubits,
            "num_gates": num_gates,
            "topology": coupling_map.name,
            "baseline_seconds": ref_best,
            "fast_seconds": best,
            "speedup": speedup_ratio(ref_best, best),
            "bit_identical": circuits_bit_identical(result.circuit, ref_result.circuit)
            and result.final_layout == ref_result.final_layout,
        }
    return records, routing


def bench_compile(
    scale: str = "tiny",
    categories: Optional[Sequence[str]] = None,
    compiler: str = "reqisc-eff",
    seed: int = 0,
    repeats: int = 1,
) -> Tuple[List[PerfRecord], Optional[Dict[str, Any]]]:
    """Compile a workload slice end-to-end and report synthesis-cache stats."""
    from repro.experiments.common import build_compilers
    from repro.service.cache import SynthesisCache
    from repro.workloads.suite import benchmark_suite

    cases = benchmark_suite(scale=scale, categories=list(categories or _COMPILE_CATEGORIES))
    cache = SynthesisCache(capacity=4096, directory=None)
    registry = build_compilers([compiler], seed=seed, synthesis_cache=cache)
    engine = registry[compiler]

    def compile_all():
        return [engine.compile(case.circuit) for case in cases]

    best, mean, results = _time(compile_all, repeats)
    input_gates = sum(len(case.circuit) for case in cases)
    record = PerfRecord(
        name=f"compile.{compiler}.{scale}",
        kind="compile",
        repeats=repeats,
        wall_seconds=best,
        mean_seconds=mean,
        gates=input_gates,
        extra={
            "compiler": compiler,
            "scale": scale,
            "benchmarks": [case.name for case in cases],
            "output_2q_gates": sum(r.circuit.count_two_qubit_gates() for r in results),
        },
    )
    return [record], cache.stats.as_dict()


def bench_ir(
    scale: str = "tiny",
    compiler: str = "reqisc-eff",
    seed: int = 0,
    repeats: int = 1,
    categories: Optional[Sequence[str]] = None,
) -> Tuple[List[PerfRecord], Dict[str, Any]]:
    """Shared-IR pipeline vs per-pass circuit marshalling (the PR-4 metric).

    Runs the same pipeline twice over a workload slice routed on per-circuit
    ``xy-line`` targets:

    * **ir** — the normal :class:`~repro.compiler.passes.base.PassManager`
      path, converting between circuit and :class:`~repro.ir.CircuitIR` at
      most once per representation change (two conversions per compile for
      the ReQISC pipelines);
    * **legacy** — ``force_circuit_boundaries=True``, reproducing the
      pre-refactor behaviour of re-marshalling a flat gate list at every
      pass boundary.

    Both paths must be bit-identical; the returned ``ir`` report section
    carries the conversion counts (measured via
    :func:`repro.ir.conversion_stats`), the wall-time comparison and the
    equivalence verdict.  A third record times the raw circuit<->IR
    round-trip on a large random circuit.
    """
    from repro.ir import CircuitIR, conversion_stats, reset_conversion_stats
    from repro.target.pipeline import PASS_REGISTRY, PassContext, named_pipeline
    from repro.target.properties import PropertySet
    from repro.target.target import resolve_target
    from repro.workloads.suite import benchmark_suite

    cases = benchmark_suite(scale=scale, categories=list(categories or _COMPILE_CATEGORIES))
    spec = named_pipeline(compiler)
    input_gates = sum(len(case.circuit) for case in cases)

    def run_all(force_circuit_boundaries: bool) -> List[QuantumCircuit]:
        from repro.compiler.passes.base import PassManager

        compiled: List[QuantumCircuit] = []
        for case in cases:
            target = resolve_target("xy-line", num_qubits=case.circuit.num_qubits)
            context = PassContext(target=target, seed=seed)
            manager = PassManager(force_circuit_boundaries=force_circuit_boundaries)
            for stage in spec.stages:
                if stage.requires_topology and target.coupling_map is None:
                    continue
                manager.append(PASS_REGISTRY.create(stage, context))
            properties = PropertySet()
            properties["isa"] = spec.isa
            compiled.append(manager.run(case.circuit, properties))
        return compiled

    repeats = max(1, repeats)
    run_all(False)  # warm the matrix/KAK pools so neither path pays cold-start
    reset_conversion_stats()
    ir_best, ir_mean, ir_outputs = _time(lambda: run_all(False), repeats)
    ir_stats = conversion_stats()
    reset_conversion_stats()
    legacy_best, legacy_mean, legacy_outputs = _time(lambda: run_all(True), repeats)
    legacy_stats = conversion_stats()
    reset_conversion_stats()

    compiles = len(cases) * repeats
    per_compile = lambda stats: (stats["from_circuit"] + stats["to_circuit"]) / compiles  # noqa: E731
    bit_identical = all(
        circuits_bit_identical(a, b) for a, b in zip(ir_outputs, legacy_outputs)
    )

    records = [
        PerfRecord(
            name=f"ir.pipeline.{compiler}.{scale}",
            kind="ir",
            repeats=repeats,
            wall_seconds=ir_best,
            mean_seconds=ir_mean,
            gates=input_gates,
            extra={
                "compiler": compiler,
                "scale": scale,
                "boundaries": "shared-ir",
                "conversions_per_compile": per_compile(ir_stats),
                "dag_builds_per_compile": ir_stats["dag_builds"] / compiles,
            },
        ),
        PerfRecord(
            name=f"ir.pipeline.{compiler}.{scale}.legacy",
            kind="ir",
            repeats=repeats,
            wall_seconds=legacy_best,
            mean_seconds=legacy_mean,
            gates=input_gates,
            extra={
                "compiler": compiler,
                "scale": scale,
                "boundaries": "per-pass-circuit",
                "conversions_per_compile": per_compile(legacy_stats),
                "dag_builds_per_compile": legacy_stats["dag_builds"] / compiles,
            },
        ),
    ]

    # Raw marshalling micro: one large circuit, circuit -> IR -> circuit.
    roundtrip_circuit = random_two_qubit_circuit(32, 4000, seed=seed)
    best, mean, _ = _time(
        lambda: CircuitIR.from_circuit(roundtrip_circuit).to_circuit(), max(3, repeats)
    )
    reset_conversion_stats()
    records.append(
        PerfRecord(
            name="ir.roundtrip.random32q4000g",
            kind="ir",
            repeats=max(3, repeats),
            wall_seconds=best,
            mean_seconds=mean,
            gates=len(roundtrip_circuit),
            extra={"num_qubits": 32},
        )
    )

    section = {
        "compiler": compiler,
        "scale": scale,
        "cases": len(cases),
        "conversions_per_compile": per_compile(ir_stats),
        "legacy_conversions_per_compile": per_compile(legacy_stats),
        "dag_builds_per_compile": ir_stats["dag_builds"] / compiles,
        "ir_seconds": ir_best,
        "legacy_seconds": legacy_best,
        "speedup": speedup_ratio(legacy_best, ir_best),
        "bit_identical": bit_identical,
    }
    return records, section


def bench_qasm(scale: str = "small", repeats: int = 3) -> Tuple[List[PerfRecord], Dict[str, Any]]:
    """QASM interchange throughput and round-trip identity over the suite.

    Times :func:`repro.qasm.dumps` over every suite circuit at ``scale``
    and :func:`repro.qasm.loads` over the emitted texts (both in
    gates/sec), then checks the load-bearing interchange invariant:
    ``loads(dumps(c))`` must be gate-for-gate identical to ``c`` for every
    program.  The returned section gates CI the same way the routing/IR
    bit-identity checks do.
    """
    from repro.qasm import dumps, loads
    from repro.workloads.suite import benchmark_suite

    cases = benchmark_suite(scale=scale)
    circuits = [case.circuit for case in cases]
    total_gates = sum(len(circuit) for circuit in circuits)

    dump_best, dump_mean, texts = _time(lambda: [dumps(c) for c in circuits], repeats)
    load_best, load_mean, parsed = _time(lambda: [loads(t) for t in texts], repeats)

    mismatches = [
        case.name
        for case, original, back in zip(cases, circuits, parsed)
        if not circuits_bit_identical(original, back)
    ]
    records = [
        PerfRecord(
            name=f"qasm.dump.{scale}",
            kind="qasm",
            repeats=repeats,
            wall_seconds=dump_best,
            mean_seconds=dump_mean,
            gates=total_gates,
            extra={"scale": scale, "cases": len(cases), "direction": "dump"},
        ),
        PerfRecord(
            name=f"qasm.load.{scale}",
            kind="qasm",
            repeats=repeats,
            wall_seconds=load_best,
            mean_seconds=load_mean,
            gates=total_gates,
            extra={"scale": scale, "cases": len(cases), "direction": "load"},
        ),
    ]
    section = {
        "scale": scale,
        "cases": len(cases),
        "gates": total_gates,
        "dump_seconds": dump_best,
        "load_seconds": load_best,
        "dump_gates_per_second": total_gates / dump_best if dump_best > 0 else float("inf"),
        "load_gates_per_second": total_gates / load_best if load_best > 0 else float("inf"),
        "bit_identical": not mismatches,
        "mismatches": mismatches,
    }
    return records, section


def bench_serve(
    scale: str = "tiny",
    compiler: str = "reqisc-eff",
    seed: int = 0,
    clients: int = 4,
    workers: int = 2,
    requests_per_circuit: int = 3,
    offered_rate: float = 50.0,
) -> Tuple[List[PerfRecord], Dict[str, Any]]:
    """Drive a live ``repro serve`` daemon with an open-loop load generator.

    Starts a real :class:`~repro.service.server.CompileServer` on a private
    Unix socket and submits every suite program at ``scale``
    ``requests_per_circuit`` times, round-robin interleaved so identical
    submissions hit the daemon's dedup layers concurrently.  The generator
    is open-loop: request arrival times are fixed up front at
    ``offered_rate`` jobs/sec, and each latency is measured from the
    *scheduled* arrival — when the daemon falls behind the offered load,
    the queueing delay counts against it instead of silently slowing the
    generator down (closed-loop coordination would hide overload).
    Concurrency is bounded by ``clients`` threads, one socket each.

    The returned section carries sustained throughput (completed jobs/sec),
    p50/p99 latency, the daemon's dedup counters, and the bit-identity
    verdict: every compiled program the daemon returned must match a
    sequential in-process ``compile()`` with the same compiler and seed,
    byte for byte.
    """
    import os
    import shutil
    import tempfile
    import threading

    from repro.experiments.common import build_compilers
    from repro.qasm import dumps
    from repro.service.server import CompileServer, ServeClient, ServeConfig
    from repro.workloads.suite import benchmark_suite

    cases = benchmark_suite(scale=scale)
    programs = [(case.name, dumps(case.circuit)) for case in cases]
    schedule = [programs[i % len(programs)] for i in range(len(programs) * requests_per_circuit)]
    input_gates = sum(len(case.circuit) for case in cases) * requests_per_circuit

    tmp = tempfile.mkdtemp(prefix="repro-serve-bench-")
    address = os.path.join(tmp, "bench.sock")
    config = ServeConfig(
        address=address,
        workers=workers,
        max_pending=max(256, len(schedule)),
        job_timeout=120.0,
        cache_dir=None,
    )
    latencies: List[float] = []
    responses: Dict[str, str] = {}
    errors: List[str] = []
    lock = threading.Lock()

    try:
        with CompileServer(config):
            epoch = time.perf_counter() + 0.05
            arrivals = [epoch + index / offered_rate for index in range(len(schedule))]
            cursor = iter(range(len(schedule)))

            def run_client() -> None:
                client = ServeClient(address, timeout=300.0)
                try:
                    while True:
                        with lock:
                            index = next(cursor, None)
                        if index is None:
                            return
                        name, qasm = schedule[index]
                        delay = arrivals[index] - time.perf_counter()
                        if delay > 0:
                            time.sleep(delay)
                        try:
                            response = client.compile(qasm, compiler=compiler, seed=seed)
                        except Exception as exc:  # noqa: BLE001 — report, keep loading
                            with lock:
                                errors.append(f"{name}: {exc}")
                            continue
                        latency = time.perf_counter() - arrivals[index]
                        with lock:
                            latencies.append(latency)
                            responses.setdefault(name, response["qasm"])
                finally:
                    client.close()

            threads = [
                threading.Thread(target=run_client, name=f"serve-load-{i}")
                for i in range(clients)
            ]
            wall_start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - wall_start

            probe = ServeClient(address)
            try:
                snapshot = probe.stats()
            finally:
                probe.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    # Determinism gate: the daemon's output for every program must be byte-
    # identical to a plain sequential compile with the same compiler/seed.
    registry = build_compilers([compiler], seed=seed)
    mismatches: List[str] = []
    for case in cases:
        expected = dumps(registry[compiler].compile(case.circuit).circuit)
        if responses.get(case.name) != expected:
            mismatches.append(case.name)

    completed = len(latencies)
    latency_ms = sorted(1000.0 * value for value in latencies)
    percentile = lambda q: float(np.percentile(latency_ms, q)) if latency_ms else float("nan")  # noqa: E731
    server_stats = snapshot.get("server", {})
    record = PerfRecord(
        name=f"serve.{compiler}.{scale}",
        kind="serve",
        repeats=1,
        wall_seconds=wall,
        mean_seconds=wall,
        gates=input_gates,
        extra={
            "compiler": compiler,
            "scale": scale,
            "requests": len(schedule),
            "completed": completed,
            "clients": clients,
            "workers": workers,
            "throughput_jobs_per_second": completed / wall if wall > 0 else float("inf"),
            "latency_p50_ms": percentile(50),
            "latency_p99_ms": percentile(99),
        },
    )
    section = {
        "scale": scale,
        "compiler": compiler,
        "cases": len(cases),
        "requests": len(schedule),
        "completed": completed,
        "clients": clients,
        "workers": workers,
        "offered_rate_jobs_per_second": offered_rate,
        "throughput_jobs_per_second": completed / wall if wall > 0 else float("inf"),
        "latency_p50_ms": percentile(50),
        "latency_p99_ms": percentile(99),
        "dedup": {
            "compiles_started": server_stats.get("compiles_started", 0),
            "dedup_inflight": server_stats.get("dedup_inflight", 0),
            "dedup_result_cache": server_stats.get("dedup_result_cache", 0),
        },
        "errors": errors,
        "bit_identical": not mismatches and not errors,
        "mismatches": mismatches,
    }
    return [record], section


def bench_chaos(
    scale: str = "tiny",
    compiler: str = "reqisc-eff",
    seed: int = 42,
    faults: int = 50,
    clients: int = 4,
    workers: int = 2,
    requests_per_circuit: int = 3,
    job_timeout: float = 60.0,
) -> Tuple[List[PerfRecord], Dict[str, Any]]:
    """Soak a live daemon under a seeded :class:`~repro.resilience.FaultPlan`.

    A thin perf-harness wrapper over :func:`repro.resilience.run_chaos`:
    ``faults`` faults are spread round-robin across all four injection
    layers (worker crashes/hangs, clock-skewed deadlines, socket
    resets/torn frames/delays, cache bit-flips/truncations), resilient
    clients drive every suite program through the daemon, and a cold
    cache-reopen plus :meth:`~repro.service.cache.SynthesisCache.scrub`
    closes the loop.  The section's ``ok`` is the verdict CI hard-fails
    on: every completed job bit-identical to its fault-free compile, no
    unrecovered job, no hung client.
    """
    from repro.resilience import FaultPlan, run_chaos

    plan = FaultPlan.balanced(seed=seed, faults=faults)
    report = run_chaos(
        plan,
        scale=scale,
        compiler=compiler,
        seed=0,
        clients=clients,
        workers=workers,
        requests_per_circuit=requests_per_circuit,
        job_timeout=job_timeout,
    )
    record = PerfRecord(
        name=f"chaos.{compiler}.{scale}",
        kind="chaos",
        repeats=1,
        wall_seconds=report["wall_seconds"],
        mean_seconds=report["wall_seconds"],
        gates=report["jobs"],
        extra={
            "compiler": compiler,
            "scale": scale,
            "jobs": report["jobs"],
            "completed": report["completed"],
            "faults_scheduled": report["faults_scheduled"],
            "faults_fired_total": report["faults_fired_total"],
            "retries": report["resilience"]["retries"],
            "ok": report["ok"],
        },
    )
    section = {
        "scale": scale,
        "compiler": compiler,
        "jobs": report["jobs"],
        "completed": report["completed"],
        "clients": clients,
        "workers": workers,
        "plan_summary": report["plan_summary"],
        "faults_scheduled": report["faults_scheduled"],
        "faults_fired": report["faults_fired"],
        "faults_fired_total": report["faults_fired_total"],
        "resilience": report["resilience"],
        "scrub": report["scrub"],
        "unrecovered": report["unrecovered"],
        "hung_clients": report["hung_clients"],
        "ok": report["ok"],
        "bit_identical": report["bit_identical"],
        "mismatches": report["mismatches"],
    }
    return [record], section


def bench_synthesize(count: int = 64, seed: int = 7, repeats: int = 3) -> List[PerfRecord]:
    """KAK-decompose a batch of Haar-random SU(4) matrices."""
    from repro.linalg.random import haar_random_su4
    from repro.linalg.weyl import kak_decompose

    rng = np.random.default_rng(seed)
    unitaries = [haar_random_su4(rng) for _ in range(count)]

    def decompose_all():
        return [kak_decompose(u) for u in unitaries]

    best, mean, _ = _time(decompose_all, repeats)
    return [
        PerfRecord(
            name=f"synthesize.kak.su4x{count}",
            kind="synthesize",
            repeats=repeats,
            wall_seconds=best,
            mean_seconds=mean,
            gates=count,
            extra={"unitaries": count},
        )
    ]


def bench_synth_batch(
    count: int = 192,
    seed: int = 13,
    repeats: int = 3,
    apply_qubits: int = 4,
    apply_ops: int = 96,
) -> Tuple[List[PerfRecord], Dict[str, Any]]:
    """The ``synth.batch`` family: batched kernel layer vs one-at-a-time.

    Three measurements over deterministic workloads, each paired with its
    correctness contract:

    * **Batched KAK** — ``count`` SU(4) matrices (with exact-bytes duplicates
      at the rate fused blocks recur in real programs) decomposed by
      :func:`repro.kernels.kak_decompose_batch` vs a scalar
      ``kak_decompose`` loop.  Every coordinate/local-factor/phase must agree
      within 1e-12, and the batch must be *composition independent*: splitting
      the same inputs across two smaller batches must reproduce the full
      batch's results bit for bit (the invariant that lets the finalize and
      consolidation passes batch blocks freely).
    * **Interning** — the collector's exact-bytes dedup counters
      (:func:`repro.kernels.batch_stats`), reported as ``interned_fraction``.
    * **apply_gate_sequence** — the unitary-accumulation kernel vs a
      per-gate ``apply_gate`` fold, which must be bitwise-exact.
    """
    from repro.kernels import batch_stats, kak_decompose_batch, reset_batch_stats
    from repro.linalg.random import haar_random_su4
    from repro.linalg.su2 import u3_matrix
    from repro.linalg.weyl import kak_decompose
    from repro.simulators.statevector import apply_gate, apply_gate_sequence

    rng = np.random.default_rng(seed)
    num_unique = max(1, (3 * count) // 4)
    base = [haar_random_su4(rng) for _ in range(num_unique)]
    unitaries = list(base)
    while len(unitaries) < count:
        unitaries.append(base[len(unitaries) % num_unique])

    scalar_best, scalar_mean, scalar_results = _time(
        lambda: [kak_decompose(u) for u in unitaries], repeats
    )
    reset_batch_stats()
    batch_best, batch_mean, batch_results = _time(
        lambda: kak_decompose_batch(unitaries), repeats
    )
    stats = batch_stats()
    interned_fraction = stats["interned"] / stats["inputs"] if stats["inputs"] else 0.0

    def _max_delta(a, b) -> float:
        return max(
            abs(a.global_phase - b.global_phase),
            abs(a.x - b.x),
            abs(a.y - b.y),
            abs(a.z - b.z),
            float(np.max(np.abs(a.l1 - b.l1))),
            float(np.max(np.abs(a.l2 - b.l2))),
            float(np.max(np.abs(a.r1 - b.r1))),
            float(np.max(np.abs(a.r2 - b.r2))),
        )

    def _bit_identical(a, b) -> bool:
        return (
            a.global_phase == b.global_phase
            and (a.x, a.y, a.z) == (b.x, b.y, b.z)
            and np.array_equal(a.l1, b.l1)
            and np.array_equal(a.l2, b.l2)
            and np.array_equal(a.r1, b.r1)
            and np.array_equal(a.r2, b.r2)
        )

    kak_tolerance = 1e-12
    kak_max_delta = max(
        _max_delta(a, b) for a, b in zip(scalar_results, batch_results)
    )
    half = len(unitaries) // 2
    split_results = kak_decompose_batch(unitaries[:half]) + kak_decompose_batch(
        unitaries[half:]
    )
    composition_independent = all(
        _bit_identical(a, b) for a, b in zip(batch_results, split_results)
    )

    # The unitary-accumulation kernel on the hierarchical/approximate shape.
    operations: List[Tuple[np.ndarray, Tuple[int, ...]]] = []
    for index in range(apply_ops):
        if index % 3 == 0:
            theta, phi, lam = rng.uniform(0.0, 2.0 * np.pi, 3)
            operations.append(
                (u3_matrix(float(theta), float(phi), float(lam)),
                 (int(rng.integers(apply_qubits)),))
            )
        else:
            a, b = rng.choice(apply_qubits, size=2, replace=False)
            operations.append((haar_random_su4(rng), (int(a), int(b))))
    dim = 2**apply_qubits

    def apply_loop() -> np.ndarray:
        state = np.eye(dim, dtype=complex)
        for matrix, qubits in operations:
            state = apply_gate(state, matrix, qubits, apply_qubits)
        return state

    loop_best, loop_mean, loop_result = _time(apply_loop, repeats)
    seq_best, seq_mean, seq_result = _time(
        lambda: apply_gate_sequence(np.eye(dim, dtype=complex), operations, apply_qubits),
        repeats,
    )
    apply_exact = bool(np.array_equal(loop_result, seq_result))

    mismatches: List[str] = []
    if kak_max_delta > kak_tolerance:
        mismatches.append(f"kak: scalar-vs-batch delta {kak_max_delta:.3e} > {kak_tolerance}")
    if not composition_independent:
        mismatches.append("kak: batch results depend on batch composition")
    if not apply_exact:
        mismatches.append("apply_gate_sequence: not bitwise-identical to the per-gate fold")

    records = [
        PerfRecord(
            name=f"synth.batch.kak.su4x{count}",
            kind="synth_batch",
            repeats=repeats,
            wall_seconds=batch_best,
            mean_seconds=batch_mean,
            gates=count,
            extra={
                "implementation": "batched",
                "unique": stats["unique"] // max(1, stats["batches"]),
                "interned_fraction": interned_fraction,
            },
        ),
        PerfRecord(
            name=f"synth.batch.kak.su4x{count}.scalar",
            kind="synth_batch",
            repeats=repeats,
            wall_seconds=scalar_best,
            mean_seconds=scalar_mean,
            gates=count,
            extra={"implementation": "one-at-a-time"},
        ),
        PerfRecord(
            name=f"synth.batch.apply.seq.{apply_qubits}q{apply_ops}ops",
            kind="synth_batch",
            repeats=repeats,
            wall_seconds=seq_best,
            mean_seconds=seq_mean,
            gates=apply_ops,
            extra={"implementation": "sequence-kernel", "num_qubits": apply_qubits},
        ),
        PerfRecord(
            name=f"synth.batch.apply.loop.{apply_qubits}q{apply_ops}ops",
            kind="synth_batch",
            repeats=repeats,
            wall_seconds=loop_best,
            mean_seconds=loop_mean,
            gates=apply_ops,
            extra={"implementation": "per-gate-loop", "num_qubits": apply_qubits},
        ),
    ]
    section = {
        "count": count,
        "unique": stats["unique"] // max(1, stats["batches"]),
        "interned": stats["interned"] // max(1, stats["batches"]),
        "interned_fraction": interned_fraction,
        "scalar_seconds": scalar_best,
        "batch_seconds": batch_best,
        "speedup": speedup_ratio(scalar_best, batch_best),
        "kak_max_delta": kak_max_delta,
        "kak_tolerance": kak_tolerance,
        "apply_loop_seconds": loop_best,
        "apply_seq_seconds": seq_best,
        "apply_speedup": speedup_ratio(loop_best, seq_best),
        "composition_independent": composition_independent,
        "bit_identical": not mismatches,
        "mismatches": mismatches,
    }
    return records, section


def bench_simulate(num_qubits: int = 10, seed: int = 11, repeats: int = 3) -> List[PerfRecord]:
    """Statevector-simulate a QFT plus a random layer (matrix-cache hot)."""
    from repro.workloads.algorithms import qft_circuit

    circuit = qft_circuit(num_qubits)
    extra_layer = random_two_qubit_circuit(num_qubits, 4 * num_qubits, seed=seed)
    circuit.compose(extra_layer)

    best, mean, _ = _time(circuit.statevector, repeats)
    return [
        PerfRecord(
            name=f"simulate.statevector.qft{num_qubits}",
            kind="simulate",
            repeats=repeats,
            wall_seconds=best,
            mean_seconds=mean,
            gates=len(circuit),
            extra={"num_qubits": num_qubits},
        )
    ]


def bench_fidelity(
    scale: str = "tiny",
    seed: int = 0,
    repeats: int = 1,
) -> Tuple[List[PerfRecord], Dict[str, Any]]:
    """Noise-aware (portfolio) vs distance-only routing over the suite.

    Every suite program is lowered to the CNOT ISA and routed on the three
    calibrated presets (``xy-line-cal`` / ``xy-grid-cal`` / ``heavy-hex-cal``,
    seeded heterogeneous devices) two ways: distance-only, and the
    :func:`~repro.compiler.routing.noise.compare_routing_strategies`
    portfolio.  The section reports per-row estimated fidelities and the
    improvement ratio — which is >= 1 by construction, so ``regressions``
    being non-empty is a hard harness bug, and CI gates on it.

    The section's ``bit_identical`` verdict is the exact-uniform-reduction
    property: re-routing every row with a *uniform* calibration must
    reproduce the distance-only output bit for bit (see
    ``docs/noise.md``).
    """
    from repro.circuits.depgraph import DependencyGraph
    from repro.compiler.routing.noise import build_noise_model, compare_routing_strategies
    from repro.compiler.routing.sabre import SabreRouter
    from repro.experiments.common import reference_cnot_circuit
    from repro.microarch.calibration import CalibrationData
    from repro.target.target import resolve_target
    from repro.workloads.suite import benchmark_suite

    presets = ("xy-line-cal", "xy-grid-cal", "heavy-hex-cal")
    cases = benchmark_suite(scale=scale)
    prepared = []
    for case in cases:
        lowered = reference_cnot_circuit(case.circuit)
        graph = DependencyGraph.from_circuit(lowered)
        for preset in presets:
            target = resolve_target(preset, lowered.num_qubits)
            target.coupling_map.distance_matrix()  # shared arrays, off the clock
            target.calibration.routing_model(target.coupling_map)
            prepared.append((case, preset, target, graph, lowered))

    def route_distance_all():
        return [
            SabreRouter(target.coupling_map, mirroring=True, seed=seed).run_graph(
                graph, name=case.name
            )
            for case, _, target, graph, _ in prepared
        ]

    def route_portfolio_all():
        return [
            compare_routing_strategies(graph, target, seed=seed, name=case.name)
            for case, _, target, graph, _ in prepared
        ]

    distance_best, distance_mean, distance_results = _time(route_distance_all, repeats)
    portfolio_best, portfolio_mean, comparisons = _time(route_portfolio_all, repeats)

    rows: List[Dict[str, Any]] = []
    regressions: List[str] = []
    mismatches: List[str] = []
    wins = ties = 0
    log_improvements: List[float] = []
    for (case, preset, target, graph, lowered), comparison in zip(prepared, comparisons):
        key = f"{case.name}@{preset}"
        improvement = comparison.improvement
        if improvement > 1.0:
            wins += 1
        elif improvement == 1.0:
            ties += 1
        else:
            regressions.append(key)
        log_improvements.append(
            max(comparison.noise_log_fidelity, comparison.distance_log_fidelity)
            - comparison.distance_log_fidelity
        )
        rows.append(
            {
                "benchmark": case.name,
                "preset": preset,
                "qubits": target.coupling_map.num_qubits,
                "input_gates": len(lowered),
                "distance_log_fidelity": comparison.distance_log_fidelity,
                "noise_log_fidelity": comparison.noise_log_fidelity,
                "distance_fidelity": float(np.exp(comparison.distance_log_fidelity)),
                "noise_fidelity": float(np.exp(comparison.noise_log_fidelity)),
                "improvement": improvement,
                "strategy": comparison.strategy,
                "distance_swaps": comparison.distance_result.inserted_swaps,
                "noise_swaps": comparison.noise_result.inserted_swaps,
            }
        )
        # Exact uniform reduction: a flat calibration must route bit-
        # identically to the distance-only router (same seed, same params).
        uniform_model = build_noise_model(
            target.coupling_map, CalibrationData.uniform(target.coupling_map)
        )
        uniform_result = SabreRouter(
            target.coupling_map, noise_model=uniform_model, mirroring=True, seed=seed
        ).run_graph(graph, name=case.name)
        baseline = comparison.distance_result
        if not (
            circuits_bit_identical(uniform_result.circuit, baseline.circuit)
            and uniform_result.final_layout == baseline.final_layout
            and uniform_result.inserted_swaps == baseline.inserted_swaps
            and uniform_result.absorbed_swaps == baseline.absorbed_swaps
        ):
            mismatches.append(key)

    records = [
        PerfRecord(
            name=f"fidelity.route.distance.{scale}",
            kind="fidelity",
            repeats=repeats,
            wall_seconds=distance_best,
            mean_seconds=distance_mean,
            gates=sum(len(result.circuit) for result in distance_results),
            extra={"scale": scale, "presets": list(presets), "cases": len(cases)},
        ),
        PerfRecord(
            name=f"fidelity.route.portfolio.{scale}",
            kind="fidelity",
            repeats=repeats,
            wall_seconds=portfolio_best,
            mean_seconds=portfolio_mean,
            gates=sum(len(c.chosen.circuit) for c in comparisons),
            extra={"scale": scale, "presets": list(presets), "cases": len(cases)},
        ),
    ]
    section = {
        "scale": scale,
        "presets": list(presets),
        "cases": len(cases),
        "rows": rows,
        "wins": wins,
        "ties": ties,
        "regressions": regressions,
        "min_improvement": float(np.exp(min(log_improvements))) if log_improvements else 1.0,
        "geomean_improvement": float(np.exp(np.mean(log_improvements)))
        if log_improvements
        else 1.0,
        "distance_seconds": distance_best,
        "portfolio_seconds": portfolio_best,
        "bit_identical": not mismatches,
        "mismatches": mismatches,
    }
    return records, section


def routing_equivalence(scale: str = "tiny", mirroring: bool = True) -> Dict[str, Any]:
    """Fast-path vs reference routing over the full workload suite.

    Each suite program is lowered to the CNOT ISA (1Q/2Q gates only) and
    routed on its near-square grid with both implementations; any gate-level
    difference is reported.
    """
    from repro.compiler.routing.coupling_map import CouplingMap
    from repro.compiler.routing.sabre import SabreRouter
    from repro.compiler.routing.sabre_reference import ReferenceSabreRouter
    from repro.experiments.common import reference_cnot_circuit
    from repro.workloads.suite import benchmark_suite

    mismatches: List[str] = []
    cases = benchmark_suite(scale=scale)
    for case in cases:
        lowered = reference_cnot_circuit(case.circuit)
        coupling_map = CouplingMap.grid_for(lowered.num_qubits)
        fast = SabreRouter(coupling_map, mirroring=mirroring).run(lowered)
        reference = ReferenceSabreRouter(coupling_map, mirroring=mirroring).run(lowered)
        if not (
            circuits_bit_identical(fast.circuit, reference.circuit)
            and fast.final_layout == reference.final_layout
            and fast.inserted_swaps == reference.inserted_swaps
            and fast.absorbed_swaps == reference.absorbed_swaps
        ):
            mismatches.append(case.name)
    return {
        "scale": scale,
        "cases": len(cases),
        "bit_identical": not mismatches,
        "mismatches": mismatches,
    }


# ---------------------------------------------------------------------------
# Full harness.
# ---------------------------------------------------------------------------


def run_perf(
    quick: bool = False,
    seed: int = 42,
    repeats: Optional[int] = None,
    kinds: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """Run the microbenchmark suite and return the schema-stable report.

    ``quick`` trims repeats and workload scale for CI smoke runs; the
    acceptance-scale routing benchmark (>=64 qubits, >=2000 gates, anchored
    baseline) runs in both modes.  ``kinds`` restricts to a subset of
    ``{"compile", "route", "ir", "qasm", "serve", "chaos",
    "synthesize", "synth_batch", "simulate", "fidelity"}``.
    """
    from repro.gates.gate import matrix_cache_stats, reset_matrix_cache_stats
    from repro.kernels import backend_info

    all_kinds = {
        "compile", "route", "ir", "qasm", "serve", "chaos",
        "synthesize", "synth_batch", "simulate", "fidelity",
    }
    selected = set(kinds) if kinds else set(all_kinds)
    unknown = selected - all_kinds
    if unknown:
        raise ValueError(f"unknown benchmark kinds: {sorted(unknown)}")
    repeats = repeats if repeats is not None else (1 if quick else 3)
    reset_matrix_cache_stats()

    records: List[PerfRecord] = []
    routing: Optional[Dict[str, Any]] = None
    synthesis_cache: Optional[Dict[str, Any]] = None
    equivalence: Optional[Dict[str, Any]] = None
    ir_section: Optional[Dict[str, Any]] = None
    qasm_section: Optional[Dict[str, Any]] = None
    serve_section: Optional[Dict[str, Any]] = None
    chaos_section: Optional[Dict[str, Any]] = None
    synth_batch_section: Optional[Dict[str, Any]] = None
    fidelity_section: Optional[Dict[str, Any]] = None

    if "route" in selected:
        route_records, routing = bench_route(
            num_qubits=64, num_gates=2000, seed=seed, repeats=repeats
        )
        records.extend(route_records)
        equivalence = routing_equivalence(scale="tiny" if quick else "small")
    if "compile" in selected:
        compile_records, synthesis_cache = bench_compile(
            scale="tiny", seed=seed, repeats=repeats if quick else max(2, repeats)
        )
        records.extend(compile_records)
    if "ir" in selected:
        # Best-of-5 in full mode: the marshalling delta is only a few
        # percent of a compile, so the minimum needs more samples to settle.
        ir_records, ir_section = bench_ir(
            scale="tiny", seed=seed, repeats=1 if quick else max(5, repeats)
        )
        records.extend(ir_records)
    if "qasm" in selected:
        # Quick mode parses the tiny suite; full mode uses medium so the
        # throughput numbers come from thousands of gates, not dozens.
        qasm_records, qasm_section = bench_qasm(
            scale="tiny" if quick else "medium", repeats=repeats
        )
        records.extend(qasm_records)
    if "serve" in selected:
        # Quick mode keeps the load run under a couple of seconds; full mode
        # offers more repeats per circuit so the dedup layers carry real load.
        serve_records, serve_section = bench_serve(
            scale="tiny" if quick else "small",
            seed=0,
            clients=4 if quick else 6,
            requests_per_circuit=2 if quick else 4,
            offered_rate=40.0 if quick else 60.0,
        )
        records.extend(serve_records)
    if "chaos" in selected:
        # Quick mode keeps the soak to a handful of faults over one pass of
        # the tiny suite; full mode schedules the acceptance-scale 50-fault
        # plan.  Both modes gate on the same ok/bit-identity verdict.
        chaos_records, chaos_section = bench_chaos(
            scale="tiny",
            seed=seed,
            faults=10 if quick else 50,
            requests_per_circuit=1 if quick else 3,
        )
        records.extend(chaos_records)
    if "synthesize" in selected:
        records.extend(bench_synthesize(count=16 if quick else 64, repeats=repeats))
    if "synth_batch" in selected:
        # The acceptance workload is the full-mode one (>=3x batched-KAK
        # throughput); quick mode shrinks the stack but keeps every
        # correctness contract (1e-12 agreement, composition independence,
        # bitwise apply_gate_sequence) at full strength.
        synth_batch_records, synth_batch_section = bench_synth_batch(
            count=48 if quick else 192, seed=13, repeats=repeats
        )
        records.extend(synth_batch_records)
    if "simulate" in selected:
        records.extend(bench_simulate(num_qubits=8 if quick else 10, repeats=repeats))
    if "fidelity" in selected:
        # The improvement >= 1 guarantee and the exact-uniform-reduction
        # bit-identity check hold at full strength in both modes; quick mode
        # only trims the suite scale and repeats (CI smoke).
        fidelity_records, fidelity_section = bench_fidelity(
            scale="tiny" if quick else "small",
            seed=0,
            repeats=1 if quick else 2,
        )
        records.extend(fidelity_records)

    return {
        "schema": SCHEMA_VERSION,
        "created_unix": time.time(),
        "quick": quick,
        "seed": seed,
        "host": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "benchmarks": [record.as_dict() for record in records],
        "routing": routing,
        "equivalence": equivalence,
        "ir": ir_section,
        "qasm": qasm_section,
        "serve": serve_section,
        "chaos": chaos_section,
        "synth_batch": synth_batch_section,
        "fidelity": fidelity_section,
        "kernels": backend_info(),
        "cache": {
            "synthesis": synthesis_cache,
            "gate_matrix": matrix_cache_stats(),
        },
    }


def write_report(report: Dict[str, Any], path: str) -> None:
    """Write a report as pretty-printed JSON (``BENCH_*.json`` convention)."""
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
