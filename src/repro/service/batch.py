"""Parallel batch compilation with deterministic seeding.

The :class:`BatchCompiler` accepts a list of circuits (or a whole workload
suite) and fans compilation out across worker processes via
:mod:`concurrent.futures`, mirroring the decoupled submit/collect structure of
the paper's evaluation harness:

* **Deterministic seeding** — job ``i`` always compiles with seed
  ``base_seed + i`` through :func:`repro.target.api.compile` with
  ``spec=compiler``, so the output of a parallel batch is bit-identical to
  compiling the same circuits sequentially with ``compile()`` (and
  independent of worker count or scheduling order).
* **Ordered collection** — results come back in submission order regardless
  of which worker finished first.
* **Cache mediation** — each worker process owns a
  :class:`~repro.service.cache.SynthesisCache`; when the batch cache has a
  disk tier, workers share synthesis results through it.  Exact-byte cache
  keys guarantee that cache hits never change compiled output.

Usage::

    from repro.service.batch import BatchCompiler

    engine = BatchCompiler(compiler="reqisc-eff", workers=4,
                           cache=SynthesisCache(directory=".repro-cache"))
    batch = engine.compile_suite(scale="small", categories=["qft", "tof"])
    for row in batch.summaries():
        print(row)
    print(batch.cache_stats.as_dict())
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.compiler.result import CompilationResult
from repro.service.cache import CacheStats, SynthesisCache

__all__ = ["BatchCompiler", "BatchItem", "BatchResult", "CompileJob"]


@dataclass(frozen=True)
class CompileJob:
    """One unit of batch work: a named circuit plus its pipeline name.

    ``target`` is a :class:`~repro.target.target.Target`, a preset name
    (resolved per circuit at compile time) or ``None`` for the default
    device; it must be picklable since jobs cross process boundaries.
    Jobs submitted as QASM paths carry ``qasm_path`` instead of a circuit;
    the file is loaded worker-side so a broken corpus file becomes that
    item's error rather than aborting the whole batch.
    """

    index: int
    name: str
    circuit: Optional[QuantumCircuit]
    compiler: str
    seed: int
    target: Optional[Any] = None
    qasm_path: Optional[str] = None


@dataclass
class BatchItem:
    """Outcome of one job: a result or a captured error, plus cache counters."""

    index: int
    name: str
    compiler: str
    seed: int
    result: Optional[CompilationResult] = None
    error: Optional[str] = None
    cache_stats: CacheStats = field(default_factory=CacheStats)

    @property
    def ok(self) -> bool:
        """True when compilation succeeded."""
        return self.result is not None


@dataclass
class BatchResult:
    """Ordered batch outcome plus aggregate statistics."""

    items: List[BatchItem]
    workers: int
    elapsed_seconds: float
    cache_stats: CacheStats = field(default_factory=CacheStats)

    @property
    def results(self) -> List[Optional[CompilationResult]]:
        """Per-job compilation results, in submission order (``None`` on error)."""
        return [item.result for item in self.items]

    @property
    def errors(self) -> List[Tuple[str, str]]:
        """``(name, message)`` pairs of the jobs that failed."""
        return [(item.name, item.error) for item in self.items if item.error]

    def summaries(self) -> List[Dict[str, Any]]:
        """One flat row per successful job (``CompilationResult.summary()``
        extended with the job identity), ready for JSON/CSV serialization."""
        rows: List[Dict[str, Any]] = []
        for item in self.items:
            if item.result is None:
                continue
            row: Dict[str, Any] = {
                "benchmark": item.name,
                "num_qubits": item.result.circuit.num_qubits,
            }
            row.update(item.result.summary())
            rows.append(row)
        return rows


# ---------------------------------------------------------------------------
# Worker-side machinery.  ``_WORKER_CACHE`` is one cache per worker process,
# created by the pool initializer; with a disk-backed spec every worker reads
# and writes the same content-addressed store.
# ---------------------------------------------------------------------------

_WORKER_CACHE: Optional[SynthesisCache] = None


def _init_worker(cache_spec: Optional[Tuple[Optional[int], Optional[str]]]) -> None:
    """Pool initializer: build this worker's synthesis cache from its spec."""
    global _WORKER_CACHE
    if cache_spec is None:
        _WORKER_CACHE = None
    else:
        capacity, directory = cache_spec
        _WORKER_CACHE = SynthesisCache(capacity=capacity, directory=directory)


def _compile_job(job: CompileJob, cache: Optional[SynthesisCache]) -> BatchItem:
    """Compile one job through ``compile(spec=job.compiler)``; never raises."""
    from repro.target.api import compile as target_compile

    before = cache.stats.snapshot() if cache is not None else CacheStats()
    item = BatchItem(index=job.index, name=job.name, compiler=job.compiler, seed=job.seed)
    try:
        circuit = job.circuit
        if circuit is None:
            from repro.qasm import load

            circuit = load(job.qasm_path)
        item.result = target_compile(
            circuit,
            target=job.target,
            spec=job.compiler,
            seed=job.seed,
            synthesis_cache=cache,
        )
    except Exception as exc:  # noqa: BLE001 — batch items report, not crash
        item.error = f"{type(exc).__name__}: {exc}"
    if cache is not None:
        item.cache_stats = cache.stats.delta_since(before)
    return item


def _compile_job_pooled(job: CompileJob) -> BatchItem:
    """Top-level (picklable) entry point executed inside pool workers."""
    return _compile_job(job, _WORKER_CACHE)


class BatchCompiler:
    """Fan a list of circuits out across worker processes.

    Parameters
    ----------
    compiler:
        A registered pipeline name (``reqisc-full``, ``reqisc-eff``,
        ``qiskit-like``, ...; see :func:`repro.target.pipeline.pipeline_names`).
    workers:
        Number of worker processes; ``1`` (default) compiles sequentially
        in-process.  Output is identical either way.
    seed:
        Base seed; job ``i`` compiles with ``seed + i``.
    cache:
        Optional :class:`~repro.service.cache.SynthesisCache`.  Sequential
        runs use it directly; parallel workers build their own cache with the
        same capacity/directory spec (a disk directory makes it shared).
    target:
        Device to compile for: a :class:`~repro.target.target.Target`, a
        preset name such as ``"xy-line"`` (sized per circuit), or ``None``
        for the default logical device.
    """

    def __init__(
        self,
        compiler: str = "reqisc-full",
        workers: int = 1,
        seed: int = 0,
        cache: Optional[SynthesisCache] = None,
        target: Optional[Any] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.compiler = compiler
        self.workers = workers
        self.seed = seed
        self.cache = cache
        self.target = target

    # ------------------------------------------------------------------
    def compile_all(self, circuits: Iterable[Any]) -> BatchResult:
        """Compile every entry of ``circuits`` and collect ordered results.

        Entries may be :class:`QuantumCircuit` objects, ``(name, circuit)``
        pairs, paths to OpenQASM 2.0 files (``str``/``os.PathLike``, loaded
        via :func:`repro.qasm.load` and named after the file stem), or any
        object with ``.circuit`` (and optionally ``.name``) attributes — in
        particular :class:`~repro.workloads.suite.BenchmarkCase`.  A circuit
        submitted as QASM compiles bit-identically to the same circuit
        submitted in memory: the importer reconstructs the exact gate list
        and the synthesis cache keys on exact matrix bytes either way.
        """
        jobs = self._normalize(circuits)
        start = time.perf_counter()
        if self.workers == 1 or len(jobs) <= 1:
            items = [_compile_job(job, self.cache) for job in jobs]
        else:
            cache_spec = None
            if self.cache is not None:
                cache_spec = (self.cache.capacity, self.cache.directory)
            with ProcessPoolExecutor(
                max_workers=min(self.workers, len(jobs)),
                initializer=_init_worker,
                initargs=(cache_spec,),
            ) as pool:
                # ``map`` yields in submission order: ordered collection.
                items = list(pool.map(_compile_job_pooled, jobs))
        elapsed = time.perf_counter() - start

        aggregate = CacheStats()
        for item in items:
            aggregate.merge(item.cache_stats)
        return BatchResult(
            items=items, workers=self.workers, elapsed_seconds=elapsed, cache_stats=aggregate
        )

    def compile_suite(
        self,
        scale: str = "small",
        categories: Optional[Sequence[str]] = None,
        max_qubits: Optional[int] = None,
    ) -> BatchResult:
        """Compile a :func:`~repro.workloads.suite.benchmark_suite` selection."""
        from repro.workloads.suite import benchmark_suite

        cases = benchmark_suite(scale=scale, categories=categories, max_qubits=max_qubits)
        return self.compile_all(cases)

    # ------------------------------------------------------------------
    def _normalize(self, circuits: Iterable[Any]) -> List[CompileJob]:
        jobs: List[CompileJob] = []
        import os

        for index, entry in enumerate(circuits):
            qasm_path = None
            if isinstance(entry, QuantumCircuit):
                name, circuit = entry.name, entry
            elif isinstance(entry, (str, os.PathLike)):
                # Loaded worker-side (see CompileJob) so one broken corpus
                # file fails its own item, not the batch.
                qasm_path = os.fspath(entry)
                circuit = None
                name = os.path.splitext(os.path.basename(qasm_path))[0] or qasm_path
            elif hasattr(entry, "circuit"):
                circuit = entry.circuit
                name = getattr(entry, "name", circuit.name)
            else:
                name, circuit = entry
            jobs.append(
                CompileJob(
                    index=index,
                    name=str(name),
                    circuit=circuit,
                    compiler=self.compiler,
                    seed=self.seed + index,
                    target=self.target,
                    qasm_path=qasm_path,
                )
            )
        return jobs
