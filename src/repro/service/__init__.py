"""Batch compilation service layer.

This package turns the one-circuit-at-a-time :func:`repro.target.api.compile`
into a throughput-oriented engine, following the decoupled request/completion
structure of the paper's evaluation harness:

* :mod:`repro.service.cache` — a content-addressed :class:`SynthesisCache`
  (in-memory LRU + optional on-disk store) that memoizes KAK decompositions,
  template realizations and approximate-synthesis results across circuits,
  suites and processes.
* :mod:`repro.service.batch` — a :class:`BatchCompiler` that fans a list of
  circuits (or a whole workload suite) out across worker processes with
  deterministic per-job seeds and ordered result collection.
* :mod:`repro.service.protocol` — the NDJSON wire protocol of the
  ``repro serve`` daemon (framing, validation, error codes, addresses).
* :mod:`repro.service.pool` — a persistent sharded :class:`WorkerPool`
  whose processes survive across jobs, with per-job deadlines and
  crash containment (a poisoned job fails alone; its worker respawns).
* :mod:`repro.service.server` — the :class:`CompileServer` daemon behind
  ``repro serve`` (socket intake, content-hash request dedup,
  bounded-queue backpressure) and its :class:`ServeClient`.
* :mod:`repro.service.cli` — the ``python -m repro`` command line
  (``compile`` / ``bench`` / ``suite`` / ``serve`` / ``submit``) that runs
  workloads through the registered compilers and emits summary rows as
  text, JSON or CSV.

Sub-modules are re-exported lazily so that low-level modules (for example the
KAK cache hook in :mod:`repro.linalg.weyl`) can import
``repro.service.cache`` without pulling the compiler stack into scope.
"""

from repro._lazy import lazy_exports

_LAZY_EXPORTS = {
    "SynthesisCache": "repro.service.cache:SynthesisCache",
    "CacheStats": "repro.service.cache:CacheStats",
    "unitary_fingerprint": "repro.service.cache:unitary_fingerprint",
    "circuit_fingerprint": "repro.service.cache:circuit_fingerprint",
    "BatchCompiler": "repro.service.batch:BatchCompiler",
    "BatchItem": "repro.service.batch:BatchItem",
    "BatchResult": "repro.service.batch:BatchResult",
    "CompileServer": "repro.service.server:CompileServer",
    "ServeClient": "repro.service.server:ServeClient",
    "ServeConfig": "repro.service.server:ServeConfig",
    "ServeError": "repro.service.server:ServeError",
    "ServeStats": "repro.service.server:ServeStats",
    "WorkerPool": "repro.service.pool:WorkerPool",
    "PoolJob": "repro.service.pool:PoolJob",
    "JobOutcome": "repro.service.pool:JobOutcome",
    "ProtocolError": "repro.service.protocol:ProtocolError",
    "main": "repro.service.cli:main",
}

__all__ = sorted(_LAZY_EXPORTS)

__getattr__, __dir__ = lazy_exports("repro.service", _LAZY_EXPORTS, globals())
