"""Incremental recompilation: content-addressed pass memoization.

The subsystem behind ``compile(..., previous=result)`` edit-recompile loops
and the daemon's ``--session`` mode:

* :mod:`repro.incremental.fingerprint` — deterministic, renumbering-
  insensitive, cross-process-stable fingerprints for gates, instructions,
  IR regions, whole programs and targets;
* :mod:`repro.incremental.store` — :class:`PassMemoStore`, the namespaced
  memo store (memory LRU + the concurrency-safe on-disk segment store) that
  :class:`~repro.compiler.passes.base.PassManager` consults for whole-pass
  rewrites and memo-aware passes consult per region.

See ``docs/incremental.md`` for the fingerprinting model and the
memo-safety contract passes must honor.
"""

from repro.incremental.fingerprint import (
    gate_content,
    gate_region_key,
    instruction_content,
    program_fingerprint,
    region_fingerprint,
    target_fingerprint,
)
from repro.incremental.store import MISS, MemoStats, PassMemoStore, memoized_batch

__all__ = [
    "MISS",
    "MemoStats",
    "PassMemoStore",
    "gate_content",
    "gate_region_key",
    "instruction_content",
    "memoized_batch",
    "program_fingerprint",
    "region_fingerprint",
    "target_fingerprint",
]
