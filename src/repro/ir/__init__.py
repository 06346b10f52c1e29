"""The mutable compiler IR shared by every pass of the pipeline.

:class:`CircuitIR` is the canonical in-flight representation of a program
inside the compiler: a mutable, linked program order of instructions with
transactional rewrite primitives, O(1) metric views and a cached
:class:`repro.circuits.depgraph.DependencyGraph` for the router.  Every pass's
``run(ir, properties)`` mutates the *same* ``CircuitIR`` object, so a
pipeline threads one shared structure end-to-end instead of marshalling a
flat gate list at every pass boundary.

:func:`conversion_stats` exposes the marshalling counters (``from_circuit`` /
``to_circuit`` / ``dag_builds``) that the benchmark reports as
``ir.conversions``; every compile performs exactly two circuit<->IR
conversions (one in, one out).
"""

from repro.ir.circuit_ir import (
    CircuitIR,
    conversion_stats,
    reset_conversion_stats,
)

__all__ = [
    "CircuitIR",
    "conversion_stats",
    "reset_conversion_stats",
]
