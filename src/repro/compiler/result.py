"""Compilation results: the compiled circuit plus evaluation metadata.

:class:`CompilationResult` is produced by :func:`repro.target.api.compile`.
All of the paper's headline metrics — #2Q, Depth2Q, the distinct-gate
calibration proxy, the genAshN pulse duration and the inserted-SWAP routing
overhead — are derived here, costed against the
:class:`~repro.target.target.Target` the circuit was compiled for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.metrics import (
    circuit_duration,
    compute_metrics,
    count_distinct_two_qubit_gates,
    count_two_qubit_gates,
    two_qubit_depth,
)
from repro.compiler.passes.base import PassRecord

__all__ = ["CompilationResult"]


@dataclass
class CompilationResult:
    """Compiled circuit plus the metadata needed by the evaluation harness."""

    circuit: QuantumCircuit
    compiler_name: str
    compile_seconds: float
    properties: Mapping[str, Any] = field(default_factory=dict)
    pass_records: List[PassRecord] = field(default_factory=list)
    #: The device the circuit was compiled for; ``None`` falls back to the
    #: cached default XY target when costing durations.
    target: Optional[Any] = None
    #: Circuit<->IR marshalling counters accumulated during this compile
    #: (delta of :func:`repro.ir.conversion_stats` around the pipeline run).
    conversions: Dict[str, int] = field(default_factory=dict)

    # -- metrics -----------------------------------------------------------
    @property
    def num_two_qubit_gates(self) -> int:
        """#2Q of the compiled circuit."""
        return count_two_qubit_gates(self.circuit)

    @property
    def two_qubit_depth(self) -> int:
        """Depth2Q of the compiled circuit."""
        return two_qubit_depth(self.circuit)

    @property
    def depth(self) -> int:
        """Full circuit depth (all gates, not just two-qubit ones)."""
        return self.circuit.depth()

    @property
    def distinct_two_qubit_gates(self) -> int:
        """Number of distinct 2Q gates (calibration overhead proxy)."""
        return count_distinct_two_qubit_gates(self.circuit)

    def duration(self, target: Optional["Target"] = None) -> float:
        """Pulse duration of the compiled circuit.

        SU(4)-ISA results are costed with the genAshN duration model;
        CNOT-ISA results (compilers that stamp ``properties["isa"] = "cnot"``)
        with the conventional CNOT pulse, matching the paper's Table 2
        convention.

        ``target`` may be a :class:`~repro.target.target.Target` or ``None``
        (use the result's own target, falling back to the cached default XY
        device).  The per-gate duration model is memoized on the target, so
        repeated calls — e.g. ``summary()`` over a whole suite — reuse one
        model instead of rebuilding it per circuit.
        """
        return circuit_duration(self.circuit, self._duration_model(target))

    def _duration_model(self, target: Optional["Target"] = None):
        from repro.target.target import Target

        resolved = target or self.target or Target.default()
        isa = "cnot" if self.properties.get("isa") == "cnot" else "su4"
        return resolved.duration_model(isa)

    @property
    def final_permutation(self) -> List[int]:
        """Output wire of every logical qubit, after mirroring and routing.

        Logical qubit ``q`` of the input is carried by output wire
        ``final_layout[mirror_permutation[q]]``.  Each map is first completed
        to the output width: the wires it does not name are appended in
        ascending order (on a widened program they hold ``|0>`` ancillas).
        A missing map is the identity.  So, up to a global phase,
        ``U_out = permutation_unitary(final_permutation) @ U_in``, with the
        input padded by ``|0>`` ancillas to the output width.
        """
        width = self.circuit.num_qubits

        def completed(name: str) -> List[int]:
            values = [int(v) for v in self.properties.get(name) or []]
            return values + sorted(set(range(width)) - set(values))

        mirror, final = completed("mirror_permutation"), completed("final_layout")
        return [final[mirror[q]] for q in range(width)]

    @property
    def routing_overhead(self) -> Optional[int]:
        """Inserted (non-absorbed) SWAPs, when routing ran."""
        return self.properties.get("inserted_swaps")

    def summary(self) -> Dict[str, Any]:
        """Flat dictionary used by the experiment harness and the CLI.

        Carries the paper's headline metrics: #2Q, Depth2Q, the distinct-gate
        calibration proxy, the genAshN pulse duration, (when routing ran) the
        inserted-SWAP overhead, and the name of the target device.
        """
        metrics = compute_metrics(self.circuit, self._duration_model())
        return {
            "compiler": self.compiler_name,
            "target": self.target.name if self.target is not None else None,
            "num_2q": metrics.num_2q,
            "depth_2q": metrics.depth_2q,
            "depth": metrics.depth,
            "distinct_2q": metrics.distinct_2q,
            "duration": metrics.duration,
            "routing_overhead": self.routing_overhead,
            "compile_seconds": self.compile_seconds,
            "conversions": sum(self.conversions.values()) if self.conversions else 0,
        }
