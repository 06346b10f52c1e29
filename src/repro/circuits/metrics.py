"""Circuit metrics used throughout the evaluation.

The paper reports four circuit-level metrics (Section 6.1.1):

* ``#2Q`` — number of two-qubit gates,
* ``Depth2Q`` — depth of the circuit counting only two-qubit gates,
* pulse duration — critical-path duration under a per-gate duration model,
* program fidelity — computed by the noisy simulator (see
  :mod:`repro.simulators.noise`).

Durations are expressed in units of the inverse coupling strength ``1/g``;
the baseline CNOT duration on XY-coupled hardware is ``pi / sqrt(2) / g``
(Section 6.1, Table 1 caption).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.instruction import Instruction
from repro.gates.gate import Gate, UnitaryGate

__all__ = [
    "BASELINE_CNOT_DURATION",
    "circuit_duration",
    "cnot_isa_duration_model",
    "count_distinct_two_qubit_gates",
    "count_two_qubit_gates",
    "two_qubit_depth",
    "CircuitMetrics",
    "compute_metrics",
]

#: Duration of a conventionally implemented CNOT on XY-coupled transmons, in
#: units of 1/g (Krantz et al.; used as the baseline throughout the paper).
BASELINE_CNOT_DURATION = math.pi / math.sqrt(2.0)


def count_two_qubit_gates(circuit: QuantumCircuit) -> int:
    """The paper's #2Q metric."""
    return circuit.count_two_qubit_gates()


def two_qubit_depth(circuit: QuantumCircuit) -> int:
    """The paper's Depth2Q metric."""
    return circuit.depth(only_two_qubit=True)


def count_distinct_two_qubit_gates(
    circuit: QuantumCircuit, decimals: int = 6
) -> int:
    """Number of *distinct* two-qubit gates, up to parameter rounding.

    This is the calibration-overhead proxy of Section 6.5: each distinct 2Q
    gate must be separately calibrated on hardware.  Gates are identified by
    name and rounded parameters; fused ``UnitaryGate`` blocks are identified
    by their (rounded) canonical Weyl coordinates so that locally equivalent
    blocks count once.
    """
    return len({_distinct_key(i.gate, decimals) for i in circuit if i.is_two_qubit})


def _distinct_key(gate: Gate, decimals: int = 6) -> Tuple:
    """Identity of a 2Q gate for :func:`count_distinct_two_qubit_gates`."""
    if isinstance(gate, UnitaryGate):
        from repro.linalg.weyl import weyl_coordinates

        return ("weyl", tuple([round(c, decimals) for c in weyl_coordinates(gate.matrix)]))
    if gate.name == "can":
        return ("weyl", tuple([round(c, decimals) for c in gate.params]))
    return (gate.name, tuple([round(p, decimals) for p in gate.params]))


def cnot_isa_duration_model(
    cnot_duration: float = BASELINE_CNOT_DURATION,
    one_qubit_duration: float = 0.0,
) -> Callable[[Instruction], float]:
    """Duration model for CNOT-ISA circuits.

    Every two-qubit gate costs one conventional CNOT duration; single-qubit
    gates are free by default (they are an order of magnitude faster and the
    paper's duration metric only tracks 2Q pulses).
    """

    def model(instruction: Instruction) -> float:
        if instruction.num_qubits >= 2:
            return cnot_duration
        return one_qubit_duration

    return model


def circuit_duration(
    circuit: QuantumCircuit,
    duration_fn: Optional[Callable[[Instruction], float]] = None,
) -> float:
    """Critical-path pulse duration of ``circuit``.

    ``duration_fn`` maps an instruction to its duration; when omitted the
    CNOT-ISA baseline model is used.
    """
    if duration_fn is None:
        duration_fn = cnot_isa_duration_model()
    return circuit.duration(duration_fn)


class CircuitMetrics:
    """Bundle of the paper's circuit-level metrics for one circuit."""

    __slots__ = ("num_qubits", "num_2q", "depth_2q", "depth", "duration", "distinct_2q")

    def __init__(
        self,
        num_qubits: int,
        num_2q: int,
        depth_2q: int,
        depth: int,
        duration: float,
        distinct_2q: int,
    ) -> None:
        self.num_qubits = num_qubits
        self.num_2q = num_2q
        self.depth_2q = depth_2q
        self.depth = depth
        self.duration = duration
        self.distinct_2q = distinct_2q

    def as_dict(self) -> Dict[str, float]:
        """Dictionary view (used by the experiment harness for CSV rows)."""
        return {
            "num_qubits": self.num_qubits,
            "num_2q": self.num_2q,
            "depth_2q": self.depth_2q,
            "depth": self.depth,
            "duration": self.duration,
            "distinct_2q": self.distinct_2q,
        }

    def __repr__(self) -> str:
        return (
            f"CircuitMetrics(#2Q={self.num_2q}, Depth2Q={self.depth_2q}, "
            f"T={self.duration:.2f}, distinct={self.distinct_2q})"
        )


def compute_metrics(
    circuit: QuantumCircuit,
    duration_fn: Optional[Callable[[Instruction], float]] = None,
    include_distinct: bool = True,
) -> CircuitMetrics:
    """Compute the full metric bundle for ``circuit`` in one walk.

    Each value is the one :func:`count_two_qubit_gates`,
    :func:`two_qubit_depth`, ``circuit.depth()``,
    :func:`count_distinct_two_qubit_gates` and :func:`circuit_duration`
    return, computed with the same arithmetic in the same order.
    """
    if duration_fn is None:
        duration_fn = cnot_isa_duration_model()
    width = circuit.num_qubits
    depth, depth_2q, clock = [0] * width, [0] * width, [0.0] * width
    num_2q, distinct = 0, set()
    for instruction in circuit.instructions:
        qubits = instruction.qubits
        spent = float(duration_fn(instruction))
        if len(qubits) == 1:
            (q,) = qubits
            depth[q] += 1
            clock[q] = clock[q] + spent
            continue
        level = max([depth[q] for q in qubits]) + 1
        level_2q = max([depth_2q[q] for q in qubits]) + 1
        finish = max([clock[q] for q in qubits]) + spent
        for q in qubits:
            depth[q], depth_2q[q], clock[q] = level, level_2q, finish
        if len(qubits) == 2:
            num_2q += 1
            if include_distinct:
                distinct.add(_distinct_key(instruction.gate))
    return CircuitMetrics(
        num_qubits=width,
        num_2q=num_2q,
        depth_2q=max(depth_2q, default=0),
        depth=max(depth, default=0),
        duration=max(clock, default=0.0),
        distinct_2q=len(distinct),
    )
