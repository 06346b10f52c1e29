"""Circuit representation: instructions, circuits, dependency graphs, metrics."""

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.instruction import Instruction
from repro.circuits.depgraph import DependencyGraph
from repro.circuits.metrics import (
    circuit_duration,
    count_distinct_two_qubit_gates,
    count_two_qubit_gates,
    two_qubit_depth,
)

__all__ = [
    "QuantumCircuit",
    "Instruction",
    "DependencyGraph",
    "circuit_duration",
    "count_distinct_two_qubit_gates",
    "count_two_qubit_gates",
    "two_qubit_depth",
]
