"""Lowering passes: high-level gates to CCX-level IR and to the CNOT ISA.

``lower_high_level_gates`` expands MCX subroutines into CCX gates (the 3-qubit
IR granularity of the program-aware pass).  ``decompose_to_cnot`` lowers a
circuit all the way to ``{CX, 1Q}`` — the representation consumed by the
CNOT-based baselines and used to characterize the benchmark suite (Table 1).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Union

from repro.circuits.circuit import QuantumCircuit
from repro.compiler.passes.base import CompilerPass
from repro.ir import CircuitIR
from repro.synthesis.mcx import expand_mcx_gates

__all__ = ["lower_high_level_gates", "decompose_to_cnot", "DecomposeToCnotPass"]


def lower_high_level_gates(
    circuit: Union[QuantumCircuit, CircuitIR], ancillas: Optional[Sequence[int]] = None
) -> QuantumCircuit:
    """Expand MCX gates into CCX gates (CCX-level IR for type-1 programs)."""
    return expand_mcx_gates(circuit, ancillas=ancillas)


def _append_ccx_cnot(circuit: QuantumCircuit, a: int, b: int, t: int) -> None:
    """Standard six-CNOT Toffoli decomposition."""
    circuit.h(t)
    circuit.cx(b, t)
    circuit.tdg(t)
    circuit.cx(a, t)
    circuit.t(t)
    circuit.cx(b, t)
    circuit.tdg(t)
    circuit.cx(a, t)
    circuit.t(b)
    circuit.t(t)
    circuit.h(t)
    circuit.cx(a, b)
    circuit.t(a)
    circuit.tdg(b)
    circuit.cx(a, b)


def decompose_to_cnot(circuit: Union[QuantumCircuit, CircuitIR]) -> QuantumCircuit:
    """Lower a circuit to the conventional ``{CX, 1Q}`` ISA.

    Multi-controlled gates are expanded first; every remaining non-CX
    two-qubit gate (including fused SU(4) blocks) is re-synthesized with the
    minimal number of CNOTs.
    """
    from repro.synthesis.two_qubit import two_qubit_to_cnot_circuit

    lowered = lower_high_level_gates(circuit)
    result = QuantumCircuit(lowered.num_qubits, circuit.name)
    for instruction in lowered:
        gate = instruction.gate
        qubits = instruction.qubits
        if gate.num_qubits == 1 or gate.name == "cx":
            result.append(gate, qubits)
            continue
        if gate.name == "ccx":
            _append_ccx_cnot(result, *qubits)
            continue
        if gate.name == "ccz":
            result.h(qubits[2])
            _append_ccx_cnot(result, *qubits)
            result.h(qubits[2])
            continue
        if gate.name == "cswap":
            control, ta, tb = qubits
            result.cx(tb, ta)
            _append_ccx_cnot(result, control, ta, tb)
            result.cx(tb, ta)
            continue
        if gate.num_qubits == 2:
            synthesized = two_qubit_to_cnot_circuit(gate.matrix, qubits=(0, 1))
            result.compose(synthesized, qubits=list(qubits))
            continue
        raise ValueError(
            f"cannot lower gate {gate.name!r} acting on {gate.num_qubits} qubits to the CNOT ISA"
        )
    return result


class DecomposeToCnotPass(CompilerPass):
    """Pass wrapper around :func:`decompose_to_cnot`."""

    name = "decompose_to_cnot"

    def run(self, ir: CircuitIR, properties: Dict[str, Any]) -> None:
        ir.rewrite(decompose_to_cnot(ir).instructions)
