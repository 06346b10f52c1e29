"""Multi-controlled-X decomposition into Toffoli (CCX) gates.

Programs of the "quantum versions of digital logic" type (Section 5.2.1) are
expressed with ``MCX`` subroutines.  The compiler first lowers them to CCX
gates (the 3-qubit IR granularity used by template-based synthesis) using the
standard Barenco et al. v-chain construction, which needs ``k - 2`` ancilla
qubits for ``k`` controls.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.circuits.circuit import QuantumCircuit

__all__ = ["decompose_mcx", "expand_mcx_gates", "required_ancillas"]


def required_ancillas(num_controls: int) -> int:
    """Ancilla qubits needed by the v-chain decomposition."""
    return max(0, num_controls - 2)


def decompose_mcx(
    controls: Sequence[int],
    target: int,
    ancillas: Sequence[int],
    num_qubits: int,
) -> QuantumCircuit:
    """Decompose a multi-controlled X into CX/CCX gates.

    Uses the v-chain: partial products of the controls are accumulated into
    the ancillas with CCX gates, the final CCX hits the target, and the
    ancilla computations are uncomputed in reverse order.

    The ancillas must be *clean* (in state ``|0>``) when the gate executes;
    they are returned to ``|0>`` afterwards.  Workload generators allocate
    dedicated ancilla lines for MCX-based programs, mirroring the garbage
    lines of RevLib-style reversible benchmarks.
    """
    controls = list(controls)
    ancillas = list(ancillas)
    circuit = QuantumCircuit(num_qubits, "mcx")
    k = len(controls)
    if k == 0:
        circuit.x(target)
        return circuit
    if k == 1:
        circuit.cx(controls[0], target)
        return circuit
    if k == 2:
        circuit.ccx(controls[0], controls[1], target)
        return circuit
    needed = required_ancillas(k)
    if len(ancillas) < needed:
        raise ValueError(
            f"mcx with {k} controls needs {needed} ancilla qubits, got {len(ancillas)}"
        )
    # Compute chain: anc[0] = c0 AND c1; anc[i] = anc[i-1] AND c_{i+1}.
    compute: List[Tuple[int, int, int]] = []
    compute.append((controls[0], controls[1], ancillas[0]))
    for i in range(2, k - 1):
        compute.append((ancillas[i - 2], controls[i], ancillas[i - 1]))
    for a, b, t in compute:
        circuit.ccx(a, b, t)
    circuit.ccx(ancillas[k - 3], controls[k - 1], target)
    for a, b, t in reversed(compute):
        circuit.ccx(a, b, t)
    return circuit


def expand_mcx_gates(
    circuit: QuantumCircuit, ancillas: Optional[Sequence[int]] = None
) -> QuantumCircuit:
    """Replace every ``mcx`` instruction in ``circuit`` with its CCX expansion.

    ``ancillas`` designates the *clean* scratch qubits; when omitted, any
    circuit qubit not touched by the particular ``mcx`` instruction is used.
    The caller is responsible for those qubits being in ``|0>`` whenever the
    ``mcx`` executes (the workload generators guarantee this by reserving
    dedicated ancilla lines).  ``circuit`` may also be a
    :class:`~repro.ir.CircuitIR`; the result is always a new circuit.
    """
    expanded = QuantumCircuit(circuit.num_qubits, circuit.name)
    for instruction in circuit:
        if instruction.gate.name != "mcx":
            expanded.append(instruction.gate, instruction.qubits)
            continue
        *controls, target = instruction.qubits
        if ancillas is not None:
            free = [q for q in ancillas if q not in instruction.qubits]
        else:
            free = [q for q in range(circuit.num_qubits) if q not in instruction.qubits]
        sub = decompose_mcx(controls, target, free, circuit.num_qubits)
        expanded.extend(sub.instructions)
    return expanded
