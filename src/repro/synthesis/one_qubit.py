"""Exact single-qubit synthesis into the ``U3`` gate."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.gates import standard
from repro.gates.gate import Gate
from repro.linalg.su2 import u3_params_from_matrix

__all__ = ["u3_from_matrix", "one_qubit_circuit"]


def u3_from_matrix(matrix: np.ndarray) -> Tuple[float, Gate]:
    """Synthesize a 2x2 unitary into a single ``U3`` gate.

    Returns ``(global_phase, gate)`` with
    ``matrix = exp(i global_phase) * gate.matrix``.
    """
    phase, theta, phi, lam = u3_params_from_matrix(np.asarray(matrix, dtype=complex))
    return phase, standard.u3_gate(theta, phi, lam)


def one_qubit_circuit(matrix: np.ndarray, qubit: int, num_qubits: int) -> QuantumCircuit:
    """Wrap a single-qubit unitary as a one-gate circuit on ``qubit``."""
    _, gate = u3_from_matrix(matrix)
    circuit = QuantumCircuit(num_qubits)
    circuit.append(gate, [qubit])
    return circuit
