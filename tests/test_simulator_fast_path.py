"""Equivalence tests for the permutation-cached simulator hot path."""

import numpy as np
import pytest

from repro.simulators.statevector import apply_gate, simulate_statevector
from repro.simulators.unitary import circuit_unitary, permutation_unitary
from repro.workloads.algorithms import qft_circuit

from circuit_helpers import random_two_qubit_circuit


def _reference_apply_gate(state, matrix, qubits, num_qubits):
    """The historical moveaxis-based contraction, inline as the oracle."""
    qubits = list(qubits)
    k = len(qubits)
    total_dim = 2**num_qubits
    batch = state.size // total_dim
    tensor = np.reshape(state, [2] * num_qubits + ([batch] if batch > 1 else []))
    tensor = np.moveaxis(tensor, qubits, range(k))
    shape = tensor.shape
    tensor = np.reshape(tensor, (2**k, -1))
    tensor = matrix @ tensor
    tensor = np.reshape(tensor, shape)
    tensor = np.moveaxis(tensor, range(k), qubits)
    return np.reshape(tensor, state.shape)


@pytest.mark.parametrize("seed", range(5))
def test_simulator_matches_reference_contraction(seed):
    rng = np.random.default_rng(seed)
    num_qubits = 5
    circuit = random_two_qubit_circuit(num_qubits, 40, seed=seed)
    state = rng.standard_normal(2**num_qubits) + 1j * rng.standard_normal(2**num_qubits)
    state /= np.linalg.norm(state)

    fast = state.copy()
    reference = state.copy()
    for instruction in circuit:
        matrix = instruction.gate.matrix
        fast = apply_gate(fast, matrix, instruction.qubits, num_qubits)
        reference = _reference_apply_gate(reference, matrix, instruction.qubits, num_qubits)
    np.testing.assert_allclose(fast, reference, atol=1e-12, rtol=0.0)


def test_statevector_simulation_unitarity_and_equivalence():
    circuit = qft_circuit(6)
    state = simulate_statevector(circuit)
    assert abs(np.linalg.norm(state) - 1.0) < 1e-12
    unitary = circuit_unitary(circuit)
    zero = np.zeros(2**6, dtype=complex)
    zero[0] = 1.0
    np.testing.assert_allclose(state, unitary @ zero, atol=1e-12)


def test_unitary_batch_path_matches_per_column_application():
    circuit = random_two_qubit_circuit(4, 25, seed=2)
    unitary = circuit_unitary(circuit)
    dim = 2**4
    columns = np.empty((dim, dim), dtype=complex)
    for basis in range(dim):
        state = np.zeros(dim, dtype=complex)
        state[basis] = 1.0
        columns[:, basis] = simulate_statevector(circuit, initial_state=state)
    np.testing.assert_allclose(unitary, columns, atol=1e-12)


def test_permutation_unitary_matches_bit_shuffle_reference():
    rng = np.random.default_rng(0)
    for num_qubits in (1, 2, 3, 4):
        permutation = list(rng.permutation(num_qubits))
        dim = 2**num_qubits
        expected = np.zeros((dim, dim))
        for basis in range(dim):
            bits = [(basis >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits)]
            new_bits = [0] * num_qubits
            for logical, wire in enumerate(permutation):
                new_bits[wire] = bits[logical]
            target = sum(bit << (num_qubits - 1 - q) for q, bit in enumerate(new_bits))
            expected[target, basis] = 1.0
        np.testing.assert_array_equal(permutation_unitary(permutation), expected)


def test_apply_gate_rejects_mismatched_matrix():
    state = np.zeros(4, dtype=complex)
    state[0] = 1.0
    with pytest.raises(ValueError):
        apply_gate(state, np.eye(4, dtype=complex), [0], 2)
