"""Tests for the workload generators and the benchmark suite."""

import numpy as np
import pytest

from repro.circuits.metrics import count_two_qubit_gates
from repro.compiler.passes.decompose import decompose_to_cnot
from repro.simulators.statevector import probabilities, simulate_statevector
from repro.workloads import (
    alu_circuit,
    benchmark_suite,
    bit_adder,
    comparator,
    encoding_circuit,
    grover_circuit,
    hamiltonian_simulation,
    hidden_weighted_bit,
    modulo_adder,
    multiplier,
    qaoa_maxcut,
    qft_circuit,
    random_reversible,
    ripple_carry_adder,
    square_circuit,
    suite_categories,
    symmetric_function,
    toffoli_chain,
    uccsd_like,
)

ALL_GENERATORS = [
    lambda: alu_circuit(5),
    lambda: bit_adder(2),
    lambda: comparator(2),
    lambda: encoding_circuit(5),
    lambda: grover_circuit(3),
    lambda: hamiltonian_simulation(4, steps=1),
    lambda: hidden_weighted_bit(4),
    lambda: modulo_adder(2),
    lambda: multiplier(2),
    lambda: qaoa_maxcut(4, layers=1),
    lambda: qft_circuit(4),
    lambda: random_reversible(5, num_gates=12),
    lambda: ripple_carry_adder(2),
    lambda: square_circuit(2),
    lambda: symmetric_function(5),
    lambda: toffoli_chain(4),
    lambda: uccsd_like(4, num_excitations=2),
]


@pytest.mark.parametrize("generator", ALL_GENERATORS)
def test_generators_produce_nonempty_circuits(generator):
    circuit = generator()
    assert len(circuit) > 0
    assert circuit.num_qubits >= 2
    # Every generated circuit must be lowerable to the CNOT ISA.
    lowered = decompose_to_cnot(circuit)
    assert count_two_qubit_gates(lowered) > 0


def test_qft_structure():
    circuit = qft_circuit(4)
    counts = circuit.count_by_name()
    assert counts["h"] == 4
    assert counts["cp"] == 6
    with_swaps = qft_circuit(4, include_swaps=True)
    assert with_swaps.count_by_name().get("swap", 0) == 2


def test_ripple_carry_adder_adds_correctly():
    # 2-bit adder: a=2 (10), b=1 (01) -> b must become 3 (11), carry_out = 0.
    circuit = ripple_carry_adder(2)
    num = circuit.num_qubits
    state = np.zeros(2**num, dtype=complex)
    # Layout [carry_in, b0, a0, b1, a1, carry_out]; a=2 -> a1=1, b=1 -> b0=1.
    bits = {1: 1, 4: 1}
    index = sum(bit << (num - 1 - q) for q, bit in bits.items())
    state[index] = 1.0
    result = probabilities(simulate_statevector(circuit, initial_state=state))
    outcome = int(np.argmax(result))
    out_bits = [(outcome >> (num - 1 - q)) & 1 for q in range(num)]
    # Sum = 3: b registers (b0, b1) = (1, 1); a unchanged; no carry out.
    assert out_bits[1] == 1 and out_bits[3] == 1
    assert out_bits[2] == 0 and out_bits[4] == 1
    assert out_bits[5] == 0


def test_toffoli_chain_is_reversible_identity_on_zero():
    circuit = toffoli_chain(5)
    state = probabilities(circuit.statevector())
    assert state[0] == pytest.approx(1.0)


def test_grover_amplifies_marked_state():
    circuit = grover_circuit(3, iterations=1, marked=0b101)
    dist = probabilities(circuit.statevector())
    # With ancillas beyond the data register the marked index is on qubits 0-2.
    data_dist = dist.reshape(8, -1).sum(axis=1)
    assert int(np.argmax(data_dist)) == 0b101
    assert data_dist[0b101] > 0.5


def test_qaoa_and_pf_use_rotation_gates():
    qaoa = qaoa_maxcut(4, layers=1, seed=1)
    assert "rzz" in qaoa.count_by_name()
    pf = hamiltonian_simulation(4, steps=1, model="heisenberg")
    names = pf.count_by_name()
    assert {"rxx", "ryy", "rzz"} <= set(names)


@pytest.mark.parametrize("num_qubits, degree", [(1, 3), (3, 1), (5, 1)])
def test_qaoa_maxcut_builds_degree_zero_graphs(num_qubits, degree):
    # The clamped degree reaches 0: no edges, only the H and RX layers.
    circuit = qaoa_maxcut(num_qubits=num_qubits, degree=degree, layers=2)
    assert circuit.num_qubits == num_qubits
    assert circuit.count_by_name() == {"h": num_qubits, "rx": 2 * num_qubits}


def test_uccsd_structure():
    circuit = uccsd_like(4, num_excitations=2, seed=2)
    names = circuit.count_by_name()
    assert names.get("cx", 0) >= 6
    assert names.get("rz", 0) >= 2


def test_benchmark_suite_contains_all_categories():
    cases = benchmark_suite(scale="tiny")
    categories = {case.category for case in cases}
    assert categories == set(suite_categories())
    assert len(suite_categories()) == 17


def test_benchmark_suite_scales_monotonically():
    tiny = {c.category: c.circuit.count_two_qubit_gates() + len(c.circuit) for c in benchmark_suite("tiny")}
    medium = {c.category: c.circuit.count_two_qubit_gates() + len(c.circuit) for c in benchmark_suite("medium")}
    larger = sum(1 for cat in tiny if medium[cat] >= tiny[cat])
    assert larger >= len(tiny) - 2


def test_benchmark_suite_filters():
    cases = benchmark_suite(scale="small", categories=["qft", "tof"])
    assert {case.category for case in cases} == {"qft", "tof"}
    small = benchmark_suite(scale="small", max_qubits=5)
    assert all(case.num_qubits <= 5 for case in small)
    with pytest.raises(ValueError):
        benchmark_suite(scale="huge")
    with pytest.raises(KeyError):
        benchmark_suite(categories=["nope"])


def test_variational_flags():
    cases = {case.category: case for case in benchmark_suite("tiny")}
    assert cases["qaoa"].is_variational
    assert not cases["qft"].is_variational
