"""Tests for circuits, dependency graphs, metrics and the QASM round trip."""

import math

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.depgraph import DependencyGraph
from repro.circuits.instruction import Instruction
from repro.circuits.metrics import (
    BASELINE_CNOT_DURATION,
    circuit_duration,
    cnot_isa_duration_model,
    compute_metrics,
    count_distinct_two_qubit_gates,
    count_two_qubit_gates,
    two_qubit_depth,
)
from repro.gates import standard
from repro.qasm import dumps, loads
from repro.linalg.predicates import allclose_up_to_global_phase
from repro.linalg.random import haar_random_unitary

from circuit_helpers import topological_layers


def bell_circuit():
    circuit = QuantumCircuit(2, "bell")
    circuit.h(0).cx(0, 1)
    return circuit


def test_circuit_construction_and_len():
    circuit = bell_circuit()
    assert len(circuit) == 2
    assert circuit.num_qubits == 2
    assert circuit.count_by_name() == {"h": 1, "cx": 1}


def test_append_validates_qubits():
    circuit = QuantumCircuit(2)
    with pytest.raises(ValueError):
        circuit.cx(0, 5)
    with pytest.raises(ValueError):
        QuantumCircuit(0)


def test_instruction_validation():
    with pytest.raises(ValueError):
        Instruction(standard.cx_gate(), (1, 1))
    with pytest.raises(ValueError):
        Instruction(standard.cx_gate(), (1,))


def test_bell_statevector():
    state = bell_circuit().statevector()
    expected = np.zeros(4, dtype=complex)
    expected[0] = expected[3] = 1 / math.sqrt(2)
    assert np.allclose(state, expected)


def test_ghz_statevector():
    circuit = QuantumCircuit(3)
    circuit.h(0).cx(0, 1).cx(1, 2)
    state = circuit.statevector()
    expected = np.zeros(8, dtype=complex)
    expected[0] = expected[7] = 1 / math.sqrt(2)
    assert np.allclose(state, expected)


def test_unitary_matches_kron_for_parallel_gates():
    circuit = QuantumCircuit(2)
    circuit.h(0).x(1)
    expected = np.kron(standard.h_gate().matrix, standard.x_gate().matrix)
    assert np.allclose(circuit.to_unitary(), expected)


def test_unitary_gate_order():
    circuit = QuantumCircuit(1)
    circuit.h(0).t(0)
    expected = standard.t_gate().matrix @ standard.h_gate().matrix
    assert np.allclose(circuit.to_unitary(), expected)


def test_cx_orientation_in_circuit():
    circuit = QuantumCircuit(2)
    circuit.cx(1, 0)  # control is qubit 1 (least significant bit)
    unitary = circuit.to_unitary()
    # |01> (index 1) -> |11> (index 3)
    assert np.allclose(unitary[:, 1], np.eye(4)[3])
    assert np.allclose(unitary[:, 2], np.eye(4)[2])


def test_compose_and_remap():
    inner = bell_circuit()
    outer = QuantumCircuit(3)
    outer.compose(inner, qubits=[2, 0])
    assert outer[0].qubits == (2,)
    assert outer[1].qubits == (2, 0)
    remapped = outer.remap_qubits({0: 1, 1: 0, 2: 2})
    assert remapped[1].qubits == (2, 1)


def test_inverse_circuit():
    circuit = QuantumCircuit(2)
    circuit.h(0).cx(0, 1).rz(0.3, 1)
    identity = circuit.copy()
    identity.compose(circuit.inverse())
    assert allclose_up_to_global_phase(identity.to_unitary(), np.eye(4))


def test_depth_and_two_qubit_metrics():
    circuit = QuantumCircuit(3)
    circuit.h(0).cx(0, 1).cx(1, 2).cx(0, 1).t(2)
    assert circuit.depth() == 4
    assert count_two_qubit_gates(circuit) == 3
    assert two_qubit_depth(circuit) == 3
    assert circuit.max_gate_arity() == 2
    assert circuit.used_qubits() == (0, 1, 2)


def test_duration_critical_path():
    circuit = QuantumCircuit(3)
    circuit.cx(0, 1).cx(1, 2).cx(0, 1)
    duration = circuit_duration(circuit)
    assert duration == pytest.approx(3 * BASELINE_CNOT_DURATION)
    parallel = QuantumCircuit(4)
    parallel.cx(0, 1).cx(2, 3)
    assert circuit_duration(parallel) == pytest.approx(BASELINE_CNOT_DURATION)


def test_distinct_two_qubit_gate_count():
    circuit = QuantumCircuit(3)
    circuit.cx(0, 1).cx(1, 2).can(0.3, 0.2, 0.1, 0, 1).can(0.3, 0.2, 0.1, 1, 2)
    circuit.can(0.4, 0.2, 0.0, 0, 2)
    assert count_distinct_two_qubit_gates(circuit) == 3
    # A fused unitary locally equivalent to CNOT counts as the CNOT class
    # only if keyed identically; here it adds a distinct entry keyed by Weyl
    # coordinates, so the count rises by at most one.
    circuit.unitary(standard.cx_gate().matrix, [0, 1], label="su4")
    assert count_distinct_two_qubit_gates(circuit) in (3, 4)


def test_compute_metrics_bundle():
    metrics = compute_metrics(bell_circuit())
    assert metrics.num_2q == 1
    assert metrics.depth_2q == 1
    assert metrics.duration == pytest.approx(BASELINE_CNOT_DURATION)
    assert "num_2q" in metrics.as_dict()


def _mixed_circuit(seed, with_three_qubit):
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(5)
    for _ in range(80):
        roll = rng.random()
        q = [int(x) for x in rng.choice(5, size=3, replace=False)]
        if roll < 0.3:
            circuit.u3(*(float(a) for a in rng.uniform(0, 6.28, 3)), q[0])
        elif roll < 0.5:
            circuit.cx(q[0], q[1])
        elif roll < 0.65:
            circuit.can(*(float(a) for a in rng.uniform(0, 0.7, 3)), q[0], q[1])
        elif roll < 0.8:
            circuit.unitary(haar_random_unitary(4, rng), [q[0], q[1]], label="su4")
        elif roll < 0.9 or not with_three_qubit:
            circuit.rzz(float(rng.uniform(0, 6.28)), q[0], q[1])
        else:
            circuit.ccx(*q)
    return circuit


@pytest.mark.parametrize("seed", range(4))
def test_compute_metrics_are_the_separate_metrics(seed):
    from repro.target.target import Target

    models = [
        (cnot_isa_duration_model(one_qubit_duration=0.1), True),
        (Target.default().duration_model("su4"), False),  # 1Q/2Q gates only
    ]
    for model, with_three_qubit in models:
        circuit = _mixed_circuit(seed, with_three_qubit)
        expected = (
            count_two_qubit_gates(circuit),
            two_qubit_depth(circuit),
            circuit.depth(),
            count_distinct_two_qubit_gates(circuit),
            circuit_duration(circuit, model),
        )
        got = compute_metrics(circuit, model)
        assert (got.num_2q, got.depth_2q, got.depth, got.distinct_2q, got.duration) == expected
        assert compute_metrics(circuit, model, include_distinct=False).distinct_2q == 0
    empty = compute_metrics(QuantumCircuit(2), model)
    assert (empty.num_2q, empty.depth_2q, empty.depth, empty.distinct_2q, empty.duration) == (0, 0, 0, 0, 0.0)


def test_dag_roundtrip_preserves_unitary():
    circuit = QuantumCircuit(3)
    circuit.h(0).cx(0, 1).rz(0.4, 1).cx(1, 2).h(2).cx(0, 2)
    rebuilt = DependencyGraph.from_circuit(circuit).to_circuit()
    assert np.allclose(circuit.to_unitary(), rebuilt.to_unitary())
    assert len(rebuilt) == len(circuit)


def test_dag_front_layer():
    circuit = QuantumCircuit(4)
    circuit.cx(0, 1).cx(2, 3).cx(1, 2)
    front = DependencyGraph.from_circuit(circuit).front_layer()
    assert set(front) == {0, 1}


def test_layers_partition():
    circuit = QuantumCircuit(4)
    circuit.cx(0, 1).cx(2, 3).cx(1, 2).h(0)
    graph = DependencyGraph.from_circuit(circuit)
    layering = [[graph.instructions[node] for node in layer] for layer in topological_layers(graph)]
    assert len(layering) == 2
    assert len(layering[0]) == 2
    names = sorted(instr.gate.name for instr in layering[1])
    assert names == ["cx", "h"]


def test_qasm_roundtrip():
    circuit = QuantumCircuit(3)
    circuit.h(0).cx(0, 1).rz(0.25, 1).ccx(0, 1, 2).can(0.3, 0.2, -0.1, 1, 2)
    circuit.u3(0.1, 0.2, 0.3, 0)
    text = dumps(circuit)
    assert "OPENQASM 2.0" in text
    parsed = loads(text)
    assert parsed.num_qubits == 3
    assert np.allclose(parsed.to_unitary(), circuit.to_unitary(), atol=1e-9)


def test_qasm_parser_handles_pi_expressions():
    text = """
    OPENQASM 2.0;
    include "qelib1.inc";
    qreg q[2];
    rz(pi/2) q[0];
    cx q[0],q[1];
    rx(-pi/4) q[1];
    """
    circuit = loads(text)
    assert len(circuit) == 3
    assert circuit[0].gate.params[0] == pytest.approx(math.pi / 2)


def test_qasm_unitary_blocks_roundtrip_bit_exact():
    # Fused unitary blocks ride a `// repro.unitary` matrix pragma and come
    # back bit-identical (same label, exact matrix bytes).
    circuit = QuantumCircuit(2)
    circuit.unitary(haar_random_unitary(4, 5), [0, 1], label="su4")
    text = dumps(circuit)
    assert "repro.unitary" in text
    parsed = loads(text)
    assert parsed.instructions == circuit.instructions


def test_qasm_rejects_unknown_gate():
    with pytest.raises(ValueError):
        loads("qreg q[1];\nfoo q[0];")
