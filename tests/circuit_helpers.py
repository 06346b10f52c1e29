"""Shared test helpers: a seeded random circuit, gate-for-gate equality and a
one-pass runner for flat circuits.

Test modules import these directly (``from circuit_helpers import ...``);
pytest puts ``tests/`` on ``sys.path`` because the directory is not a package.
"""

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.ir import CircuitIR


def random_two_qubit_circuit(
    num_qubits: int,
    num_gates: int,
    seed: int = 0,
    one_qubit_fraction: float = 0.3,
) -> QuantumCircuit:
    """Deterministic random U3/CX circuit (the routing stress workload).

    The RNG call order is part of the contract: every seeded circuit the
    tests build must stay the same gate for gate.
    """
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits, f"random-{num_qubits}q-{num_gates}g-s{seed}")
    for _ in range(num_gates):
        if rng.random() < one_qubit_fraction:
            theta, phi, lam = rng.uniform(0.0, 2.0 * np.pi, 3)
            circuit.u3(float(theta), float(phi), float(lam), int(rng.integers(num_qubits)))
        else:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.cx(int(a), int(b))
    return circuit


def circuits_bit_identical(a: QuantumCircuit, b: QuantumCircuit) -> bool:
    """Gate-for-gate equality: qubits, names, params and exact matrices.

    Delegates to ``Instruction``/``Gate`` equality (frozen-dataclass compare
    of ``(gate, qubits)``; ``UnitaryGate.__eq__`` compares exact matrix
    bytes), so fused SU(4) blocks must match bit for bit.
    """
    return a.num_qubits == b.num_qubits and a.instructions == b.instructions


def run_pass(compiler_pass, circuit: QuantumCircuit, properties=None) -> QuantumCircuit:
    """Run one pass on a flat circuit: wrap it in a ``CircuitIR``, run, flatten.

    Costs one circuit->IR and one IR->circuit conversion.  ``properties``
    defaults to a fresh dict; pass one in to read what the pass wrote.
    """
    ir = CircuitIR.from_circuit(circuit)
    compiler_pass.run(ir, {} if properties is None else properties)
    return ir.to_circuit()


def topological_layers(graph) -> list:
    """ASAP layering of a :class:`~repro.circuits.depgraph.DependencyGraph`.

    Lists of node indices at equal dependency depth, ascending within a
    layer: what repeatedly peeling the front layer off the DAG yields.
    """
    depth = np.zeros(graph.num_nodes, dtype=np.int64)
    for node in range(graph.num_nodes):
        preds = graph.predecessors(node)
        if preds.shape[0]:
            depth[node] = int(depth[preds].max()) + 1
    layers = [[] for _ in range(int(depth.max()) + 1)] if graph.num_nodes else []
    for node in range(graph.num_nodes):
        layers[depth[node]].append(node)
    return layers
