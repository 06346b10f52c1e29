"""Property-style equivalence tests: DependencyGraph vs the networkx DAG."""

import numpy as np
import pytest

import networkx as nx

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.depgraph import DependencyGraph

from circuit_helpers import random_two_qubit_circuit, topological_layers


def _reference_nx_dag(circuit):
    """The historical networkx construction, kept inline as the oracle."""
    dag = nx.DiGraph()
    dag.graph["num_qubits"] = circuit.num_qubits
    last_on_qubit = {}
    for index, instruction in enumerate(circuit):
        dag.add_node(index, instruction=instruction)
        for qubit in instruction.qubits:
            previous = last_on_qubit.get(qubit)
            if previous is not None:
                dag.add_edge(previous, index)
            last_on_qubit[qubit] = index
    return dag


def _random_circuit(num_qubits, num_gates, seed):
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits, f"dg-{seed}")
    for _ in range(num_gates):
        roll = rng.random()
        if roll < 0.35:
            circuit.h(int(rng.integers(num_qubits)))
        elif roll < 0.85:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.cx(int(a), int(b))
        else:
            qubits = rng.choice(num_qubits, size=3, replace=False)
            circuit.ccx(*(int(q) for q in qubits))
    return circuit


@pytest.mark.parametrize("seed", range(8))
def test_depgraph_matches_networkx_reference(seed):
    circuit = _random_circuit(6, 60, seed)
    graph = DependencyGraph.from_circuit(circuit)
    oracle = _reference_nx_dag(circuit)

    assert graph.num_nodes == oracle.number_of_nodes()
    assert graph.num_edges == oracle.number_of_edges()
    assert set(graph.edges()) == set(oracle.edges())
    for node in oracle.nodes:
        assert graph.in_degree(node) == oracle.in_degree(node)
        assert graph.out_degree(node) == oracle.out_degree(node)
        assert list(graph.successors(node)) == sorted(oracle.successors(node))
        assert set(graph.predecessors(node).tolist()) == set(oracle.predecessors(node))
        assert graph.instruction(node) is oracle.nodes[node]["instruction"]


@pytest.mark.parametrize("seed", range(4))
def test_depgraph_topological_layers_match_peeling(seed):
    circuit = _random_circuit(5, 40, seed)
    graph = DependencyGraph.from_circuit(circuit)
    oracle = _reference_nx_dag(circuit)

    expected = []
    while oracle.number_of_nodes():
        layer = sorted(n for n in oracle.nodes if oracle.in_degree(n) == 0)
        expected.append(layer)
        oracle.remove_nodes_from(layer)
    assert topological_layers(graph) == expected


def test_depgraph_round_trip():
    circuit = random_two_qubit_circuit(5, 30, seed=9)
    graph = DependencyGraph.from_circuit(circuit)
    rebuilt = graph.to_circuit(name=circuit.name)
    assert [i.qubits for i in rebuilt] == [i.qubits for i in circuit]
    with pytest.raises(AttributeError):
        graph.to_networkx


def test_depgraph_empty_circuit():
    graph = DependencyGraph.from_circuit(QuantumCircuit(2))
    assert graph.num_nodes == 0
    assert graph.num_edges == 0
    assert graph.front_layer() == []
    assert topological_layers(graph) == []


def test_layers_match_greedy_qubit_frontier():
    for seed in range(4):
        circuit = _random_circuit(5, 35, seed)
        # Historical greedy qubit-frontier layering, inline as the oracle.
        expected = []
        frontier = {q: 0 for q in range(circuit.num_qubits)}
        for instruction in circuit:
            level = max(frontier[q] for q in instruction.qubits)
            if level == len(expected):
                expected.append([])
            expected[level].append(instruction)
            for qubit in instruction.qubits:
                frontier[qubit] = level + 1
        graph = DependencyGraph.from_circuit(circuit)
        layering = [[graph.instructions[node] for node in layer] for layer in topological_layers(graph)]
        assert layering == expected
