"""Regression tests: the SABRE fast path is bit-identical to the frozen
pre-optimization reference implementation."""

import numpy as np
import pytest

from repro.compiler.routing.coupling_map import CouplingMap
from repro.compiler.routing.sabre import SabreRouter
from repro.experiments.common import reference_cnot_circuit
from repro.workloads.suite import benchmark_suite, suite_categories

from circuit_helpers import circuits_bit_identical, random_two_qubit_circuit
from sabre_reference import ReferenceSabreRouter


def _assert_identical(fast, reference):
    assert circuits_bit_identical(fast.circuit, reference.circuit)
    assert fast.initial_layout == reference.initial_layout
    assert fast.final_layout == reference.final_layout
    assert fast.inserted_swaps == reference.inserted_swaps
    assert fast.absorbed_swaps == reference.absorbed_swaps


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("mirroring", [False, True])
def test_fast_path_bit_identical_on_random_circuits(seed, mirroring):
    circuit = random_two_qubit_circuit(9, 120, seed=seed)
    for coupling_map in (
        CouplingMap.grid_for(9),
        CouplingMap.line(9),
        CouplingMap.heavy_hex_for(9),
    ):
        fast = SabreRouter(coupling_map, mirroring=mirroring).run(circuit)
        reference = ReferenceSabreRouter(coupling_map, mirroring=mirroring).run(circuit)
        _assert_identical(fast, reference)


def test_fast_path_bit_identical_with_initial_layout():
    circuit = random_two_qubit_circuit(6, 80, seed=3)
    coupling_map = CouplingMap.grid_for(9)
    layout = [8, 2, 5, 0, 3, 7]
    fast = SabreRouter(coupling_map, mirroring=True).run(circuit, layout)
    reference = ReferenceSabreRouter(coupling_map, mirroring=True).run(circuit, layout)
    _assert_identical(fast, reference)


def test_fast_path_bit_identical_at_64q_2000g():
    """The routing stress shape: 64 qubits, 2000 gates, mirroring on."""
    coupling_map = CouplingMap.grid_for(64)
    circuit = random_two_qubit_circuit(64, 2000, seed=42)
    fast = SabreRouter(coupling_map, mirroring=True).run(circuit)
    reference = ReferenceSabreRouter(coupling_map, mirroring=True).run(circuit)
    assert fast.inserted_swaps > 0 and fast.absorbed_swaps > 0
    _assert_identical(fast, reference)


@pytest.mark.parametrize("category", suite_categories())
def test_fast_path_bit_identical_on_workloads(category):
    """Every ``small`` suite program, lowered to CNOT, on its near-square grid."""
    case = benchmark_suite(scale="small", categories=[category])[0]
    lowered = reference_cnot_circuit(case.circuit)
    for mirroring in (False, True):
        coupling_map = CouplingMap.grid_for(lowered.num_qubits)
        fast = SabreRouter(coupling_map, mirroring=mirroring).run(lowered)
        reference = ReferenceSabreRouter(coupling_map, mirroring=mirroring).run(lowered)
        _assert_identical(fast, reference)


def test_fast_path_routed_circuit_is_equivalent_to_input():
    """Routed output implements the input program up to the wire permutation."""
    from repro.simulators.unitary import permutation_unitary

    circuit = random_two_qubit_circuit(4, 30, seed=5)
    coupling_map = CouplingMap.line(4)
    result = SabreRouter(coupling_map, mirroring=False).run(circuit)
    routed = result.circuit.to_unitary()
    expected = permutation_unitary(result.final_layout) @ circuit.to_unitary()
    np.testing.assert_allclose(routed, expected, atol=1e-9)


def test_fast_path_rejects_oversized_and_multiqubit_circuits():
    from repro.circuits.circuit import QuantumCircuit

    coupling_map = CouplingMap.line(2)
    with pytest.raises(ValueError):
        SabreRouter(coupling_map).run(QuantumCircuit(3).cx(0, 1))
    with pytest.raises(ValueError):
        SabreRouter(CouplingMap.line(4)).run(QuantumCircuit(3).ccx(0, 1, 2))


def test_fast_path_rejects_out_of_range_initial_layout():
    from repro.circuits.circuit import QuantumCircuit

    circuit = QuantumCircuit(3).cx(0, 1).cx(1, 2)
    with pytest.raises(ValueError, match="out of range"):
        SabreRouter(CouplingMap.line(4)).run(circuit, initial_layout=[0, -1, 2])
    with pytest.raises(ValueError, match="out of range"):
        SabreRouter(CouplingMap.line(4)).run(circuit, initial_layout=[0, 1, 4])
    with pytest.raises(ValueError, match="no entry"):
        SabreRouter(CouplingMap.line(4)).run(circuit, initial_layout=[0, 1])


def test_distance_matrix_bfs_matches_networkx_on_high_degree_graph():
    """Regression: the BFS matmul must not overflow on degree-256 frontiers."""
    import networkx as nx

    # pendant -> hub -> 256 midpoints -> far: the frontier reaching `far`
    # has exactly 256 incoming paths, a multiple of 256.
    edges = [(0, 1)]
    far = 2 + 256
    for mid in range(2, 2 + 256):
        edges.append((1, mid))
        edges.append((mid, far))
    coupling_map = CouplingMap(edges)
    matrix = coupling_map.distance_matrix()
    lengths = dict(nx.all_pairs_shortest_path_length(nx.Graph(coupling_map.edges)))
    assert matrix[0, far] == lengths[0][far] == 3
    for source, targets in lengths.items():
        for target, hops in targets.items():
            assert matrix[source, target] == hops
