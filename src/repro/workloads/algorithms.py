"""Algorithmic workloads: QFT, Grover, QAOA, Hamiltonian simulation, UCCSD-like.

The Trotterized / variational families (pf, qaoa, uccsd) are the paper's
"type-2" programs: sequences of Pauli-rotation gadgets, which the ReQISC
pipeline ingests after high-level Pauli-level optimization.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Optional, Sequence, Set, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit

__all__ = [
    "qft_circuit",
    "grover_circuit",
    "qaoa_maxcut",
    "hamiltonian_simulation",
    "uccsd_like",
]


def qft_circuit(num_qubits: int = 4, include_swaps: bool = False) -> QuantumCircuit:
    """Quantum Fourier transform (controlled-phase ladder)."""
    circuit = QuantumCircuit(num_qubits, f"qft_{num_qubits}")
    for target in range(num_qubits):
        circuit.h(target)
        for control in range(target + 1, num_qubits):
            angle = math.pi / (2 ** (control - target))
            circuit.cp(angle, control, target)
    if include_swaps:
        for i in range(num_qubits // 2):
            circuit.swap(i, num_qubits - 1 - i)
    return circuit


def grover_circuit(num_qubits: int = 4, iterations: int = 1, marked: int = None) -> QuantumCircuit:
    """Grover search with an MCX oracle and the standard diffusion operator."""
    if marked is None:
        marked = (1 << num_qubits) - 1
    circuit = QuantumCircuit(num_qubits + max(0, num_qubits - 3), f"grover_{num_qubits}")
    data = list(range(num_qubits))
    for qubit in data:
        circuit.h(qubit)
    for _ in range(iterations):
        # Oracle: phase-flip the marked bitstring.
        for qubit in data:
            if not (marked >> (num_qubits - 1 - qubit)) & 1:
                circuit.x(qubit)
        circuit.h(data[-1])
        if num_qubits > 2:
            circuit.mcx(data[:-1], data[-1])
        else:
            circuit.cx(data[0], data[-1])
        circuit.h(data[-1])
        for qubit in data:
            if not (marked >> (num_qubits - 1 - qubit)) & 1:
                circuit.x(qubit)
        # Diffusion.
        for qubit in data:
            circuit.h(qubit)
            circuit.x(qubit)
        circuit.h(data[-1])
        if num_qubits > 2:
            circuit.mcx(data[:-1], data[-1])
        else:
            circuit.cx(data[0], data[-1])
        circuit.h(data[-1])
        for qubit in data:
            circuit.x(qubit)
            circuit.h(qubit)
    return circuit


def random_regular_edges(degree: int, num_nodes: int, seed: int) -> Set[Tuple[int, int]]:
    """``(low, high)`` edges of a random ``degree``-regular graph on ``num_nodes`` nodes.

    A stdlib port of networkx's ``random_regular_graph`` (Steger-Wormald
    stub pairing, restarted until it succeeds).  It draws from
    ``random.Random(seed)`` in the same order, so a seed gives the same graph.
    """
    if (num_nodes * degree) % 2 or not 0 <= degree < num_nodes:
        raise ValueError("need an even num_nodes * degree and 0 <= degree < num_nodes")
    rng = random.Random(seed)

    def suitable(edges, potential_edges):
        # Is an unused pair left among the failed stubs?  As in networkx, the
        # swap rebinds the outer s1 for the rest of the inner loop.
        for s1 in potential_edges:
            for s2 in potential_edges:
                if s1 == s2:
                    break
                if s1 > s2:
                    s1, s2 = s2, s1
                if (s1, s2) not in edges:
                    return True
        return not potential_edges

    while True:  # each pass is one pairing attempt; a dead end starts over
        edges: Set[Tuple[int, int]] = set()
        stubs = list(range(num_nodes)) * degree
        while stubs:
            potential_edges: Dict[int, int] = {}
            rng.shuffle(stubs)
            stubiter = iter(stubs)
            for s1, s2 in zip(stubiter, stubiter):
                s1, s2 = min(s1, s2), max(s1, s2)
                if s1 != s2 and (s1, s2) not in edges:
                    edges.add((s1, s2))
                else:
                    potential_edges[s1] = potential_edges.get(s1, 0) + 1
                    potential_edges[s2] = potential_edges.get(s2, 0) + 1
            if not suitable(edges, potential_edges):
                break
            stubs = [node for node, count in potential_edges.items() for _ in range(count)]
        else:
            return edges


def qaoa_maxcut(
    num_qubits: int = 6,
    layers: int = 2,
    degree: int = 3,
    seed: int = 7,
    parameters: Optional[Sequence[Tuple[float, float]]] = None,
) -> QuantumCircuit:
    """QAOA MaxCut ansatz on a random regular graph."""
    degree = min(degree, num_qubits - 1)
    if (num_qubits * degree) % 2:
        degree -= 1
    edges = random_regular_edges(degree, num_qubits, seed=seed)
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits, f"qaoa_{num_qubits}")
    for qubit in range(num_qubits):
        circuit.h(qubit)
    for layer in range(layers):
        if parameters is not None:
            gamma, beta = parameters[layer]
        else:
            gamma, beta = rng.uniform(0.1, 1.0, size=2)
        for a, b in sorted(edges):
            circuit.rzz(2.0 * gamma, a, b)
        for qubit in range(num_qubits):
            circuit.rx(2.0 * beta, qubit)
    return circuit


def hamiltonian_simulation(
    num_qubits: int = 5,
    steps: int = 2,
    time: float = 1.0,
    model: str = "heisenberg",
) -> QuantumCircuit:
    """First-order Trotter product formula (the pf benchmark family)."""
    dt = time / steps
    circuit = QuantumCircuit(num_qubits, f"pf_{model}_{num_qubits}")
    for _ in range(steps):
        for qubit in range(num_qubits - 1):
            if model == "heisenberg":
                circuit.rxx(2.0 * dt, qubit, qubit + 1)
                circuit.ryy(2.0 * dt, qubit, qubit + 1)
                circuit.rzz(2.0 * dt, qubit, qubit + 1)
            else:  # transverse-field Ising
                circuit.rzz(2.0 * dt, qubit, qubit + 1)
        for qubit in range(num_qubits):
            circuit.rx(2.0 * dt, qubit)
    return circuit


def _pauli_gadget(circuit: QuantumCircuit, pauli: str, qubits: Sequence[int], angle: float) -> None:
    """Append ``exp(-i angle/2 * P)`` for a Pauli string ``P`` via a CX ladder."""
    active = [(q, p) for q, p in zip(qubits, pauli) if p != "I"]
    if not active:
        return
    for qubit, p in active:
        if p == "X":
            circuit.h(qubit)
        elif p == "Y":
            circuit.sdg(qubit)
            circuit.h(qubit)
    chain = [q for q, _ in active]
    for a, b in zip(chain, chain[1:]):
        circuit.cx(a, b)
    circuit.rz(angle, chain[-1])
    for a, b in reversed(list(zip(chain, chain[1:]))):
        circuit.cx(a, b)
    for qubit, p in active:
        if p == "X":
            circuit.h(qubit)
        elif p == "Y":
            circuit.h(qubit)
            circuit.s(qubit)


def uccsd_like(num_qubits: int = 4, num_excitations: int = 3, seed: int = 5) -> QuantumCircuit:
    """UCCSD-style ansatz: a sequence of Pauli-string exponentials.

    Each (randomly parameterized) double excitation expands into the familiar
    ladder of CX gates around an RZ rotation, reproducing the structure of
    the uccsd benchmark category.
    """
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits, f"uccsd_{num_qubits}")
    paulis = ["XXXY", "XXYX", "XYXX", "YXXX", "XYYY", "YXYY", "YYXY", "YYYX"]
    for index in range(num_excitations):
        qubits = sorted(rng.choice(num_qubits, size=min(4, num_qubits), replace=False))
        pauli = paulis[index % len(paulis)][: len(qubits)]
        angle = float(rng.uniform(0.1, 1.0))
        _pauli_gadget(circuit, pauli, [int(q) for q in qubits], angle)
    return circuit
