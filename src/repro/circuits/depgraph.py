"""Array-based (CSR) dependency graph of a circuit — the compile-time hot path.

:class:`DependencyGraph` stores the gate-dependency DAG in three flat numpy
arrays per direction (CSR adjacency): ``indptr``/``indices`` pairs for
successors and predecessors plus an in-degree vector.  Construction is a
single O(gates) scan; successor lookup is an array slice.

A directed edge ``i -> j`` exists when instruction ``j`` is the next
instruction after ``i`` on at least one shared qubit (parallel edges
collapse).
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.instruction import Instruction

__all__ = ["DependencyGraph"]


class DependencyGraph:
    """CSR-encoded dependency DAG of a :class:`QuantumCircuit`.

    Nodes are instruction indices ``0..len(circuit)-1`` in program order.
    The per-node successor (and predecessor) lists are stored ascending.
    """

    __slots__ = (
        "num_nodes",
        "num_qubits",
        "instructions",
        "succ_indptr",
        "succ_indices",
        "pred_indptr",
        "pred_indices",
        "_indegree",
    )

    def __init__(
        self,
        num_qubits: int,
        instructions: List[Instruction],
        succ_indptr: np.ndarray,
        succ_indices: np.ndarray,
        pred_indptr: np.ndarray,
        pred_indices: np.ndarray,
    ) -> None:
        self.num_qubits = int(num_qubits)
        self.instructions = instructions
        self.num_nodes = len(instructions)
        self.succ_indptr = succ_indptr
        self.succ_indices = succ_indices
        self.pred_indptr = pred_indptr
        self.pred_indices = pred_indices
        self._indegree = np.diff(pred_indptr)

    # ------------------------------------------------------------------
    @classmethod
    def from_circuit(cls, circuit: QuantumCircuit) -> "DependencyGraph":
        """Build the dependency graph of ``circuit`` in one O(gates) scan."""
        return cls.from_instructions(circuit.num_qubits, circuit.instructions)

    @classmethod
    def from_instructions(
        cls, num_qubits: int, instructions: List[Instruction]
    ) -> "DependencyGraph":
        """Build the dependency graph of a bare instruction sequence.

        This is the entry point used by :class:`repro.ir.CircuitIR`, whose
        program lives as a node list rather than a circuit; the circuit
        classmethod above is a thin wrapper.
        """
        instructions = list(instructions)
        n = len(instructions)
        last_on_qubit = [-1] * num_qubits
        pred_lists: List[List[int]] = []
        out_counts = [0] * n
        num_edges = 0
        for index, instruction in enumerate(instructions):
            preds: List[int] = []
            for qubit in instruction.qubits:
                previous = last_on_qubit[qubit]
                if previous >= 0 and previous not in preds:
                    preds.append(previous)
                last_on_qubit[qubit] = index
            pred_lists.append(preds)
            num_edges += len(preds)
            for previous in preds:
                out_counts[previous] += 1

        succ_indptr = np.zeros(n + 1, dtype=np.int64)
        pred_indptr = np.zeros(n + 1, dtype=np.int64)
        if n:
            np.cumsum(out_counts, out=succ_indptr[1:])
            np.cumsum([len(p) for p in pred_lists], out=pred_indptr[1:])
        succ_indices = np.empty(num_edges, dtype=np.int64)
        pred_indices = np.empty(num_edges, dtype=np.int64)
        fill = succ_indptr[:-1].copy()
        cursor = 0
        for index, preds in enumerate(pred_lists):
            for previous in preds:
                succ_indices[fill[previous]] = index
                fill[previous] += 1
                pred_indices[cursor] = previous
                cursor += 1
        return cls(
            num_qubits,
            instructions,
            succ_indptr,
            succ_indices,
            pred_indptr,
            pred_indices,
        )

    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of dependency edges."""
        return int(self.succ_indices.shape[0])

    def instruction(self, node: int) -> Instruction:
        """The :class:`Instruction` at ``node``."""
        return self.instructions[node]

    def successors(self, node: int) -> np.ndarray:
        """Successor node indices (ascending, zero-copy CSR slice)."""
        return self.succ_indices[self.succ_indptr[node] : self.succ_indptr[node + 1]]

    def predecessors(self, node: int) -> np.ndarray:
        """Predecessor node indices (zero-copy CSR slice)."""
        return self.pred_indices[self.pred_indptr[node] : self.pred_indptr[node + 1]]

    def in_degree(self, node: int) -> int:
        """Number of incoming dependency edges."""
        return int(self._indegree[node])

    def out_degree(self, node: int) -> int:
        """Number of outgoing dependency edges."""
        return int(self.succ_indptr[node + 1] - self.succ_indptr[node])

    def indegree_vector(self) -> np.ndarray:
        """Fresh copy of the in-degree vector (callers may decrement it)."""
        return self._indegree.copy()

    def front_layer(self) -> List[int]:
        """Nodes with no predecessors, ascending (the executable front)."""
        return np.flatnonzero(self._indegree == 0).tolist()

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over ``(source, target)`` dependency edges."""
        for node in range(self.num_nodes):
            for successor in self.successors(node):
                yield node, int(successor)

    def to_circuit(self, name: str = "circuit") -> QuantumCircuit:
        """Rebuild the circuit (nodes are already topologically ordered)."""
        circuit = QuantumCircuit(self.num_qubits, name)
        for instruction in self.instructions:
            circuit.append(instruction.gate, instruction.qubits)
        return circuit

    def __repr__(self) -> str:
        return (
            f"DependencyGraph(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"qubits={self.num_qubits})"
        )
