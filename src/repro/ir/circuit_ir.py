"""The :class:`CircuitIR` mutable intermediate representation.

One IR object is built from the input circuit when the pipeline starts,
mutated in place by every pass through transactional rewrite primitives, and
serialized back to a circuit exactly once at the end of the pipeline.

Design
------
* **Stable node ids over a doubly-linked program order.**  Every instruction
  lives at an integer node id that never moves or gets reused; program order
  is a linked list (``O(1)`` insert/remove anywhere), so rewrites never shift
  other nodes.
* **Transactional primitives.**  :meth:`remove_node`,
  :meth:`substitute_node`, :meth:`insert_before`, :meth:`replace_block` and
  :meth:`rewrite` validate all arguments before the first mutation — a
  failed call leaves the IR untouched.
* **O(1) metric views.**  ``len(ir)``, :meth:`two_qubit_count` and
  :meth:`max_gate_arity` are maintained incrementally on every mutation;
  :meth:`depth` and :meth:`dependency_graph` are cached and invalidated
  *only* on mutation, so repeated reads between mutations are free.
* **Conversion accounting.**  :meth:`from_circuit` / :meth:`to_circuit` (the
  representation-marshalling boundary) and dependency-graph builds bump
  module-level counters exposed by :func:`conversion_stats` — the
  benchmark's ``ir.conversions`` metric.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.depgraph import DependencyGraph
from repro.circuits.instruction import Instruction

__all__ = ["CircuitIR", "conversion_stats", "reset_conversion_stats"]


_CONVERSIONS: Dict[str, int] = {"from_circuit": 0, "to_circuit": 0, "dag_builds": 0}


def conversion_stats() -> Dict[str, int]:
    """Marshalling counters: circuit->IR, IR->circuit and DAG (re)builds."""
    return dict(_CONVERSIONS)


def reset_conversion_stats() -> None:
    """Zero the conversion counters (the benchmark brackets runs with this)."""
    for key in _CONVERSIONS:
        _CONVERSIONS[key] = 0


class CircuitIR:
    """Mutable instruction graph threaded through the compiler pipeline."""

    __slots__ = (
        "num_qubits",
        "name",
        "_instructions",
        "_next",
        "_prev",
        "_head",
        "_tail",
        "_size",
        "_two_qubit_count",
        "_arity_counts",
        "_graph",
        "_depth",
    )

    def __init__(self, num_qubits: int, name: str = "circuit") -> None:
        if num_qubits < 1:
            raise ValueError("a circuit needs at least one qubit")
        self.num_qubits = int(num_qubits)
        self.name = name
        self._reset_storage()

    # ------------------------------------------------------------------
    # Construction / conversion.
    # ------------------------------------------------------------------
    @classmethod
    def from_instructions(
        cls,
        num_qubits: int,
        instructions: Iterable[Instruction],
        name: str = "circuit",
    ) -> "CircuitIR":
        """Build an IR from a pre-validated instruction sequence."""
        ir = cls(num_qubits, name)
        ir.rewrite(instructions)
        return ir

    @classmethod
    def from_circuit(cls, circuit: QuantumCircuit) -> "CircuitIR":
        """Marshal a circuit into the IR (counted by :func:`conversion_stats`)."""
        _CONVERSIONS["from_circuit"] += 1
        return cls.from_instructions(circuit.num_qubits, circuit.instructions, circuit.name)

    def to_circuit(self, name: Optional[str] = None) -> QuantumCircuit:
        """Marshal the IR back into a flat circuit (counted, see module docs)."""
        _CONVERSIONS["to_circuit"] += 1
        circuit = QuantumCircuit(self.num_qubits, name or self.name)
        # Instructions were validated on insertion; install the list directly.
        circuit.instructions.extend(self.instructions())
        return circuit

    def adopt(self, circuit: QuantumCircuit) -> None:
        """Reload this IR in place from a pass-produced circuit.

        Used by passes whose kernel rebuilds the whole program (e.g. routing,
        which re-emits every gate on physical wires): the instruction list is
        taken over directly — no dependency structure is re-derived and no
        circuit<->IR marshalling is counted.
        """
        self.num_qubits = circuit.num_qubits
        self.name = circuit.name
        self.rewrite(circuit.instructions)

    # ------------------------------------------------------------------
    # Storage helpers.
    # ------------------------------------------------------------------
    def _reset_storage(self) -> None:
        self._instructions: List[Optional[Instruction]] = []
        self._next: List[int] = []
        self._prev: List[int] = []
        self._head = -1
        self._tail = -1
        self._size = 0
        self._two_qubit_count = 0
        self._arity_counts: Dict[int, int] = {}
        self._invalidate()

    def _invalidate(self) -> None:
        self._graph: Optional[DependencyGraph] = None
        self._depth: Optional[int] = None

    def _validate(self, instruction: Instruction) -> None:
        for qubit in instruction.qubits:
            if not 0 <= qubit < self.num_qubits:
                raise ValueError(
                    f"qubit {qubit} out of range for a {self.num_qubits}-qubit circuit"
                )

    def _require(self, node: int) -> None:
        if not self.contains(node):
            raise KeyError(f"node {node} is not a live IR node")

    def _account(self, instruction: Instruction, delta: int) -> None:
        arity = len(instruction.qubits)
        count = self._arity_counts.get(arity, 0) + delta
        if count:
            self._arity_counts[arity] = count
        else:
            self._arity_counts.pop(arity, None)
        if arity == 2:
            self._two_qubit_count += delta
        self._size += delta

    def _new_node(self, instruction: Instruction) -> int:
        node = len(self._instructions)
        self._instructions.append(instruction)
        self._next.append(-1)
        self._prev.append(-1)
        return node

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    def contains(self, node: int) -> bool:
        """True when ``node`` is a live (not removed) node id."""
        return (
            isinstance(node, int)
            and 0 <= node < len(self._instructions)
            and self._instructions[node] is not None
        )

    __contains__ = contains

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Instruction]:
        return self.instructions()

    def nodes(self) -> Iterator[int]:
        """Live node ids in program order.

        The successor link is captured before each yield, so removing (or
        substituting) the yielded node while iterating is safe; snapshot with
        ``list(ir.nodes())`` before mutations that insert or move other nodes.
        """
        node = self._head
        while node >= 0:
            successor = self._next[node]
            yield node
            node = successor

    def instructions(self) -> Iterator[Instruction]:
        """Instructions in program order."""
        for node in self.nodes():
            yield self._instructions[node]

    def instruction(self, node: int) -> Instruction:
        """The instruction currently stored at ``node``."""
        self._require(node)
        return self._instructions[node]

    def next_node(self, node: int) -> Optional[int]:
        """The node immediately after ``node`` in program order (or ``None``)."""
        self._require(node)
        successor = self._next[node]
        return successor if successor >= 0 else None

    # ------------------------------------------------------------------
    # O(1) views (incrementally maintained / cached until mutation).
    # ------------------------------------------------------------------
    def two_qubit_count(self) -> int:
        """Number of two-qubit instructions (the paper's #2Q), O(1)."""
        return self._two_qubit_count

    def max_gate_arity(self) -> int:
        """Largest gate arity currently present, O(1)."""
        return max(self._arity_counts, default=0)

    def depth(self) -> int:
        """Circuit depth; cached, recomputed only after a mutation."""
        if self._depth is None:
            # Walk the links directly, with the 1Q and 2Q cases unrolled: the
            # pass manager reads the depth after every pass.
            frontier = [0] * self.num_qubits
            instructions, successor = self._instructions, self._next
            node = self._head
            while node >= 0:
                qubits = instructions[node].qubits
                arity = len(qubits)
                if arity == 1:
                    frontier[qubits[0]] += 1
                elif arity == 2:
                    a, b = qubits
                    level = frontier[a] if frontier[a] > frontier[b] else frontier[b]
                    frontier[a] = frontier[b] = level + 1
                else:
                    level = max(frontier[q] for q in qubits) + 1
                    for qubit in qubits:
                        frontier[qubit] = level
                node = successor[node]
            self._depth = max(frontier, default=0)
        return self._depth

    def dependency_graph(self) -> DependencyGraph:
        """CSR dependency DAG of the current program (cached until mutation).

        Graph nodes are positions in the current program order.
        """
        if self._graph is None:
            self._graph = DependencyGraph.from_instructions(self.num_qubits, list(self.instructions()))
            _CONVERSIONS["dag_builds"] += 1
        return self._graph

    # ------------------------------------------------------------------
    # Transactional rewrite primitives.
    # ------------------------------------------------------------------
    def append(self, instruction: Instruction) -> int:
        """Append ``instruction`` at the end; returns its node id."""
        self._validate(instruction)
        node = self._new_node(instruction)
        if self._tail < 0:
            self._head = self._tail = node
        else:
            self._next[self._tail] = node
            self._prev[node] = self._tail
            self._tail = node
        self._account(instruction, +1)
        self._invalidate()
        return node

    def insert_before(self, node: int, instruction: Instruction) -> int:
        """Insert ``instruction`` immediately before ``node``; returns the new id."""
        self._require(node)
        self._validate(instruction)
        new = self._new_node(instruction)
        previous = self._prev[node]
        self._prev[new] = previous
        self._next[new] = node
        self._prev[node] = new
        if previous < 0:
            self._head = new
        else:
            self._next[previous] = new
        self._account(instruction, +1)
        self._invalidate()
        return new

    def remove_node(self, node: int) -> Instruction:
        """Unlink ``node``; its id is never reused.  Returns the instruction."""
        self._require(node)
        instruction = self._instructions[node]
        previous, successor = self._prev[node], self._next[node]
        if previous < 0:
            self._head = successor
        else:
            self._next[previous] = successor
        if successor < 0:
            self._tail = previous
        else:
            self._prev[successor] = previous
        self._instructions[node] = None
        self._account(instruction, -1)
        self._invalidate()
        return instruction

    def substitute_node(self, node: int, instruction: Instruction) -> int:
        """Replace the instruction at ``node`` in place (position unchanged)."""
        self._require(node)
        self._validate(instruction)
        old = self._instructions[node]
        self._account(old, -1)
        self._instructions[node] = instruction
        self._account(instruction, +1)
        self._invalidate()
        return node

    def replace_block(
        self, nodes: Sequence[int], instructions: Iterable[Instruction]
    ) -> List[int]:
        """Replace a group of nodes with a new instruction sequence.

        ``nodes`` must be live node ids in program order; the replacement is
        inserted at the position of the first node and every listed node is
        removed.  Returns the new node ids.  All arguments are validated
        before the first mutation (transactional).
        """
        nodes = list(nodes)
        if not nodes:
            raise ValueError("replace_block needs at least one node")
        for node in nodes:
            self._require(node)
        if len(set(nodes)) != len(nodes):
            raise ValueError("replace_block received duplicate nodes")
        instructions = list(instructions)
        for instruction in instructions:
            self._validate(instruction)
        anchor = nodes[0]
        new_nodes = [self.insert_before(anchor, instruction) for instruction in instructions]
        for node in nodes:
            self.remove_node(node)
        return new_nodes

    def rewrite(self, instructions: Iterable[Instruction]) -> None:
        """Wholesale replacement of the program with ``instructions``.

        The bulk primitive behind pass kernels that rebuild the whole
        sequence (synthesis, lowering, finalization, routing adoption);
        validates every instruction before clearing the current program,
        then installs the list and its links in one step.
        """
        instructions = list(instructions)
        qubits = [qubit for instruction in instructions for qubit in instruction.qubits]
        if qubits and not (0 <= min(qubits) and max(qubits) < self.num_qubits):
            for instruction in instructions:
                self._validate(instruction)
        self._reset_storage()
        count = len(instructions)
        if not count:
            return
        self._instructions = instructions
        self._next = list(range(1, count))
        self._next.append(-1)
        self._prev = list(range(-1, count - 1))
        self._head, self._tail = 0, count - 1
        self._size = count
        self._arity_counts = dict(Counter(len(instruction.qubits) for instruction in instructions))
        self._two_qubit_count = self._arity_counts.get(2, 0)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"CircuitIR(name={self.name!r}, qubits={self.num_qubits}, "
            f"gates={self._size})"
        )

