"""Frozen pre-optimization SABRE implementation (baseline oracle).

This module preserves, verbatim in behaviour, the original list-based
implementation of (mirroring-)SABRE that shipped before the array-based fast
path in :mod:`repro.compiler.routing.sabre`.  It exists for two reasons:

* **Equivalence testing** — the fast path guarantees bit-identical routed
  output; the regression tests route random circuits and the workload suite
  through both implementations and compare gate-for-gate.
* **A fixed anchor** — every later change to the fast path is checked
  against this one unchanging implementation rather than against its own
  previous version (``tests/test_sabre_fast_path.py`` routes a 64-qubit,
  2000-gate circuit through both).

Test modules import it as ``from sabre_reference import ReferenceSabreRouter``
(pytest puts ``tests/`` on ``sys.path``); no library code uses it.

Do not optimize this module; it is intentionally the slow O(n·front) loop
(``front.remove``, per-candidate Python heuristic sums, dict-based
in-degrees over the :class:`DependencyGraph` arrays).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.depgraph import DependencyGraph
from repro.circuits.instruction import Instruction
from repro.compiler.routing.coupling_map import CouplingMap
from repro.gates import standard
from repro.gates.gate import UnitaryGate

__all__ = ["ReferenceSabreRouter"]

_SWAP_MATRIX = standard.swap_gate().matrix


class ReferenceSabreRouter:
    """The pre-fast-path SABRE router (see module docstring).

    Construction arguments and :meth:`run` semantics match
    :class:`repro.compiler.routing.sabre.SabreRouter` exactly.
    """

    def __init__(
        self,
        coupling_map: CouplingMap,
        mirroring: bool = False,
        lookahead_size: int = 20,
        lookahead_weight: float = 0.5,
        decay_increment: float = 0.001,
        decay_reset_interval: int = 5,
        seed: int = 0,
    ) -> None:
        self.coupling_map = coupling_map
        self.mirroring = mirroring
        self.lookahead_size = lookahead_size
        self.lookahead_weight = lookahead_weight
        self.decay_increment = decay_increment
        self.decay_reset_interval = decay_reset_interval
        self.seed = seed

    # ------------------------------------------------------------------
    def run(self, circuit: QuantumCircuit, initial_layout: Optional[Sequence[int]] = None):
        from repro.compiler.routing.sabre import RoutingResult

        if circuit.max_gate_arity() > 2:
            raise ValueError("routing expects a circuit with only 1Q/2Q gates")
        num_physical = self.coupling_map.num_qubits
        if circuit.num_qubits > num_physical:
            raise ValueError("circuit does not fit on the coupling map")
        if initial_layout is None:
            layout = list(range(circuit.num_qubits))
        else:
            layout = list(initial_layout)
        distance = self.coupling_map.distance_matrix()

        dag = DependencyGraph.from_circuit(circuit)
        indegree = dict(enumerate(dag.indegree_vector().tolist()))
        front: List[int] = [node for node, degree in indegree.items() if degree == 0]

        output = QuantumCircuit(num_physical, circuit.name)
        decay = np.ones(num_physical)
        inserted_swaps = 0
        absorbed_swaps = 0
        swaps_since_reset = 0
        last_gate_on_pair: Dict[Tuple[int, int], int] = {}
        last_touch: Dict[int, int] = {}

        def emit(instruction: Instruction, physical_qubits: Tuple[int, ...]) -> None:
            output.append(instruction.gate, physical_qubits)
            position = len(output) - 1
            if len(physical_qubits) == 2:
                last_gate_on_pair[tuple(sorted(physical_qubits))] = position
            for qubit in physical_qubits:
                last_touch[qubit] = position

        def release(node: int) -> None:
            for successor in dag.successors(node).tolist():
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    front.append(successor)

        max_steps = 50 * (len(circuit) + 10) * max(1, num_physical)
        steps = 0
        while front:
            steps += 1
            if steps > max_steps:
                raise RuntimeError("SABRE routing failed to converge (step limit exceeded)")
            progressed = True
            while progressed and front:
                progressed = False
                for node in list(front):
                    instruction: Instruction = dag.instructions[node]
                    physical = tuple(layout[q] for q in instruction.qubits)
                    if instruction.num_qubits == 1 or self.coupling_map.is_connected(*physical):
                        emit(instruction, physical)
                        front.remove(node)
                        release(node)
                        progressed = True
            if not front:
                break

            front_2q = [dag.instructions[node] for node in front if dag.instructions[node].num_qubits == 2]
            extended = self._extended_set(dag, front, indegree)
            candidates = self._swap_candidates(front_2q, layout)
            if not candidates:
                raise RuntimeError("no SWAP candidates found; is the coupling map connected?")

            base_cost = self._heuristic_cost(front_2q, extended, layout, distance)
            scored: List[Tuple[float, Tuple[int, int]]] = []
            for edge in candidates:
                trial_layout = self._apply_swap(layout, edge)
                cost = self._heuristic_cost(front_2q, extended, trial_layout, distance)
                cost *= max(decay[edge[0]], decay[edge[1]])
                scored.append((cost, edge))
            scored.sort(key=lambda item: (item[0], item[1]))

            chosen: Optional[Tuple[int, int]] = None
            absorb = False
            if self.mirroring:
                absorbable = [
                    (cost, edge)
                    for cost, edge in scored
                    if cost < base_cost and self._is_absorbable(edge, last_gate_on_pair, last_touch)
                ]
                if absorbable:
                    chosen = absorbable[0][1]
                    absorb = True
            if chosen is None:
                chosen = scored[0][1]

            if absorb:
                position = last_gate_on_pair[tuple(sorted(chosen))]
                previous = output.instructions[position]
                merged_matrix = _SWAP_MATRIX @ previous.gate.matrix
                output.instructions[position] = Instruction(
                    UnitaryGate(merged_matrix, label="su4"), previous.qubits
                )
                absorbed_swaps += 1
            else:
                emit(Instruction(standard.swap_gate(), (0, 1)), tuple(chosen))
                inserted_swaps += 1
            layout = self._apply_swap(layout, chosen)
            decay[chosen[0]] += self.decay_increment
            decay[chosen[1]] += self.decay_increment
            swaps_since_reset += 1
            if swaps_since_reset >= self.decay_reset_interval:
                decay[:] = 1.0
                swaps_since_reset = 0

        return RoutingResult(
            circuit=output,
            initial_layout=list(initial_layout) if initial_layout is not None else list(range(circuit.num_qubits)),
            final_layout=layout,
            inserted_swaps=inserted_swaps,
            absorbed_swaps=absorbed_swaps,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _apply_swap(layout: Sequence[int], edge: Tuple[int, int]) -> List[int]:
        new_layout = list(layout)
        for logical, physical in enumerate(new_layout):
            if physical == edge[0]:
                new_layout[logical] = edge[1]
            elif physical == edge[1]:
                new_layout[logical] = edge[0]
        return new_layout

    def _swap_candidates(
        self, front_2q: Sequence[Instruction], layout: Sequence[int]
    ) -> List[Tuple[int, int]]:
        involved: Set[int] = set()
        for instruction in front_2q:
            for qubit in instruction.qubits:
                involved.add(layout[qubit])
        candidates: Set[Tuple[int, int]] = set()
        for physical in involved:
            for neighbor in self.coupling_map.neighbors(physical):
                candidates.add(tuple(sorted((physical, neighbor))))
        return sorted(candidates)

    def _extended_set(
        self, dag, front: Sequence[int], indegree: Dict[int, int]
    ) -> List[Instruction]:
        extended: List[Instruction] = []
        frontier = list(front)
        visited: Set[int] = set(front)
        while frontier and len(extended) < self.lookahead_size:
            node = frontier.pop(0)
            for successor in dag.successors(node).tolist():
                if successor in visited:
                    continue
                visited.add(successor)
                instruction = dag.instructions[successor]
                if instruction.num_qubits == 2:
                    extended.append(instruction)
                frontier.append(successor)
        return extended

    def _heuristic_cost(
        self,
        front_2q: Sequence[Instruction],
        extended: Sequence[Instruction],
        layout: Sequence[int],
        distance: np.ndarray,
    ) -> float:
        if not front_2q:
            return 0.0
        front_cost = sum(
            distance[layout[instr.qubits[0]], layout[instr.qubits[1]]] for instr in front_2q
        ) / len(front_2q)
        if extended:
            lookahead = sum(
                distance[layout[instr.qubits[0]], layout[instr.qubits[1]]] for instr in extended
            ) / len(extended)
        else:
            lookahead = 0.0
        return front_cost + self.lookahead_weight * lookahead

    def _is_absorbable(
        self,
        edge: Tuple[int, int],
        last_gate_on_pair: Dict[Tuple[int, int], int],
        last_touch: Dict[int, int],
    ) -> bool:
        pair = tuple(sorted(edge))
        position = last_gate_on_pair.get(pair)
        if position is None:
            return False
        return all(last_touch.get(q, -1) <= position for q in pair)
