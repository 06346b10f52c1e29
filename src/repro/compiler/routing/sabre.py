"""SABRE qubit routing and the SU(4)-aware mirroring-SABRE variant.

SABRE (Li, Ding, Xie 2019) routes a circuit onto a constrained topology by
repeatedly executing the gates of the current *front layer* whose qubits are
adjacent, and otherwise inserting the SWAP that minimizes a distance-based
heuristic with a lookahead term.

Mirroring-SABRE (Section 5.3.2) additionally tracks the *last mapped layer*:
SWAP candidates that can be absorbed into the most recently emitted SU(4)
gate on the same physical pair (``SU(4) . SWAP`` is still a single SU(4)) are
preferred whenever they also lower the heuristic cost, eliminating the 2Q
overhead of those SWAPs entirely.

The step loop runs in one of two implementations, picked per routing run
by ``REPRO_KERNELS`` (:func:`repro.kernels.select_backend`):

* the native loop, :func:`repro.kernels.sabre_route_native` — the whole
  step loop in one C call per routing run;
* the Python loop in :meth:`SabreRouter._route_py` — the fallback.  It
  scores each stall's candidates at once through
  :mod:`repro.kernels.sabre_score` (one layout gather, one broadcast
  trial-position computation, vectorized integer distance sums); that
  arithmetic is the only part the two loops share.

Both rebuild the executable front per pass (survivors in order, then
released nodes), recompute the lookahead set only after a gate executes,
and return the same event stream: emitted DAG nodes and SWAP edges in
order, the absorptions, the final layout and the SWAP counts.  One emitter
turns that stream into the routed circuit.

Because all distances are integers the sums are exact and both loops
perform the same IEEE-754 operations in the same order, so the routed
output is **bit-identical** across backends and to the frozen
pre-optimization baseline router, ``ReferenceSabreRouter``, which the tests
keep as their oracle (enforced by ``tests/test_kernels.py`` and
``tests/test_sabre_fast_path.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.depgraph import DependencyGraph
from repro.circuits.instruction import Instruction
from repro.compiler.routing.coupling_map import CouplingMap
from repro.gates import standard
from repro.gates.gate import UnitaryGate
from repro.kernels import make_sabre_scorer, sabre_route_native, select_backend

__all__ = ["RoutingResult", "SabreRouter"]

#: Every inserted SWAP shares this one gate object (gates are immutable).
_SWAP_GATE = standard.swap_gate()
_SWAP_MATRIX = _SWAP_GATE.matrix


@dataclass
class RoutingResult:
    """Output of a routing run."""

    circuit: QuantumCircuit
    initial_layout: List[int]
    final_layout: List[int]
    inserted_swaps: int
    absorbed_swaps: int

    @property
    def swap_overhead(self) -> int:
        """SWAP gates that actually cost a two-qubit gate."""
        return self.inserted_swaps


class SabreRouter:
    """SABRE routing with optional SU(4)-aware SWAP absorption."""

    def __init__(
        self,
        coupling_map: CouplingMap,
        mirroring: bool = False,
        lookahead_size: int = 20,
        lookahead_weight: float = 0.5,
        decay_increment: float = 0.001,
        decay_reset_interval: int = 5,
        seed: int = 0,
        noise_model=None,
    ) -> None:
        self.coupling_map = coupling_map
        self.mirroring = mirroring
        self.lookahead_size = lookahead_size
        self.lookahead_weight = lookahead_weight
        self.decay_increment = decay_increment
        self.decay_reset_interval = decay_reset_interval
        self.seed = seed
        #: Optional :class:`~repro.compiler.routing.noise.NoiseRoutingModel`:
        #: calibration-weighted distances + per-edge SWAP surcharge.  ``None``
        #: keeps the historical distance-only scoring bit-for-bit.
        self.noise_model = noise_model

    # ------------------------------------------------------------------
    def run(
        self,
        circuit: QuantumCircuit,
        initial_layout: Optional[Sequence[int]] = None,
    ) -> RoutingResult:
        """Route ``circuit`` onto the coupling map.

        ``initial_layout[logical] = physical``; defaults to the identity.
        The routed circuit acts on physical wires.
        """
        graph = DependencyGraph.from_circuit(circuit)
        return self.run_graph(graph, initial_layout=initial_layout, name=circuit.name)

    def run_graph(
        self,
        graph: DependencyGraph,
        initial_layout: Optional[Sequence[int]] = None,
        name: str = "circuit",
    ) -> RoutingResult:
        """Route a prebuilt dependency graph onto the coupling map.

        This is the entry point used by the IR pipeline: the
        :class:`~repro.ir.CircuitIR` hands over its cached
        :class:`DependencyGraph` directly, so routing never re-derives the
        dependency structure from a flat gate list.
        """
        num_physical = self.coupling_map.num_qubits
        if graph.num_qubits > num_physical:
            raise ValueError("circuit does not fit on the coupling map")
        if initial_layout is None:
            layout_list = list(range(graph.num_qubits))
        else:
            layout_list = [int(q) for q in initial_layout]
            for physical in layout_list:
                if not 0 <= physical < num_physical:
                    raise ValueError(
                        f"qubit {physical} out of range for a {num_physical}-qubit circuit"
                    )
        # Per-node logical qubits; ``q1 = -1`` marks a single-qubit node.
        q0_list: List[int] = []
        q1_list: List[int] = []
        for instruction in graph.instructions:
            qubits = instruction.qubits
            if len(qubits) > 2:
                raise ValueError("routing expects a circuit with only 1Q/2Q gates")
            q0_list.append(qubits[0])
            q1_list.append(qubits[1] if len(qubits) == 2 else -1)
        if q0_list and max(max(q0_list), max(q1_list)) >= len(layout_list):
            raise ValueError("initial_layout has no entry for a qubit the circuit uses")
        max_steps = 50 * (graph.num_nodes + 10) * max(1, num_physical)

        if select_backend() == "native":
            # The extension reads raw int64 buffers: fix dtype and layout here.
            int64 = partial(np.ascontiguousarray, dtype=np.int64)
            noise = self.noise_model
            incident_ptr, incident = self.coupling_map.incident_edge_csr()
            stream = sabre_route_native(
                int64(q0_list),
                int64(q1_list),
                int64(graph.succ_indptr),
                int64(graph.succ_indices),
                int64(graph.indegree_vector()),
                int64(graph.front_layer()),
                int64(layout_list),
                self.coupling_map.edge_array(),
                incident_ptr,
                incident,
                self.coupling_map.distance_matrix64() if noise is None else int64(noise.distance),
                None if noise is None else int64(noise.swap_penalty),
                self.lookahead_size,
                self.lookahead_weight,
                self.decay_increment,
                self.decay_reset_interval,
                self.mirroring,
                max_steps,
            )
        else:
            stream = self._route_py(graph, q0_list, q1_list, layout_list, max_steps)
        events, wires, absorptions, final_layout, inserted_swaps, absorbed_swaps = stream

        # One shared emitter for both loops.  Event ids index the DAG nodes
        # followed by one (shared, immutable) SWAP gate per coupling edge.
        gates = [instruction.gate for instruction in graph.instructions]
        gates.extend([_SWAP_GATE] * len(self.coupling_map.edge_tuples()))
        output = QuantumCircuit(num_physical, name)
        out_list = output.instructions
        out_list.extend(map(Instruction.unchecked, map(gates.__getitem__, events), wires))
        for position, _edge in absorptions:
            previous = out_list[position]
            merged_matrix = _SWAP_MATRIX @ previous.gate.matrix
            out_list[position] = Instruction.unchecked(
                UnitaryGate(merged_matrix, label="su4"), previous.qubits
            )
        return RoutingResult(
            circuit=output,
            initial_layout=(
                list(initial_layout) if initial_layout is not None else list(range(graph.num_qubits))
            ),
            final_layout=final_layout,
            inserted_swaps=inserted_swaps,
            absorbed_swaps=absorbed_swaps,
        )

    def _route_py(
        self,
        graph: DependencyGraph,
        q0_list: List[int],
        q1_list: List[int],
        layout_list: List[int],
        max_steps: int,
    ) -> tuple:
        """The step loop in Python: the ``REPRO_KERNELS=py`` twin of the native loop.

        Returns the same event stream as
        :func:`repro.kernels.sabre_route_native`: ``(events, wires,
        absorptions, final_layout, inserted, absorbed)``, where an event is a
        DAG node id or ``num_nodes + edge_id`` for an inserted SWAP.
        """
        num_nodes = graph.num_nodes
        num_physical = self.coupling_map.num_qubits
        # ``layout`` (numpy) feeds the vectorized heuristic; ``layout_list``
        # (plain ints) feeds the scalar execute loop.  Both are updated on
        # every SWAP.
        layout = np.asarray(layout_list, dtype=np.int64)
        phys_to_logical = [-1] * num_physical
        for logical, physical in enumerate(layout_list):
            phys_to_logical[physical] = logical

        neighbor_sets = self.coupling_map.neighbor_sets()
        edge_tuples = self.coupling_map.edge_tuples()
        score_stall = make_sabre_scorer(self.coupling_map, noise=self.noise_model)

        succ_ptr = graph.succ_indptr.tolist()
        succ = graph.succ_indices.tolist()
        indegree = graph.indegree_vector().tolist()
        front: List[int] = graph.front_layer()
        node_q0 = np.asarray(q0_list, dtype=np.int64)
        node_q1 = np.asarray(q1_list, dtype=np.int64)

        events: List[int] = []
        wires: List[Tuple[int, ...]] = []
        absorptions: List[Tuple[int, int]] = []
        decay = np.ones(num_physical)
        lookahead_weight = self.lookahead_weight
        decay_increment = self.decay_increment
        decay_reset_interval = self.decay_reset_interval
        mirroring = self.mirroring
        inserted_swaps = 0
        absorbed_swaps = 0
        swaps_since_reset = 0
        # Last emitted 2Q gate per physical pair and the last output position
        # touching each physical qubit (for SWAP absorption).
        last_gate_on_pair: Dict[Tuple[int, int], int] = {}
        last_touch: Dict[int, int] = {}

        # Stall-time arrays, reused across consecutive SWAP decisions while
        # no gate executes in between (the front — and therefore the
        # lookahead set — only changes when a gate is emitted).  The front
        # and lookahead qubit pairs are concatenated into one flat logical
        # array ``(q0_0..q0_{P-1}, q1_0..q1_{P-1})`` so each stall needs a
        # single layout gather and a single trial-position computation.
        pair_qubits: Optional[np.ndarray] = None  # (2P,) logical qubits
        num_front = 0  # F: leading pairs from the front layer
        num_ext = 0  # E: trailing pairs from the lookahead set
        front_dirty = True

        steps = 0
        while front:
            steps += 1
            if steps > max_steps:
                raise RuntimeError("SABRE routing failed to converge (step limit exceeded)")
            # Execute everything currently executable.  Each pass rebuilds
            # the front (survivors keep their order, newly released nodes
            # append).
            while True:
                progressed = False
                survivors: List[int] = []
                released: List[int] = []
                for node in front:
                    p0 = layout_list[q0_list[node]]
                    logical1 = q1_list[node]
                    position = len(events)
                    if logical1 < 0:
                        wires.append((p0,))
                    else:
                        p1 = layout_list[logical1]
                        if p1 not in neighbor_sets[p0]:
                            survivors.append(node)
                            continue
                        wires.append((p0, p1))
                        last_gate_on_pair[(p0, p1) if p0 < p1 else (p1, p0)] = position
                        last_touch[p1] = position
                    events.append(node)
                    last_touch[p0] = position
                    for index in range(succ_ptr[node], succ_ptr[node + 1]):
                        successor = succ[index]
                        remaining = indegree[successor] - 1
                        indegree[successor] = remaining
                        if remaining == 0:
                            released.append(successor)
                    progressed = True
                    front_dirty = True
                front = survivors + released
                if not progressed or not front:
                    break
            if not front:
                break

            # No executable gate: choose a SWAP.
            if front_dirty:
                # At a stall every front node is a blocked 2Q gate (1Q gates
                # always execute), so the front *is* the 2Q front.
                ext_nodes = self._extended_nodes(front, succ_ptr, succ, q1_list, num_nodes)
                num_front = len(front)
                num_ext = len(ext_nodes)
                nodes = front + ext_nodes
                pair_qubits = np.concatenate((node_q0[nodes], node_q1[nodes]))
                front_dirty = False

            # Candidate SWAPs = coupling edges incident to a front physical
            # qubit, as sorted edge ids, with their distance/decay costs.
            ids, costs, base_cost = score_stall(
                layout, pair_qubits, num_front, num_ext, lookahead_weight, decay
            )
            if not ids:
                raise RuntimeError("no SWAP candidates found; is the coupling map connected?")

            absorb = False
            if mirroring:
                # Prefer candidates absorbable by the last mapped layer that
                # also improve on the pre-SWAP heuristic cost.  Candidates
                # are visited in (cost, edge) order — the stable argsort over
                # the lexicographically sorted candidate list reproduces the
                # reference tie-breaking exactly.
                order = np.argsort(costs, kind="stable").tolist()
                cost_list = costs.tolist()
                pair_get = last_gate_on_pair.get
                touch_get = last_touch.get
                chosen = ids[order[0]]
                for index in order:
                    if not cost_list[index] < base_cost:
                        break
                    edge = edge_tuples[ids[index]]
                    position = pair_get(edge)
                    if (
                        position is not None
                        and touch_get(edge[0], -1) <= position
                        and touch_get(edge[1], -1) <= position
                    ):
                        chosen = ids[index]
                        absorb = True
                        break
            else:
                chosen = ids[int(np.argmin(costs))]

            edge = edge_tuples[chosen]
            if absorb:
                absorptions.append((last_gate_on_pair[edge], chosen))
                absorbed_swaps += 1
            else:
                position = len(events)
                events.append(num_nodes + chosen)
                wires.append(edge)
                last_gate_on_pair[edge] = position
                last_touch[edge[0]] = position
                last_touch[edge[1]] = position
                inserted_swaps += 1
            swapped_a, swapped_b = edge
            logical_a = phys_to_logical[swapped_a]
            logical_b = phys_to_logical[swapped_b]
            if logical_a >= 0:
                layout_list[logical_a] = swapped_b
                layout[logical_a] = swapped_b
            if logical_b >= 0:
                layout_list[logical_b] = swapped_a
                layout[logical_b] = swapped_a
            phys_to_logical[swapped_a] = logical_b
            phys_to_logical[swapped_b] = logical_a
            decay[swapped_a] += decay_increment
            decay[swapped_b] += decay_increment
            swaps_since_reset += 1
            if swaps_since_reset >= decay_reset_interval:
                decay[:] = 1.0
                swaps_since_reset = 0

        return events, wires, absorptions, layout_list, inserted_swaps, absorbed_swaps

    # ------------------------------------------------------------------
    def _extended_nodes(
        self,
        front: Sequence[int],
        succ_ptr: Sequence[int],
        succ: Sequence[int],
        q1_list: Sequence[int],
        num_nodes: int,
    ) -> List[int]:
        """Two-qubit nodes of the lookahead (extended) set.

        Breadth-first over successors from the front, in front order,
        truncated at ``lookahead_size`` two-qubit gates — the same traversal
        (and therefore the same set, in the same order) as the reference.
        """
        lookahead_size = self.lookahead_size
        extended: List[int] = []
        frontier = deque(front)
        visited = bytearray(num_nodes)
        for node in front:
            visited[node] = 1
        while frontier and len(extended) < lookahead_size:
            node = frontier.popleft()
            for index in range(succ_ptr[node], succ_ptr[node + 1]):
                successor = succ[index]
                if visited[successor]:
                    continue
                visited[successor] = 1
                if q1_list[successor] >= 0:
                    extended.append(successor)
                frontier.append(successor)
        return extended
