"""Peephole optimizations for CNOT-ISA circuits.

These are the optimizations that define the baseline compilers (Qiskit O3 /
TKet style): merging runs of single-qubit gates into one ``U3``, cancelling
adjacent self-inverse two-qubit gates, merging adjacent compatible rotations,
and (optionally) consolidating two-qubit runs and re-synthesizing them with
the minimal number of CNOTs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.circuits.instruction import Instruction
from repro.compiler.passes.base import CompilerPass
from repro.gates import standard
from repro.ir import CircuitIR
from repro.linalg.predicates import allclose_up_to_global_phase
from repro.linalg.su2 import u3_params_from_matrix

__all__ = ["peephole_optimize_ir", "PeepholeOptimizationPass"]

_SELF_INVERSE_2Q = {"cx", "cz", "cy", "swap", "ch"}
_MERGEABLE_ROTATIONS = {"rz", "rx", "ry", "p", "rzz", "rxx", "ryy", "cp", "crz"}
#: Gates diagonal in the computational basis: they mutually commute, so
#: diagonal rotations can be merged across them (the PauliSimp-style
#: simplification used for Trotterized programs).
_DIAGONAL_GATES = {"z", "s", "sdg", "t", "tdg", "rz", "p", "cz", "cp", "crz", "rzz", "ccz", "id"}
_DIAGONAL_ROTATIONS = {"rz", "p", "rzz", "cp", "crz"}


def _merge_one_qubit_runs_ir(ir: CircuitIR) -> None:
    """Fuse consecutive single-qubit gates on each wire into one ``U3`` (in place)."""
    pending: Dict[int, np.ndarray] = {}
    run_nodes: Dict[int, List[int]] = {}

    def flush(qubit: int, anchor: Optional[int]) -> None:
        matrix = pending.pop(qubit, None)
        if matrix is None:
            return
        nodes = run_nodes.pop(qubit)
        for node in nodes:
            ir.remove_node(node)
        if allclose_up_to_global_phase(matrix, np.eye(2), atol=1e-10):
            return
        _, theta, phi, lam = u3_params_from_matrix(matrix)
        merged = Instruction(standard.u3_gate(theta, phi, lam), (qubit,))
        if anchor is None:
            ir.append(merged)
        else:
            ir.insert_before(anchor, merged)

    for node in list(ir.nodes()):
        instruction = ir.instruction(node)
        if instruction.num_qubits == 1:
            qubit = instruction.qubits[0]
            pending[qubit] = instruction.gate.matrix @ pending.get(qubit, np.eye(2, dtype=complex))
            run_nodes.setdefault(qubit, []).append(node)
        else:
            for qubit in instruction.qubits:
                flush(qubit, anchor=node)
    for qubit in list(pending):
        flush(qubit, anchor=None)


def _cancel_adjacent_two_qubit_ir(ir: CircuitIR) -> None:
    """Cancel adjacent identical self-inverse 2Q gates and merge rotations (in place).

    Adjacency is evaluated per qubit pair: two 2Q gates cancel when no other
    instruction touches either qubit in between.  The scan runs over a
    snapshot of the program order; cancellations remove both nodes, rotation
    merges substitute the later node in place.
    """
    order = list(ir.nodes())
    last_on_pair: Dict[tuple, int] = {}
    last_touch: Dict[int, int] = {}
    last_nondiagonal_touch: Dict[int, int] = {}
    for index, node in enumerate(order):
        instruction = ir.instruction(node)
        qubits = instruction.qubits
        if instruction.num_qubits == 2:
            pair = tuple(sorted(qubits))
            previous = last_on_pair.get(pair)
            previous_index = previous if previous is not None else -1
            blocked = any(last_touch.get(q, -1) > previous_index for q in qubits)
            blocked_nondiagonal = any(
                last_nondiagonal_touch.get(q, -1) > previous_index for q in qubits
            )
            if previous is not None and order[previous] in ir:
                prev_instr = ir.instruction(order[previous])
                same_orientation = prev_instr.qubits == qubits
                name = instruction.gate.name
                if (
                    not blocked
                    and name in _SELF_INVERSE_2Q
                    and prev_instr.gate.name == name
                    and same_orientation
                ):
                    ir.remove_node(order[previous])
                    ir.remove_node(node)
                    last_on_pair.pop(pair, None)
                    for q in qubits:
                        last_touch[q] = index
                    continue
                merge_allowed = (not blocked) or (
                    name in _DIAGONAL_ROTATIONS and not blocked_nondiagonal
                )
                if (
                    merge_allowed
                    and name in _MERGEABLE_ROTATIONS
                    and prev_instr.gate.name == name
                    and same_orientation
                ):
                    angle = prev_instr.gate.params[0] + instruction.gate.params[0]
                    ir.remove_node(order[previous])
                    if abs(angle) < 1e-12:
                        ir.remove_node(node)
                    else:
                        ir.substitute_node(
                            node, Instruction(instruction.gate.with_params([angle]), qubits)
                        )
                    last_on_pair[pair] = index
                    for q in qubits:
                        last_touch[q] = index
                    continue
            last_on_pair[pair] = index
        for q in qubits:
            last_touch[q] = index
            if instruction.gate.name not in _DIAGONAL_GATES:
                last_nondiagonal_touch[q] = index


def peephole_optimize_ir(
    ir: CircuitIR,
    consolidate: bool = True,
    max_rounds: int = 4,
) -> None:
    """Iterate 1Q merging and 2Q cancellation on ``ir`` to a fixed point, in place.

    With ``consolidate`` the final round re-synthesizes maximal two-qubit
    runs with the minimal number of CNOTs (block consolidation), keeping the
    original run whenever re-synthesis would not lower its 2Q count, so the
    round never adds a 2Q gate.  Fixed-point detection reads the IR's O(1)
    gate/2Q counters.
    """
    from repro.synthesis.blocks import consolidate_blocks

    for _ in range(max_rounds):
        gates_before = len(ir)
        two_qubit_before = ir.two_qubit_count()
        _merge_one_qubit_runs_ir(ir)
        _cancel_adjacent_two_qubit_ir(ir)
        if len(ir) == gates_before and ir.two_qubit_count() == two_qubit_before:
            break
    if consolidate:
        consolidate_blocks(ir, form="cx", only_if_fewer_gates=True)
        _merge_one_qubit_runs_ir(ir)


class PeepholeOptimizationPass(CompilerPass):
    """Pass wrapper around :func:`peephole_optimize_ir`.

    Rewrites the shared :class:`~repro.ir.CircuitIR` in place.
    """

    name = "peephole"

    def __init__(self, consolidate: bool = True, max_rounds: int = 4) -> None:
        self.consolidate = consolidate
        self.max_rounds = max_rounds

    def run(self, ir: CircuitIR, properties: Dict[str, Any]) -> None:
        peephole_optimize_ir(ir, consolidate=self.consolidate, max_rounds=self.max_rounds)
