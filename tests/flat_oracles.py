"""Flat-circuit reference twins of the in-place IR kernels (test oracles).

The compiler rewrites one :class:`~repro.ir.CircuitIR` in place.  The
functions here compute the same results the older way, by re-emitting a new
:class:`QuantumCircuit`:

* :func:`consolidate_blocks_flat` collects the same 2Q runs and fuses them
  with the same arithmetic as :func:`repro.synthesis.blocks.consolidate_blocks`,
  then emits every run at the position of its first member;
* :func:`consolidate_blocks_by_node` is the in-place fold
  ``consolidate_blocks`` used before it built the program in one pass: one
  ``replace_run`` (``replace_block`` at the first member) per run;
* :func:`peephole_optimize` with :func:`_merge_one_qubit_runs` and
  :func:`_cancel_adjacent_two_qubit` are the flat-list peephole kernels;
* :func:`finalize_closure_scan` is the per-wire running-product scan of
  :class:`repro.compiler.passes.finalize.FinalizeToCanPass`, one 2x2
  product per fold, which the pass now computes as array work.

They are deliberately *independent* of the IR kernels they check: a change
to one side must be made to the other in lockstep, or
``tests/test_ir.py`` fails.  Do not "deduplicate" them through the IR
kernels; that would make the equivalence tests tautological.
"""

from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.instruction import Instruction
from repro.compiler.passes.peephole import (
    _DIAGONAL_GATES,
    _DIAGONAL_ROTATIONS,
    _MERGEABLE_ROTATIONS,
    _SELF_INVERSE_2Q,
)
from repro.linalg.predicates import allclose_up_to_global_phase
from repro.compiler.passes.finalize import _needs_synthesis
from repro.gates import standard
from repro.linalg.su2 import is_identity_class_batch, u3_params_batch, u3_params_from_matrix
from repro.linalg.weyl import kak_decompose_batch
from repro.ir import CircuitIR
from repro.synthesis.blocks import _collect_blocks, _fuse_blocks, replace_run


def consolidate_blocks_flat(
    circuit: QuantumCircuit, form: str = "unitary", only_if_fewer_gates: bool = False
) -> QuantumCircuit:
    """Flat twin of :func:`repro.synthesis.blocks.consolidate_blocks`.

    Returns a new circuit in which every run's replacement (or, when
    ``only_if_fewer_gates`` keeps it, the run itself) is emitted at the
    position of its first member and every other instruction at its own.
    """
    blocks = _collect_blocks(enumerate(circuit))
    emissions: Dict[int, List[Instruction]] = {}
    in_block = set()
    for block, replacement in zip(blocks, _fuse_blocks(blocks, form, only_if_fewer_gates)):
        in_block.update(block.members)
        emissions[block.members[0]] = block.instructions if replacement is None else replacement
    for position, instruction in enumerate(circuit):
        if position not in in_block:
            emissions[position] = [instruction]

    result = QuantumCircuit(circuit.num_qubits, circuit.name)
    for position in range(len(circuit)):
        for instruction in emissions.get(position, []):
            result.append(instruction.gate, instruction.qubits)
    return result


def consolidate_blocks_by_node(
    ir: CircuitIR, form: str = "unitary", only_if_fewer_gates: bool = False
) -> None:
    """Node-by-node twin of :func:`repro.synthesis.blocks.consolidate_blocks`.

    Collects the runs over live node ids and folds them into ``ir`` one at a
    time with :func:`~repro.synthesis.blocks.replace_run`, which leaves a
    kept run alone when it is already contiguous.
    """
    blocks = _collect_blocks([(node, ir.instruction(node)) for node in ir.nodes()])
    if not blocks:
        return
    for block, replacement in zip(blocks, _fuse_blocks(blocks, form, only_if_fewer_gates)):
        replace_run(ir, block.members, replacement)


def _merge_one_qubit_runs(circuit: QuantumCircuit) -> QuantumCircuit:
    """Fuse consecutive single-qubit gates on each wire into one ``U3``."""
    pending: Dict[int, np.ndarray] = {}
    result = QuantumCircuit(circuit.num_qubits, circuit.name)

    def flush(qubit: int) -> None:
        matrix = pending.pop(qubit, None)
        if matrix is None:
            return
        if allclose_up_to_global_phase(matrix, np.eye(2), atol=1e-10):
            return
        _, theta, phi, lam = u3_params_from_matrix(matrix)
        result.u3(theta, phi, lam, qubit)

    for instruction in circuit:
        if instruction.num_qubits == 1:
            qubit = instruction.qubits[0]
            pending[qubit] = instruction.gate.matrix @ pending.get(qubit, np.eye(2, dtype=complex))
        else:
            for qubit in instruction.qubits:
                flush(qubit)
            result.append(instruction.gate, instruction.qubits)
    for qubit in list(pending):
        flush(qubit)
    return result


def _cancel_adjacent_two_qubit(circuit: QuantumCircuit) -> QuantumCircuit:
    """Cancel adjacent identical self-inverse 2Q gates and merge rotations.

    Adjacency is evaluated per qubit pair: two 2Q gates cancel when no other
    instruction touches either qubit in between.
    """
    instructions: List[Optional[Instruction]] = list(circuit)
    last_on_pair: Dict[tuple, int] = {}
    last_touch: Dict[int, int] = {}
    last_nondiagonal_touch: Dict[int, int] = {}
    for index, instruction in enumerate(circuit):
        qubits = instruction.qubits
        if instruction.num_qubits == 2:
            pair = tuple(sorted(qubits))
            previous = last_on_pair.get(pair)
            previous_index = previous if previous is not None else -1
            blocked = any(last_touch.get(q, -1) > previous_index for q in qubits)
            blocked_nondiagonal = any(
                last_nondiagonal_touch.get(q, -1) > previous_index for q in qubits
            )
            if previous is not None and instructions[previous] is not None:
                prev_instr = instructions[previous]
                same_orientation = prev_instr.qubits == qubits
                name = instruction.gate.name
                if (
                    not blocked
                    and name in _SELF_INVERSE_2Q
                    and prev_instr.gate.name == name
                    and same_orientation
                ):
                    instructions[previous] = None
                    instructions[index] = None
                    last_on_pair.pop(pair, None)
                    for q in qubits:
                        last_touch[q] = index
                    continue
                # Diagonal rotations merge across any intervening diagonal
                # gates; other rotations only merge when strictly adjacent.
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
                    instructions[previous] = None
                    if abs(angle) < 1e-12:
                        instructions[index] = None
                    else:
                        instructions[index] = Instruction(
                            instruction.gate.with_params([angle]), qubits
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

    result = QuantumCircuit(circuit.num_qubits, circuit.name)
    for instruction in instructions:
        if instruction is not None:
            result.append(instruction.gate, instruction.qubits)
    return result


def peephole_optimize(
    circuit: QuantumCircuit,
    consolidate: bool = True,
    max_rounds: int = 4,
) -> QuantumCircuit:
    """Iterate 1Q merging and 2Q cancellation to a fixed point.

    With ``consolidate`` the final round re-synthesizes maximal two-qubit
    runs with the minimal number of CNOTs (block consolidation), keeping the
    original run whenever re-synthesis would not help.
    """
    current = circuit
    for _ in range(max_rounds):
        merged = _merge_one_qubit_runs(current)
        cancelled = _cancel_adjacent_two_qubit(merged)
        if len(cancelled) == len(current) and cancelled.count_two_qubit_gates() == current.count_two_qubit_gates():
            current = cancelled
            break
        current = cancelled
    if consolidate:
        consolidated = consolidate_blocks_flat(current, form="cx", only_if_fewer_gates=True)
        if consolidated.count_two_qubit_gates() <= current.count_two_qubit_gates():
            current = _merge_one_qubit_runs(consolidated)
    return current


def finalize_closure_scan(
    program: Sequence[Instruction], merge_single_qubit: bool = True
) -> List[Instruction]:
    """Closure-scan twin of ``FinalizeToCanPass``: the output program of ``program``.

    One forward scan keeps, per wire, the running 2x2 product of the 1Q
    gates and KAK local factors, flushing it where a 2Q gate is emitted on
    the wire and, at the end, in the order the products started.
    """
    program = list(program)
    block_keys: Dict[int, bytes] = {}
    unique: Dict[bytes, Any] = {}
    for position, instruction in enumerate(program):
        if _needs_synthesis(instruction.gate):
            content = instruction.gate.matrix.tobytes()
            block_keys[position] = content
            unique.setdefault(content, instruction.gate)
    decomposed: Dict[bytes, Any] = {}
    if unique:
        matrices = [gate.matrix for gate in unique.values()]
        decomposed = dict(zip(unique, kak_decompose_batch(matrices)))

    emitted: List[Union[Instruction, int]] = []
    products: List[np.ndarray] = []
    flushed_wires: List[int] = []
    running: Dict[int, np.ndarray] = {}

    def flush(qubit: int) -> None:
        product = running.pop(qubit, None)
        if product is not None:
            emitted.append(len(products))
            products.append(product)
            flushed_wires.append(qubit)

    def fold(qubit: int, matrix: np.ndarray) -> None:
        product = running.get(qubit)
        running[qubit] = matrix if product is None else matrix @ product
        if not merge_single_qubit:
            flush(qubit)

    can_gates: Dict[bytes, Any] = {}
    for position, instruction in enumerate(program):
        qubits = instruction.qubits
        if len(qubits) == 1:
            fold(qubits[0], instruction.gate.matrix)
            continue
        content = block_keys.get(position)
        if content is None:
            for qubit in qubits:
                flush(qubit)
            emitted.append(instruction)
            continue
        decomposition = decomposed[content]
        q0, q1 = qubits
        fold(q0, decomposition.r1)
        fold(q1, decomposition.r2)
        can = can_gates.get(content)
        if can is None:
            coords = decomposition.coordinates
            can = standard.can_gate(*coords) if any(abs(c) > 1e-9 for c in coords) else False
            can_gates[content] = can
        if can is not False:
            flush(q0)
            flush(q1)
            emitted.append(Instruction.unchecked(can, qubits))
        fold(q0, decomposition.l1)
        fold(q1, decomposition.l2)
    for qubit in list(running):
        flush(qubit)

    u3s: List[Optional[Instruction]] = [None] * len(products)
    if products:
        stack = np.stack(products)
        keep = np.flatnonzero(~is_identity_class_batch(stack))
        _, thetas, phis, lams = u3_params_batch(stack[keep])
        params = zip(thetas.tolist(), phis.tolist(), lams.tolist())
        for index, (theta, phi, lam) in zip(keep.tolist(), params):
            gate = standard.u3_gate(theta, phi, lam)
            u3s[index] = Instruction.unchecked(gate, (flushed_wires[index],))
    return [
        u3s[entry] if isinstance(entry, int) else entry
        for entry in emitted
        if not isinstance(entry, int) or u3s[entry] is not None
    ]
