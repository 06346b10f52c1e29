"""Two-qubit block collection and consolidation on the :class:`~repro.ir.CircuitIR`.

This is the first tier of the hierarchical-synthesis pipeline (Section 5.1.2):
maximal runs of gates acting on the same qubit pair are collected and fused
in place into a single SU(4) operation.  The same function backs the fusion
pass, the baseline compilers' block consolidation (re-synthesizing each run
with the minimal number of CNOTs), template synthesis' output fusion and the
template library's ``{Can, U3}`` realizations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Literal, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.instruction import Instruction
from repro.gates.gate import UnitaryGate
from repro.ir import CircuitIR
from repro.simulators.statevector import _sequence_plan
from repro.synthesis.two_qubit import two_qubit_to_can_circuits_batch, two_qubit_to_cnot_circuit

__all__ = ["TwoQubitBlock", "consolidate_blocks", "replace_run", "block_unitaries"]

OutputForm = Literal["unitary", "can", "cx"]

_EYE4 = np.eye(4, dtype=complex)


@dataclass
class TwoQubitBlock:
    """A maximal run of instructions confined to one unordered qubit pair.

    ``members`` carries the collection key of every member instruction, in
    program order: the program position inside :func:`consolidate_blocks`.
    """

    qubits: Tuple[int, int]
    instructions: List[Instruction] = field(default_factory=list)
    members: List[int] = field(default_factory=list)

    @property
    def num_two_qubit_gates(self) -> int:
        """Number of 2Q gates inside the block."""
        return sum(1 for instr in self.instructions if instr.is_two_qubit)


def block_unitaries(blocks: Sequence[TwoQubitBlock]) -> List[np.ndarray]:
    """4x4 unitaries of ``blocks``, each with ``block.qubits[0]`` as the first qubit.

    Blocks with the same local qubit signature (the local qubits of each
    member, in order) share one :func:`apply_gate_sequence` plan, so each
    group runs the plan once as stacked ``(B, 2^k, 2^k) @ (B, 2^k, rest)``
    products.  Every item of a stacked product is the per-block product,
    so each unitary is bitwise the one ``apply_gate_sequence`` builds alone.
    The unitaries are read-only views of one array per group.
    """
    groups: Dict[Tuple[Tuple[int, ...], ...], List[int]] = {}
    for position, block in enumerate(blocks):
        first = block.qubits[0]
        signature = tuple(tuple(int(q != first) for q in instr.qubits) for instr in block.instructions)
        groups.setdefault(signature, []).append(position)
    unitaries: List[np.ndarray] = [None] * len(blocks)  # type: ignore[list-item]
    for signature, members in groups.items():
        steps, final = _sequence_plan(2, signature, True)
        tensor = np.tile(_EYE4, (len(members), 1, 1)).reshape(-1, 2, 2, 4)
        for step, (qubits, perm) in enumerate(zip(signature, steps)):
            # np.array of equal-shape arrays is np.stack's array, built faster.
            matrices = np.array([blocks[b].instructions[step].gate.matrix for b in members])
            tensor = tensor.transpose((0,) + tuple(axis + 1 for axis in perm))
            shape = tensor.shape
            tensor = (matrices @ tensor.reshape(len(members), 2 ** len(qubits), -1)).reshape(shape)
        tensor = tensor.transpose((0,) + tuple(axis + 1 for axis in final)).reshape(-1, 4, 4)
        tensor.setflags(write=False)  # so each UnitaryGate keeps its view uncopied
        for b, unitary in zip(members, tensor):
            unitaries[b] = unitary
    return unitaries


def _collect_blocks(items: Iterable[Tuple[int, Instruction]]) -> List[TwoQubitBlock]:
    """Maximal 2Q runs over ``(key, instruction)`` pairs in program order.

    Every block holds at least one two-qubit gate; single-qubit gates
    sandwiched inside a run join the surrounding block.  Instructions in no
    block (a 1Q gate on a wire with no open run, or a 3+-qubit gate, which
    closes the runs on its wires) are left out.
    """
    blocks: List[TwoQubitBlock] = []
    open_block_for_qubit: Dict[int, Optional[int]] = {}

    for key, instruction in items:
        qubits = instruction.qubits
        if instruction.num_qubits == 2:
            pair = tuple(sorted(qubits))
            idx0 = open_block_for_qubit.get(pair[0])
            idx1 = open_block_for_qubit.get(pair[1])
            if idx0 is not None and idx0 == idx1 and blocks[idx0].qubits == pair:
                blocks[idx0].instructions.append(instruction)
                blocks[idx0].members.append(key)
            else:
                blocks.append(TwoQubitBlock(qubits=pair, instructions=[instruction], members=[key]))
                open_block_for_qubit[pair[0]] = open_block_for_qubit[pair[1]] = len(blocks) - 1
        elif instruction.num_qubits == 1:
            index = open_block_for_qubit.get(qubits[0])
            if index is not None:
                blocks[index].instructions.append(instruction)
                blocks[index].members.append(key)
        else:
            for qubit in qubits:
                open_block_for_qubit[qubit] = None
    return blocks


def _fuse_blocks(
    blocks: List[TwoQubitBlock],
    form: OutputForm,
    only_if_fewer_gates: bool,
) -> List[Optional[List[Instruction]]]:
    """Replacement lists for ``blocks`` (``None`` = keep the original run).

    ``"unitary"`` wraps each block matrix in one opaque ``su4`` gate.  The
    ``"can"`` form runs all the KAK decompositions as one vectorized batch;
    batch items are composition-independent, so no block's synthesis depends
    on its neighbours.  ``"cx"`` synthesizes one block at a time.
    """
    unitaries = block_unitaries(blocks)
    if form == "unitary":
        return [
            [Instruction.unchecked(UnitaryGate(unitary, label="su4"), block.qubits)]
            for block, unitary in zip(blocks, unitaries)
        ]
    if form == "can":
        circuits = two_qubit_to_can_circuits_batch(unitaries, qubits=(0, 1))
    else:
        circuits = [two_qubit_to_cnot_circuit(unitary, qubits=(0, 1)) for unitary in unitaries]
    results: List[Optional[List[Instruction]]] = []
    for block, circuit in zip(blocks, circuits):
        mapping = {0: block.qubits[0], 1: block.qubits[1]}
        replacement: Optional[List[Instruction]] = [instr.remap(mapping) for instr in circuit]
        if only_if_fewer_gates:
            new_count = sum(1 for instr in replacement if instr.is_two_qubit)
            if new_count >= block.num_two_qubit_gates:
                replacement = None
        results.append(replacement)
    return results


def consolidate_blocks(
    ir: CircuitIR,
    form: OutputForm = "unitary",
    only_if_fewer_gates: bool = False,
) -> None:
    """Fuse every maximal 2Q run of ``ir`` into a single operation, in place.

    ``form`` selects the representation of the fused block: an opaque
    ``UnitaryGate`` (``"unitary"``), a ``{Can, U3}`` synthesis (``"can"``) or a
    minimal-CNOT synthesis (``"cx"``).  With ``only_if_fewer_gates`` the
    original run is kept whenever re-synthesis would not reduce its 2Q count
    (used by the CNOT baselines).  Each run goes in at the position of its
    first member and its other members are dropped; instructions in no run
    keep their place.  The new program is installed with one ``rewrite``
    (node ids are renumbered), or not at all when every run is kept and
    already contiguous.
    """
    program = list(ir.instructions())
    blocks = _collect_blocks(enumerate(program))
    if not blocks:
        return
    placed: Dict[int, List[Instruction]] = {}
    dropped = set()
    for block, replacement in zip(blocks, _fuse_blocks(blocks, form, only_if_fewer_gates)):
        members = block.members
        if replacement is None:
            if members[-1] - members[0] == len(members) - 1:
                continue  # a kept run that is already contiguous stays put
            replacement = block.instructions
        placed[members[0]] = replacement
        dropped.update(members[1:])
    if not placed:
        return
    output: List[Instruction] = []
    for position, instruction in enumerate(program):
        replacement = placed.get(position)
        if replacement is not None:
            output.extend(replacement)
        elif position not in dropped:
            output.append(instruction)
    ir.rewrite(output)


def replace_run(ir: CircuitIR, members: Sequence[int], replacement: Optional[List[Instruction]]) -> None:
    """Put ``replacement`` where the first of ``members`` stands and drop the members.

    ``None`` keeps the run: it is still collapsed onto its first member, which
    moves it only when other instructions are interleaved with the members,
    so a run that is already contiguous is left as it is (no rewrite and no
    cache invalidation).
    """
    if replacement is None:
        if _members_contiguous(ir, members):
            return
        replacement = [ir.instruction(node) for node in members]
    ir.replace_block(members, replacement)


def _members_contiguous(ir: CircuitIR, members: Sequence[int]) -> bool:
    """True when ``members`` occupy consecutive program-order positions."""
    node = members[0]
    for expected in members:
        if node != expected:
            return False
        node = ir.next_node(node)
    return True
