"""Two-qubit block collection and consolidation.

This is the first tier of the hierarchical-synthesis pipeline (Section 5.1.2):
maximal runs of gates acting on the same qubit pair are collected and fused
into a single SU(4) operation.  The same machinery backs the baseline
compilers' block-consolidation pass (re-synthesizing each run with the
minimal number of CNOTs) and the template library's post-assembly fusion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Literal, Optional, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.instruction import Instruction
from repro.gates.gate import UnitaryGate
from repro.simulators.statevector import apply_gate_sequence

__all__ = [
    "TwoQubitBlock",
    "collect_two_qubit_blocks",
    "consolidate_blocks",
    "consolidate_blocks_ir",
    "block_unitary",
]

OutputForm = Literal["unitary", "can", "cx"]


@dataclass
class TwoQubitBlock:
    """A maximal run of instructions confined to one unordered qubit pair.

    ``members`` carries the collection key of every member instruction —
    the circuit position when collected from a flat circuit, the IR node id
    when collected from a :class:`repro.ir.CircuitIR`.  ``start_position``
    is the key of the first member.
    """

    qubits: Tuple[int, int]
    instructions: List[Instruction] = field(default_factory=list)
    start_position: int = 0
    members: List[int] = field(default_factory=list)

    @property
    def num_two_qubit_gates(self) -> int:
        """Number of 2Q gates inside the block."""
        return sum(1 for instr in self.instructions if instr.is_two_qubit)


def block_unitary(block: TwoQubitBlock) -> np.ndarray:
    """4x4 unitary of a block, with ``block.qubits[0]`` as the first qubit."""
    local_index = {block.qubits[0]: 0, block.qubits[1]: 1}
    operations = [
        (instruction.gate.matrix, [local_index[q] for q in instruction.qubits])
        for instruction in block.instructions
    ]
    return apply_gate_sequence(np.eye(4, dtype=complex), operations, 2)


def _collect_blocks(
    items: Iterable[Tuple[int, Instruction]],
) -> Tuple[List[TwoQubitBlock], List[Tuple[int, Instruction]]]:
    """Generic block collector over ``(key, instruction)`` pairs in order.

    Keys are circuit positions for the flat-circuit entry point and IR node
    ids for the :class:`repro.ir.CircuitIR` entry point; the collection logic
    is identical, so both paths fuse bit-identically.
    """
    blocks: List[TwoQubitBlock] = []
    leftovers: List[Tuple[int, Instruction]] = []
    open_block_for_qubit: Dict[int, Optional[int]] = {}

    def close_qubit(qubit: int) -> None:
        open_block_for_qubit[qubit] = None

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
                for qubit in pair:
                    existing = open_block_for_qubit.get(qubit)
                    if existing is not None:
                        close_qubit(qubit)
                blocks.append(
                    TwoQubitBlock(
                        qubits=pair,
                        instructions=[instruction],
                        start_position=key,
                        members=[key],
                    )
                )
                index = len(blocks) - 1
                open_block_for_qubit[pair[0]] = index
                open_block_for_qubit[pair[1]] = index
        elif instruction.num_qubits == 1:
            qubit = qubits[0]
            index = open_block_for_qubit.get(qubit)
            if index is not None:
                blocks[index].instructions.append(instruction)
                blocks[index].members.append(key)
            else:
                leftovers.append((key, instruction))
        else:
            for qubit in qubits:
                if open_block_for_qubit.get(qubit) is not None:
                    close_qubit(qubit)
            leftovers.append((key, instruction))
    return blocks, leftovers


def collect_two_qubit_blocks(circuit: QuantumCircuit) -> Tuple[List[TwoQubitBlock], List[Tuple[int, Instruction]]]:
    """Partition a circuit into 2Q blocks plus leftover standalone instructions.

    Returns ``(blocks, leftovers)`` where every instruction of the circuit is
    either a member of exactly one block or listed (with its position) in
    ``leftovers``.  Blocks contain at least one two-qubit gate; single-qubit
    gates sandwiched inside a run join the surrounding block.
    """
    return _collect_blocks(enumerate(circuit))


def _fuse_block(
    block: TwoQubitBlock, form: OutputForm, only_if_fewer_gates: bool
) -> Optional[List[Instruction]]:
    """Replacement instructions for one block (shared by both entry points).

    Returns ``None`` when ``only_if_fewer_gates`` keeps the original run —
    the block is still *collapsed* onto its start position (matching the
    historical emission order), but callers can skip the rewrite entirely
    when the members are already contiguous.
    """
    from repro.synthesis.two_qubit import two_qubit_to_can_circuit, two_qubit_to_cnot_circuit

    matrix = block_unitary(block)
    if form == "unitary":
        return [Instruction(UnitaryGate(matrix, label="su4"), block.qubits)]
    if form == "can":
        synthesized = two_qubit_to_can_circuit(matrix, qubits=(0, 1))
    else:
        synthesized = two_qubit_to_cnot_circuit(matrix, qubits=(0, 1))
    mapping = {0: block.qubits[0], 1: block.qubits[1]}
    replacement = [instr.remap(mapping) for instr in synthesized]
    if only_if_fewer_gates:
        new_count = sum(1 for instr in replacement if instr.is_two_qubit)
        if new_count >= block.num_two_qubit_gates:
            return None
    return replacement


def _fuse_blocks(
    blocks: List[TwoQubitBlock],
    form: OutputForm,
    only_if_fewer_gates: bool,
) -> List[Optional[List[Instruction]]]:
    """Replacement lists for ``blocks`` (``None`` = keep the original run).

    The ``"can"`` form collects every block unitary and runs the KAK
    decompositions as one vectorized batch; batch items are
    composition-independent, so the flat-vs-IR entry point cannot perturb
    any block's synthesis.  Other forms fuse one block at a time.
    """
    if form != "can":
        return [_fuse_block(block, form, only_if_fewer_gates) for block in blocks]
    if not blocks:
        return []

    from repro.synthesis.two_qubit import two_qubit_to_can_circuits_batch

    circuits = two_qubit_to_can_circuits_batch([block_unitary(block) for block in blocks], qubits=(0, 1))
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
    circuit: QuantumCircuit,
    form: OutputForm = "unitary",
    only_if_fewer_gates: bool = False,
) -> QuantumCircuit:
    """Fuse every maximal 2Q run of ``circuit`` into a single operation.

    ``form`` selects the representation of the fused block: an opaque
    ``UnitaryGate`` (``"unitary"``), a ``{Can, U3}`` synthesis (``"can"``) or a
    minimal-CNOT synthesis (``"cx"``).  With ``only_if_fewer_gates`` the
    original run is kept whenever re-synthesis would not reduce its 2Q count
    (used by the CNOT baselines).  ``circuit`` may also be a
    :class:`~repro.ir.CircuitIR`; the result is always a new circuit.
    """
    blocks, leftovers = collect_two_qubit_blocks(circuit)
    emissions: Dict[int, List[Instruction]] = {}
    for position, instruction in leftovers:
        emissions.setdefault(position, []).append(instruction)

    for block, replacement in zip(blocks, _fuse_blocks(blocks, form, only_if_fewer_gates)):
        if replacement is None:  # kept run, emitted at its start position
            replacement = list(block.instructions)
        emissions.setdefault(block.start_position, []).extend(replacement)

    result = QuantumCircuit(circuit.num_qubits, circuit.name)
    for position in range(len(circuit)):
        for instruction in emissions.get(position, []):
            result.append(instruction.gate, instruction.qubits)
    return result


def consolidate_blocks_ir(
    ir,
    form: OutputForm = "unitary",
    only_if_fewer_gates: bool = False,
) -> None:
    """In-place block consolidation of a :class:`repro.ir.CircuitIR`.

    Identical fusion decisions (and arithmetic) to :func:`consolidate_blocks`
    — each maximal run is collapsed onto the position of its first member via
    :meth:`~repro.ir.CircuitIR.replace_block`, leftovers keep their nodes
    untouched — so the resulting instruction sequence is bit-identical to the
    flat-circuit path.
    """
    blocks, _ = _collect_blocks([(node, ir.instruction(node)) for node in ir.nodes()])
    for block, replacement in zip(blocks, _fuse_blocks(blocks, form, only_if_fewer_gates)):
        if replacement is None:
            # Kept run: the flat path still collapses it onto the block's
            # start position, which only matters when other instructions are
            # interleaved with the members — skip the rewrite (and the cache
            # invalidation) when they are already contiguous.
            if _members_contiguous(ir, block.members):
                continue
            replacement = list(block.instructions)
        ir.replace_block(block.members, replacement)


def _members_contiguous(ir, members: List[int]) -> bool:
    """True when ``members`` occupy consecutive program-order positions."""
    node = members[0]
    for expected in members:
        if node != expected:
            return False
        node = ir.next_node(node)
    return True
