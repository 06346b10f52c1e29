"""Program-agnostic hierarchical synthesis (Section 5.1).

Pipeline (Figure 7b):

#. fuse maximal 2Q runs into SU(4) blocks,
#. DAG compacting: exchange approximately-commuting SU(4)s to concentrate
   gates into fewer ``w``-qubit partitions (compactness),
#. partition the SU(4) circuit into ``w``-qubit blocks (default ``w = 3``),
#. conditionally re-synthesize each block whose SU(4) count exceeds the
   threshold ``m_th`` (default 4) with the numerical approximate synthesizer,
   keeping the original block when synthesis does not help.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.circuits.instruction import Instruction
from repro.compiler.passes.base import CompilerPass
from repro.ir import CircuitIR
from repro.service.cache import SynthesisCache, unitary_fingerprint
from repro.simulators.statevector import apply_gate, apply_gate_sequence
from repro.synthesis.approximate import ApproximateSynthesizer, instantiation_token
from repro.synthesis.blocks import consolidate_blocks, replace_run

__all__ = [
    "MultiQubitBlock",
    "partition_into_blocks",
    "compactness",
    "dag_compacting",
    "HierarchicalSynthesisPass",
]


@dataclass
class MultiQubitBlock:
    """A group of instructions confined to at most ``w`` qubits.

    ``members`` are the program positions of the instructions, in order; the
    block is emitted where its first member stands.
    """

    qubits: Tuple[int, ...]
    instructions: List[Instruction] = field(default_factory=list)
    members: List[int] = field(default_factory=list)

    @property
    def num_two_qubit_gates(self) -> int:
        """Number of 2Q gates in the block."""
        return sum(1 for instr in self.instructions if instr.is_two_qubit)

    def unitary(self) -> np.ndarray:
        """Unitary of the block on its (sorted) local qubits."""
        order = {q: i for i, q in enumerate(self.qubits)}
        dim = 2 ** len(self.qubits)
        operations = [
            (instruction.gate.matrix, [order[q] for q in instruction.qubits])
            for instruction in self.instructions
        ]
        return apply_gate_sequence(np.eye(dim, dtype=complex), operations, len(self.qubits))


def partition_into_blocks(
    instructions: Iterable[Instruction], block_size: int = 3
) -> List[MultiQubitBlock]:
    """Greedy partition of a 1Q/2Q program into blocks of ``block_size`` qubits.

    Every 2Q gate belongs to exactly one block; a 1Q gate joins the open
    block on its wire, if any, and otherwise (like any 3+-qubit gate) stays
    outside every block.  Blocks grow as long as adding the next gate keeps
    the block within ``block_size`` qubits and no intervening gate touched its
    qubits.
    """
    blocks: List[MultiQubitBlock] = []
    open_block: Dict[int, Optional[int]] = {}
    # Emission position of each qubit's most recent use: blocks are emitted at
    # their first member's position, so a block may only absorb a new qubit
    # whose last use was emitted strictly before that position (ordering
    # correctness).
    last_emission: Dict[int, int] = {}

    for position, instruction in enumerate(instructions):
        qubits = instruction.qubits
        if instruction.num_qubits > 2:
            for qubit in qubits:
                open_block[qubit] = None
                last_emission[qubit] = position
            continue
        if instruction.num_qubits == 1:
            index = open_block.get(qubits[0])
            if index is not None:
                blocks[index].instructions.append(instruction)
                blocks[index].members.append(position)
                last_emission[qubits[0]] = blocks[index].members[0]
            else:
                last_emission[qubits[0]] = position
            continue
        pair = tuple(sorted(qubits))
        indices = {open_block.get(q) for q in pair}
        indices.discard(None)
        if len(indices) == 1:
            index = indices.pop()
            block = blocks[index]
            start = block.members[0]
            union = tuple(sorted(set(block.qubits) | set(pair)))
            new_qubits = [q for q in pair if q not in block.qubits]
            safe = all(last_emission.get(q, -1) < start for q in new_qubits)
            if len(union) <= block_size and safe:
                block.qubits = union
                block.instructions.append(instruction)
                block.members.append(position)
                for qubit in pair:
                    open_block[qubit] = index
                    last_emission[qubit] = start
                continue
        # Otherwise start a fresh block on the pair; it replaces whatever
        # block either qubit was part of.
        blocks.append(MultiQubitBlock(qubits=pair, instructions=[instruction], members=[position]))
        for qubit in pair:
            open_block[qubit] = len(blocks) - 1
            last_emission[qubit] = position
    return blocks


def compactness(
    instructions: Iterable[Instruction], block_size: int = 3, threshold: int = 4
) -> float:
    """Partitioning compactness metric (Section 5.1.3).

    Fraction of two-qubit gates that land in blocks dense enough to be worth
    re-synthesizing (more than ``threshold`` 2Q gates).  Higher is better: an
    ideal partition concentrates gates into few, dense blocks.
    """
    blocks = partition_into_blocks(instructions, block_size=block_size)
    total = sum(block.num_two_qubit_gates for block in blocks)
    if total == 0:
        return 0.0
    dense = sum(
        block.num_two_qubit_gates
        for block in blocks
        if block.num_two_qubit_gates > threshold
    )
    return dense / total


def _commutator_norm(instr_a: Instruction, instr_b: Instruction) -> float:
    """Norm of the commutator of two 2Q gates embedded on their joint qubits."""
    qubits = sorted(set(instr_a.qubits) | set(instr_b.qubits))
    order = {q: i for i, q in enumerate(qubits)}
    dim = 2 ** len(qubits)
    a = apply_gate(np.eye(dim, dtype=complex), instr_a.gate.matrix, [order[q] for q in instr_a.qubits], len(qubits))
    b = apply_gate(np.eye(dim, dtype=complex), instr_b.gate.matrix, [order[q] for q in instr_b.qubits], len(qubits))
    return float(np.linalg.norm(a @ b - b @ a)) / dim


def dag_compacting(
    instructions: List[Instruction],
    block_size: int = 3,
    threshold: int = 4,
    commutation_tolerance: float = 1e-7,
    max_sweeps: int = 3,
) -> List[Instruction]:
    """Exchange (approximately) commuting adjacent SU(4)s to raise compactness.

    Two neighbouring 2Q gates that share one qubit and commute within
    ``commutation_tolerance`` may be exchanged; the exchange is kept when it
    improves the compactness metric of the subsequent partitioning.  Each
    sweep keeps at most the first improving exchange.  Returns
    ``instructions`` itself when no exchange helps, otherwise a new list.
    """
    current = instructions
    best_score = compactness(current, block_size=block_size, threshold=threshold)
    for _ in range(max_sweeps):
        improved = False
        for index in range(len(current) - 1):
            first, second = current[index], current[index + 1]
            if not (first.is_two_qubit and second.is_two_qubit):
                continue
            shared = set(first.qubits) & set(second.qubits)
            if len(shared) != 1:
                continue
            if _commutator_norm(first, second) > commutation_tolerance:
                continue
            candidate = current[:index] + [second, first] + current[index + 2 :]
            score = compactness(candidate, block_size=block_size, threshold=threshold)
            if score > best_score + 1e-12:
                current = candidate
                best_score = score
                improved = True
                break
        if not improved:
            break
    return current


class HierarchicalSynthesisPass(CompilerPass):
    """Two-tier partitioning + conditional approximate synthesis.

    When a :class:`~repro.service.cache.SynthesisCache` is supplied, each
    block's (expensive) numerical re-synthesis outcome — including the
    negative "synthesis did not help" outcome — is memoized by the exact
    bytes of the block unitary plus the solver settings, so identical dense
    blocks across a workload suite are synthesized exactly once.
    """

    name = "hierarchical_synthesis"

    def __init__(
        self,
        block_size: int = 3,
        threshold: int = 4,
        tolerance: float = 1e-6,
        enable_dag_compacting: bool = True,
        synthesizer: Optional[ApproximateSynthesizer] = None,
        cache: Optional[SynthesisCache] = None,
    ) -> None:
        self.block_size = block_size
        self.threshold = threshold
        self.tolerance = tolerance
        self.enable_dag_compacting = enable_dag_compacting
        self.synthesizer = synthesizer or ApproximateSynthesizer(
            tolerance=tolerance, restarts=2, seed=2026, max_iterations=300
        )
        self.cache = cache

    # ------------------------------------------------------------------
    def run(self, ir: CircuitIR, properties: Dict[str, Any]) -> None:
        consolidate_blocks(ir, form="unitary")
        if self.enable_dag_compacting:
            fused = list(ir.instructions())
            compacted = dag_compacting(fused, block_size=self.block_size, threshold=self.threshold)
            if compacted is not fused:
                ir.rewrite(compacted)
        nodes = list(ir.nodes())
        blocks = partition_into_blocks(ir.instructions(), block_size=self.block_size)
        for block in blocks:
            replacement = None
            if block.num_two_qubit_gates > self.threshold and len(block.qubits) >= 2:
                replacement = self._resynthesize(block)
            replace_run(ir, [nodes[position] for position in block.members], replacement)
        # Fuse any newly adjacent same-pair gates created by block rewrites.
        consolidate_blocks(ir, form="unitary")

    # ------------------------------------------------------------------
    def _resynthesize(self, block: MultiQubitBlock) -> Optional[List[Instruction]]:
        target = block.unitary()
        original_count = block.num_two_qubit_gates
        num_qubits = len(block.qubits)
        if self.cache is not None:
            local = self.cache.get_or_compute(
                self.cache_key(target, original_count),
                lambda: self._synthesize_local(target, num_qubits, original_count),
            )
        else:
            local = self._synthesize_local(target, num_qubits, original_count)
        if local is None:
            return None
        mapping = {local_q: phys for local_q, phys in enumerate(block.qubits)}
        return [instr.remap(mapping) for instr in local]

    def cache_key(self, target: np.ndarray, original_count: int) -> str:
        """:class:`SynthesisCache` key of one block's re-synthesis outcome.

        It carries the token of the active kernel backend's instantiation
        path, so a cache hit returns what a cold compile on that backend
        would emit.
        """
        synth = self.synthesizer
        return unitary_fingerprint(
            target,
            "hierarchical_synthesis",
            f"count={original_count}",
            f"tol={self.tolerance}",
            f"synth={synth.tolerance}:{synth.restarts}:{synth.seed}:{synth.max_iterations}",
            instantiation_token(),
        )

    def _synthesize_local(
        self, target: np.ndarray, num_qubits: int, original_count: int
    ) -> Optional[List[Instruction]]:
        """Synthesize ``target`` on local qubits; ``None`` when not worthwhile."""
        result = self.synthesizer.synthesize(
            target,
            num_qubits=num_qubits,
            max_blocks=min(original_count - 1, 6),
            min_blocks=min(3, max(original_count - 2, 1)),
        )
        if result is None or result.infidelity > self.tolerance:
            return None
        if result.two_qubit_count >= original_count:
            return None
        return list(result.circuit)
