"""Finalization: express every fused SU(4) block in the ``{Can, U3}`` ISA.

This is the last logical-level pass of the Regulus pipeline: opaque ``su4``
unitary blocks (produced by fusion, template assembly, hierarchical synthesis
or routing absorption) are re-synthesized as one canonical gate plus
single-qubit corrections, and trivial (identity-class) blocks are dropped.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.circuits.instruction import Instruction
from repro.compiler.passes.base import CompilerPass
from repro.gates import standard
from repro.gates.gate import UnitaryGate
from repro.ir import CircuitIR
from repro.linalg.su2 import is_identity_class_batch, u3_params_batch
from repro.linalg.weyl import kak_decompose_batch

__all__ = ["FinalizeToCanPass"]


def _needs_synthesis(gate) -> bool:
    """True for 2Q gates that are not already a named ``can`` gate."""
    return gate.num_qubits == 2 and (isinstance(gate, UnitaryGate) or gate.name != "can")


class FinalizeToCanPass(CompilerPass):
    """Convert fused unitary blocks to ``{Can, U3}`` and drop trivial gates.

    One forward scan over the program:

    * every block awaiting synthesis is decomposed up front in a single
      batched KAK call (:func:`repro.linalg.weyl.kak_decompose_batch`) over
      the unique block matrices;
    * the scan keeps, per wire, the running 2x2 product of the original 1Q
      gates and the KAK local factors (``r1``/``r2`` before the ``Can``,
      ``l1``/``l2`` after it), and flushes a wire's product only where a 2Q
      gate is emitted and at the end.  An identity-class ``Can`` emits
      nothing: its ``l @ r`` folds into the running product;
    * all flushed products are stacked once: a vectorized identity-class
      test drops the trivial ones and a vectorized ZYZ extraction turns the
      rest into ``U3`` gates;
    * the program is rebuilt with one ``rewrite``.

    ``merge_single_qubit=False`` runs the same scan but flushes after every
    factor, so each original 1Q gate and each KAK factor becomes its own
    ``U3``.  Every batched step is composition-independent, so the output
    depends only on the program, never on how the work was batched.
    """

    name = "finalize_to_can"

    def __init__(self, merge_single_qubit: bool = True) -> None:
        self.merge_single_qubit = merge_single_qubit

    def run(self, ir: CircuitIR, properties: Dict[str, Any]) -> None:
        program = list(ir.instructions())
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

        # ``emitted`` holds instructions and, for flushed products, their
        # index into ``products`` (the wire is in ``flushed_wires``).
        emitted: List[Union[Instruction, int]] = []
        products: List[np.ndarray] = []
        flushed_wires: List[int] = []
        running: Dict[int, np.ndarray] = {}
        merge = self.merge_single_qubit

        def flush(qubit: int) -> None:
            product = running.pop(qubit, None)
            if product is not None:
                emitted.append(len(products))
                products.append(product)
                flushed_wires.append(qubit)

        def fold(qubit: int, matrix: np.ndarray) -> None:
            product = running.get(qubit)
            running[qubit] = matrix if product is None else matrix @ product
            if not merge:
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
            # Duplicate blocks share one decomposition, so they share one
            # immutable Can gate (``False``: identity class, no Can).
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
        ir.rewrite(
            u3s[entry] if isinstance(entry, int) else entry
            for entry in emitted
            if not isinstance(entry, int) or u3s[entry] is not None
        )
