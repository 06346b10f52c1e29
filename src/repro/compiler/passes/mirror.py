"""Compile-time gate mirroring for near-identity SU(4) gates (Section 4.3).

Gates whose Weyl coordinates lie close to the origin would require unbounded
drive amplitudes to execute in optimal time.  The pass composes each such
gate with a logical SWAP (moving it to the far side of the chamber) and
tracks the induced qubit relabelling, so no extra two-qubit gate is emitted.
The accumulated permutation is stored in the pass properties under
``"mirror_permutation"`` (mapping logical qubit -> output wire).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.circuits.instruction import Instruction
from repro.compiler.passes.base import CompilerPass
from repro.gates import standard
from repro.gates.gate import UnitaryGate
from repro.ir import CircuitIR
from repro.linalg.weyl import (
    canonicalize_coordinates,
    is_near_identity,
    kak_decompose_batch,
    weyl_coordinates,
)

__all__ = ["MirrorNearIdentityPass"]

_SWAP = standard.swap_gate().matrix


class MirrorNearIdentityPass(CompilerPass):
    """Replace near-identity 2Q gates with their SWAP-composed mirrors.

    The near-identity decision is made once per unique
    explicit-matrix 2Q gate, in one batched KAK call, before the permutation
    scan; when any gate is mirrored, the scanned program (mirrored gates,
    gates on permuted wires, untouched gates) is installed with one
    ``rewrite``.
    """

    name = "mirror_near_identity"

    def __init__(self, threshold: float = 0.15) -> None:
        self.threshold = threshold

    def run(self, ir: CircuitIR, properties: Dict[str, Any]) -> None:
        program = list(ir.instructions())
        decisions = self._decide([instruction.gate for instruction in program])
        permutation: List[int] = list(range(ir.num_qubits))
        mirrored_count = 0
        output: List[Instruction] = []
        for instruction, mirror in zip(program, decisions):
            wires = tuple([permutation[q] for q in instruction.qubits])
            gate = instruction.gate
            if mirror:
                mirrored = UnitaryGate(_SWAP @ gate.matrix, label="su4")
                output.append(Instruction.unchecked(mirrored, wires))
                # The logical SWAP is resolved by exchanging the wires that
                # the two logical qubits map to from here on.
                a, b = instruction.qubits
                permutation[a], permutation[b] = permutation[b], permutation[a]
                mirrored_count += 1
            elif wires != instruction.qubits:
                output.append(Instruction.unchecked(gate, wires))
            else:
                output.append(instruction)
        if mirrored_count:  # otherwise no wire moved
            ir.rewrite(output)
        properties["mirror_permutation"] = list(permutation)
        properties["mirrored_gate_count"] = mirrored_count

    def _decide(self, gates: List[Any]) -> List[bool]:
        """Near-identity decision per gate (``False`` for non-2Q gates).

        ``can`` gates read their coordinates straight from the parameters.
        Every other 2Q gate is decided once per unique matrix, keyed by its
        exact bytes, in one batched Weyl-coordinate computation.
        """
        keys: List[Optional[bytes]] = []
        unique: Dict[bytes, Any] = {}
        for gate in gates:
            if gate.num_qubits != 2 or (gate.name == "can" and not isinstance(gate, UnitaryGate)):
                keys.append(None)
                continue
            content = gate.matrix.tobytes()
            keys.append(content)
            unique.setdefault(content, gate)
        decided = dict(zip(unique, self._near_identity(list(unique.values())))) if unique else {}
        return [
            decided[key]
            if key is not None
            else gate.num_qubits == 2 and is_near_identity(tuple(gate.params), self.threshold)
            for gate, key in zip(gates, keys)
        ]

    def _near_identity(self, gates) -> List[bool]:
        """Batched near-identity test; per-item scalar fallback if the batch raises."""
        try:
            decompositions = kak_decompose_batch([gate.matrix for gate in gates], validate=False)
        except ValueError:  # includes LinAlgError
            # A malformed block fails the whole batch; deciding each gate on
            # its own keeps one bad gate from failing the compile.
            return [self._near_identity_scalar(gate) for gate in gates]
        return [
            is_near_identity(canonicalize_coordinates(*d.coordinates), self.threshold)
            for d in decompositions
        ]

    def _near_identity_scalar(self, gate) -> bool:
        try:
            coords = weyl_coordinates(gate.matrix)
        except Exception:
            return False
        return is_near_identity(coords, self.threshold)
