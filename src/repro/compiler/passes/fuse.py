"""First-tier fusion: collect maximal two-qubit runs into SU(4) blocks."""

from __future__ import annotations

from typing import Any, Dict

from repro.compiler.passes.base import CompilerPass
from repro.ir import CircuitIR
from repro.synthesis.blocks import consolidate_blocks

__all__ = ["Fuse2QBlocksPass"]


class Fuse2QBlocksPass(CompilerPass):
    """Fuse maximal 2Q runs into single SU(4) operations.

    ``form`` selects the output representation: opaque ``su4`` blocks
    (``"unitary"``, default — kept opaque so later passes can keep fusing) or
    ``{Can, U3}`` (``"can"``).

    Each maximal run goes in where its first member stood
    (:func:`~repro.synthesis.blocks.consolidate_blocks`).
    """

    name = "fuse_2q_blocks"

    def __init__(self, form: str = "unitary") -> None:
        if form not in ("unitary", "can"):
            raise ValueError("form must be 'unitary' or 'can'")
        self.form = form

    def run(self, ir: CircuitIR, properties: Dict[str, Any]) -> None:
        if ir.max_gate_arity() > 2:
            raise ValueError(
                "Fuse2QBlocksPass expects a circuit with only 1Q/2Q gates; "
                "lower high-level gates first"
            )
        consolidate_blocks(ir, form=self.form)
