"""Finalization: express every fused SU(4) block in the ``{Can, U3}`` ISA.

This is the last logical-level pass of the Regulus pipeline: opaque ``su4``
unitary blocks (produced by fusion, template assembly, hierarchical synthesis
or routing absorption) are re-synthesized as one canonical gate plus
single-qubit corrections, and trivial (identity-class) blocks are dropped.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.circuits.instruction import Instruction
from repro.compiler.passes.base import CompilerPass
from repro.gates import standard
from repro.gates.gate import UnitaryGate
from repro.ir import CircuitIR
from repro.linalg.su2 import is_identity_class_batch, u3_params_batch
from repro.linalg.weyl import kak_decompose_batch

__all__ = ["FinalizeToCanPass"]

# Instruction kinds of the finalize scan.
_ONE_QUBIT, _BLOCK, _OTHER = 0, 1, 2

# Event keys within one instruction's stride: the order a running-product
# scan sees them.  A block folds r1/r2, flushes both wires, emits its Can and
# folds l1/l2; another gate flushes its wires at 0, 1, ... and comes last.
_R1, _R2, _FLUSH0, _FLUSH1, _CAN, _L1, _L2 = range(7)


def _needs_synthesis(gate) -> bool:
    """True for 2Q gates that are not already a named ``can`` gate."""
    return gate.num_qubits == 2 and (isinstance(gate, UnitaryGate) or gate.name != "can")


def _segment_products(
    table: np.ndarray, factors: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """``table[factors[s + L - 1]] @ ... @ table[factors[s]]`` for each segment ``(s, L)``.

    Segments of equal length are multiplied together, one stacked 2x2
    matmul per factor, left-multiplying in program order: each product is
    bitwise the one a per-wire running product would hold.
    """
    products = np.empty((len(starts), 2, 2), dtype=complex)
    for length in np.unique(lengths).tolist():
        rows = np.flatnonzero(lengths == length)
        first = starts[rows]
        product = table[factors[first]]
        for step in range(1, length):
            product = table[factors[first + step]] @ product
        products[rows] = product
    return products


def _merge_segments(table, fold_wire, fold_key, fold_factor, flush_wire, flush_key, end):
    """Cut each wire's folds at its flushes: ``(close key, wire, product)`` per segment.

    Sorting the events by ``(wire, key)`` lines each wire up in program
    order; a segment is a run of folds, closed by the flush right after it
    (its emission key) or by the end of the program (key ``end`` plus its
    first fold's key, so open segments flush in the order they started).
    """
    is_fold = np.concatenate([np.ones(len(fold_key), bool), np.zeros(len(flush_key), bool)])
    wire = np.concatenate([fold_wire, flush_wire])
    key = np.concatenate([fold_key, flush_key])
    order = np.argsort(wire * end + key)
    wire, key, is_fold = wire[order], key[order], is_fold[order]
    factors = np.concatenate([fold_factor, np.zeros(len(flush_key), np.int64)])[order]
    joins = is_fold[1:] & is_fold[:-1] & (wire[1:] == wire[:-1])
    starts = np.flatnonzero(is_fold & ~np.concatenate([[False], joins]))
    stops = np.flatnonzero(is_fold & ~np.concatenate([joins, [False]])) + 1
    after = np.minimum(stops, len(key) - 1)
    closed = (stops < len(key)) & (wire[after] == wire[starts])
    close_key = np.where(closed, key[after], end + key[starts])
    return close_key, wire[starts], _segment_products(table, factors, starts, stops - starts)


class FinalizeToCanPass(CompilerPass):
    """Convert fused unitary blocks to ``{Can, U3}`` and drop trivial gates.

    Each wire carries a running product of the original 1Q gates and the
    KAK local factors (``r1``/``r2`` before a ``Can``, ``l1``/``l2`` after
    it); the product is flushed as one ``U3`` where a 2Q gate is emitted on
    the wire and at the end.  An identity-class ``Can`` emits nothing: its
    ``l @ r`` joins the running product.  The pass computes this as array
    work:

    * one Python pass over the program classifies each instruction and
      collects the unique block matrices, which are decomposed in a single
      batched KAK call (:func:`repro.linalg.weyl.kak_decompose_batch`);
    * every fold and flush becomes an event ``(wire, key)`` whose key orders
      the events as the running products would see them;
    * :func:`_merge_segments` cuts each wire into segments (the folds
      between two flushes) and multiplies each segment's factors out of one
      stacked factor table;
    * a vectorized identity-class test drops the trivial products, a
      vectorized ZYZ extraction turns the rest into ``U3`` gates, and the
      program is rebuilt in key order with one ``rewrite``.

    ``merge_single_qubit=False`` makes every fold its own segment, so each
    original 1Q gate and each KAK factor becomes its own ``U3``.  Every
    batched step is composition-independent, so the output depends only on
    the program, never on how the work was batched.
    """

    name = "finalize_to_can"

    def __init__(self, merge_single_qubit: bool = True) -> None:
        self.merge_single_qubit = merge_single_qubit

    def run(self, ir: CircuitIR, properties: Dict[str, Any]) -> None:
        program = list(ir.instructions())
        # Classify each distinct gate object once: (kind, index), the index
        # into the unique block matrices or the 1Q matrices, or the arity of
        # any other gate.
        slots: Dict[int, Tuple[int, int]] = {}
        block_index: Dict[bytes, int] = {}
        block_matrices: List[np.ndarray] = []
        one_qubit: List[np.ndarray] = []
        rows: List[Tuple[int, int, int, int]] = []  # (kind, index, q0, q1)
        for instruction in program:
            gate = instruction.gate
            slot = slots.get(id(gate))
            if slot is None:
                if gate.num_qubits == 1:
                    slot = (_ONE_QUBIT, len(one_qubit))
                    one_qubit.append(gate.matrix)
                elif _needs_synthesis(gate):
                    index = block_index.setdefault(gate.matrix.tobytes(), len(block_index))
                    if index == len(block_matrices):
                        block_matrices.append(gate.matrix)
                    slot = (_BLOCK, index)
                else:
                    slot = (_OTHER, gate.num_qubits)
                slots[id(gate)] = slot
            qubits = instruction.qubits
            rows.append(slot + (qubits[0], qubits[1] if len(qubits) > 1 else -1))
        if not rows:
            return
        decomposed = kak_decompose_batch(block_matrices) if block_matrices else []
        # ``False`` marks an identity-class block: no Can, the factors merge.
        can_gates = [
            standard.can_gate(*d.coordinates) if any(abs(c) > 1e-9 for c in d.coordinates) else False
            for d in decomposed
        ]
        # Factor table: r1, r2, l1, l2 of decomposition d at 4d..4d+3, then
        # the 1Q matrices.
        matrices = [m for d in decomposed for m in (d.r1, d.r2, d.l1, d.l2)] + one_qubit
        table = np.array(matrices, dtype=complex) if matrices else np.empty((0, 2, 2), complex)

        flat = np.fromiter(itertools.chain.from_iterable(rows), np.int64, 4 * len(rows))
        kind, index, q0, q1 = flat.reshape(-1, 4).T
        ones = np.flatnonzero(kind == _ONE_QUBIT)
        blocks = np.flatnonzero(kind == _BLOCK)
        others = np.flatnonzero(kind == _OTHER)
        nontrivial = np.array([can is not False for can in can_gates], dtype=bool)
        cans = blocks[nontrivial[index[blocks]]]
        stride = max(8, int(index[others].max(initial=0)) + 1)
        base = np.arange(len(rows), dtype=np.int64) * stride
        end = len(rows) * stride  # end-of-program flushes sort after every key

        factor = 4 * index[blocks]
        fold_wire = np.concatenate([q0[ones], q0[blocks], q1[blocks], q0[blocks], q1[blocks]])
        fold_key = np.concatenate(
            [base[ones], base[blocks] + _R1, base[blocks] + _R2, base[blocks] + _L1, base[blocks] + _L2]
        )
        fold_factor = np.concatenate(
            [4 * len(decomposed) + index[ones], factor, factor + 1, factor + 2, factor + 3]
        )
        emit_key = np.concatenate([base[cans] + _CAN, base[others] + stride - 1])
        can_qubits = [program[p].qubits for p in cans.tolist()]
        emitted = [Instruction.unchecked(can_gates[i], q) for i, q in zip(index[cans].tolist(), can_qubits)]
        emitted += [program[p] for p in others.tolist()]

        if self.merge_single_qubit:
            flush_wire = [q0[cans], q1[cans], q0[others], q1[others]]
            flush_key = [base[cans] + _FLUSH0, base[cans] + _FLUSH1, base[others], base[others] + 1]
            for p in others[index[others] > 2].tolist():
                extra = program[p].qubits[2:]
                flush_wire.append(np.array(extra, dtype=np.int64))
                flush_key.append(base[p] + 2 + np.arange(len(extra), dtype=np.int64))
            flush_wire, flush_key = np.concatenate(flush_wire), np.concatenate(flush_key)
            close_key, segment_wire, products = _merge_segments(
                table, fold_wire, fold_key, fold_factor, flush_wire, flush_key, end
            )
        else:
            close_key, segment_wire, products = fold_key, fold_wire, table[fold_factor]

        # Products in flush order (as the running-product scan stacks them);
        # drop identity-class ones and read U3 angles off the rest.
        flush_order = np.argsort(close_key)
        products = products[flush_order]
        keep = ~is_identity_class_batch(products)
        kept = flush_order[keep]
        _, thetas, phis, lams = u3_params_batch(products[keep])
        params = zip(thetas.tolist(), phis.tolist(), lams.tolist(), segment_wire[kept].tolist())
        u3s = [
            Instruction.unchecked(standard.u3_gate(theta, phi, lam), (qubit,))
            for theta, phi, lam, qubit in params
        ]
        output = u3s + emitted
        ranks = np.argsort(np.concatenate([close_key[kept], emit_key]))
        ir.rewrite(output[i] for i in ranks.tolist())
