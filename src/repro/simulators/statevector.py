"""Dense statevector simulation.

Gates are applied by reshaping the state into a rank-``n`` tensor and
contracting the gate matrix against the target qubit axes.  Qubit 0 is the
most significant bit of the computational-basis index (big-endian), matching
the circuit/matrix convention of :mod:`repro.circuits`.

The axis bookkeeping (which axes move to the front for the contraction and
how to undo it) depends only on ``(num_qubits, qubits, batched)``, so the
forward/inverse permutations are precomputed once per signature and cached —
the per-gate work is then a cached-permutation transpose, one contraction
and the inverse transpose, with no ``np.moveaxis`` recomputation per call.

:func:`apply_gate_sequence` extends the same idea across a whole gate list:
instead of restoring the canonical axis order after every gate, the tensor
stays in whatever order the previous contraction left it and each gate's
permutation is composed relative to that — one transpose per gate instead of
two, with a single restoring transpose at the end.  The result is **exactly**
(bitwise) the per-gate loop's: a relative permutation only reorders the
columns of the ``(2^k, M)`` contraction, and each output element is the same
dot product either way.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit

__all__ = ["apply_gate", "apply_gate_sequence", "simulate_statevector", "probabilities"]

#: (num_qubits, qubits, batched) -> (forward permutation, inverse permutation)
_PERM_CACHE: Dict[Tuple[int, Tuple[int, ...], bool], Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}


def _axis_permutations(
    num_qubits: int, qubits: Tuple[int, ...], batched: bool
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Forward/inverse axis permutations moving ``qubits`` to the front."""
    key = (num_qubits, qubits, batched)
    cached = _PERM_CACHE.get(key)
    if cached is None:
        total_axes = num_qubits + (1 if batched else 0)
        remaining = [axis for axis in range(total_axes) if axis not in qubits]
        forward = tuple(qubits) + tuple(remaining)
        inverse = tuple(int(axis) for axis in np.argsort(forward))
        cached = (forward, inverse)
        _PERM_CACHE[key] = cached
    return cached


def apply_gate(
    state: np.ndarray,
    matrix: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Apply a ``2^k x 2^k`` gate ``matrix`` on ``qubits`` of ``state``.

    ``state`` may be a vector of length ``2^n`` or any array whose leading
    dimension factors as ``2^n`` times trailing batch dimensions reshaped
    away by the caller (the unitary simulator reuses this for matrices).
    """
    qubits = tuple(qubits)
    k = len(qubits)
    if matrix.shape != (2**k, 2**k):
        raise ValueError("gate matrix does not match the number of target qubits")
    total_dim = 2**num_qubits
    batch = state.size // total_dim
    batched = batch > 1
    forward, inverse = _axis_permutations(num_qubits, qubits, batched)
    tensor = np.reshape(state, [2] * num_qubits + ([batch] if batched else []))
    # Move the target axes to the front, contract, and move them back.
    tensor = tensor.transpose(forward)
    shape = tensor.shape
    tensor = np.reshape(tensor, (2**k, -1))
    tensor = matrix @ tensor
    tensor = np.reshape(tensor, shape).transpose(inverse)
    return np.reshape(tensor, state.shape)


#: (num_qubits, per-op qubit tuples, batched) -> (per-op permutations, final
#: restoring permutation).  Bounded FIFO: block unitaries re-apply the same
#: structures many times, but arbitrary circuit signatures
#: (simulate_statevector) must not accumulate forever.
_SEQ_PLAN_CACHE: Dict[tuple, tuple] = {}
_SEQ_PLAN_CAPACITY = 1024
_SEQ_PLAN_MAX_OPS = 64


def _sequence_plan(
    num_qubits: int, qubit_tuples: Tuple[Tuple[int, ...], ...], batched: bool
) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[int, ...]]:
    """Relative per-op permutations for :func:`apply_gate_sequence`."""
    key = (num_qubits, qubit_tuples, batched)
    cached = _SEQ_PLAN_CACHE.get(key)
    if cached is not None:
        return cached
    total_axes = num_qubits + (1 if batched else 0)
    order = list(range(total_axes))  # order[position] = original axis
    steps = []
    for qubits in qubit_tuples:
        position = {axis: index for index, axis in enumerate(order)}
        front = [position[q] for q in qubits]
        chosen = set(front)
        perm = tuple(front + [p for p in range(total_axes) if p not in chosen])
        steps.append(perm)
        order = [order[p] for p in perm]
    position = {axis: index for index, axis in enumerate(order)}
    final = tuple(position[axis] for axis in range(total_axes))
    plan = (tuple(steps), final)
    if len(qubit_tuples) <= _SEQ_PLAN_MAX_OPS:
        if len(_SEQ_PLAN_CACHE) >= _SEQ_PLAN_CAPACITY:
            del _SEQ_PLAN_CACHE[next(iter(_SEQ_PLAN_CACHE))]
        _SEQ_PLAN_CACHE[key] = plan
    return plan


def apply_gate_sequence(
    state: np.ndarray,
    operations: Iterable[Tuple[np.ndarray, Sequence[int]]],
    num_qubits: int,
) -> np.ndarray:
    """Apply ``(matrix, qubits)`` operations in order (batched fast path).

    Bitwise-identical to folding :func:`apply_gate` over ``operations`` —
    see the module docstring — but performs one transpose per gate instead
    of two by keeping the tensor in the axis order the previous contraction
    produced.  This is the kernel behind the unitary-accumulation loops of
    hierarchical synthesis and block consolidation.
    """
    operations = [(matrix, tuple(qubits)) for matrix, qubits in operations]
    if not operations:
        return state
    total_dim = 2**num_qubits
    batch = state.size // total_dim
    batched = batch > 1
    qubit_tuples = tuple(qubits for _, qubits in operations)
    steps, final = _sequence_plan(num_qubits, qubit_tuples, batched)
    tensor = np.reshape(state, [2] * num_qubits + ([batch] if batched else []))
    for (matrix, qubits), perm in zip(operations, steps):
        k = len(qubits)
        if matrix.shape != (2**k, 2**k):
            raise ValueError("gate matrix does not match the number of target qubits")
        tensor = tensor.transpose(perm)
        shape = tensor.shape
        tensor = np.reshape(tensor, (2**k, -1))
        tensor = matrix @ tensor
        tensor = np.reshape(tensor, shape)
    tensor = tensor.transpose(final)
    return np.reshape(tensor, state.shape)


def simulate_statevector(
    circuit: QuantumCircuit,
    initial_state: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Run ``circuit`` on ``|0...0>`` (or ``initial_state``) and return the result."""
    dim = 2**circuit.num_qubits
    if initial_state is None:
        state = np.zeros(dim, dtype=complex)
        state[0] = 1.0
    else:
        state = np.asarray(initial_state, dtype=complex).copy()
        if state.shape != (dim,):
            raise ValueError(f"initial state must have length {dim}")
    return apply_gate_sequence(
        state,
        [(instruction.gate.matrix, instruction.qubits) for instruction in circuit],
        circuit.num_qubits,
    )


def probabilities(state: np.ndarray) -> np.ndarray:
    """Measurement probabilities of a statevector in the computational basis."""
    return np.abs(np.asarray(state)) ** 2
