"""Numerical approximate synthesis (the BQSKit-style kernel).

Given a small (2-4 qubit) target unitary, find a circuit made of two-qubit
blocks (parametrized canonical gates, or a fixed basis gate) interleaved with
``U3`` gates that matches the target within a configurable infidelity.  This
is the engine behind:

* the hierarchical-synthesis pass (re-synthesizing 3-qubit partitions with
  fewer SU(4) gates, Section 5.1),
* the template pre-synthesis of the program-aware pass (Section 5.2),
* fixed-basis decomposition of variational SU(4) gates (Section 5.3.1).

The structural search follows the paper's approach: try increasingly long
block sequences and numerically instantiate each (multi-start local
optimization of the continuous parameters); stop at the first structure that
reaches the requested precision.

Instantiation minimizes ``f = 1 - |tr(T^dagger U)| / d`` with L-BFGS-B on an
exact gradient: one forward sweep of prefix products and one backward sweep
of suffix products over the ansatz operations give, for every gate, the
partial trace its parameters' derivatives are dotted with (see
:func:`_infidelity_and_gradient`).  The kernel backend (``REPRO_KERNELS``,
see :mod:`repro.kernels`) picks who evaluates it: the native extension's
``instantiation_objective`` or the numpy fallback.  The two agree to 1e-12
but not bit for bit, so an optimizer run (and every result persisted from
it) is tagged with the token of the backend that ran.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import minimize

from repro.circuits.circuit import QuantumCircuit
from repro.gates import standard
from repro.kernels import instantiation_objective_native, select_backend
from repro.linalg.constants import COORD_TO_PHASE, MAGIC_BASIS, MAGIC_BASIS_DAG

__all__ = [
    "AnsatzBlock",
    "SynthesisResult",
    "ApproximateSynthesizer",
    "default_pair_order",
    "INSTANTIATION_TOKENS",
    "instantiation_token",
]

#: Names each numerical instantiation path, per kernel backend.  Results
#: one produces differ in their low bits from those of any other (or of any
#: earlier optimizer), so persisted results (synthesis-cache keys) carry the
#: token of the path that ran.
INSTANTIATION_TOKENS = {"py": "grad=analytic/1", "native": "grad=analytic/native/1"}


def instantiation_token() -> str:
    """Token of the active kernel backend's instantiation path."""
    return INSTANTIATION_TOKENS[select_backend()]


@dataclass(frozen=True)
class AnsatzBlock:
    """One two-qubit block of a synthesis ansatz.

    ``gate_name`` selects a fixed basis gate (``"sqisw"``, ``"b"``, ``"cx"``,
    ...); ``None`` makes the block a fully parametrized canonical gate (three
    continuous parameters).
    """

    pair: Tuple[int, int]
    gate_name: Optional[str] = None


@dataclass
class SynthesisResult:
    """A synthesized circuit together with its achieved precision."""

    circuit: QuantumCircuit
    infidelity: float
    parameters: np.ndarray
    blocks: Tuple[AnsatzBlock, ...]

    @property
    def two_qubit_count(self) -> int:
        """Number of two-qubit gates in the synthesized circuit."""
        return self.circuit.count_two_qubit_gates()


def default_pair_order(num_qubits: int) -> List[Tuple[int, int]]:
    """Round-robin ordering of qubit pairs used by the structural search."""
    pairs = list(itertools.combinations(range(num_qubits), 2))
    return pairs


#: Index of the always-zero slot appended to every gate's flattened matrix;
#: embedding entries that couple different spectator states point here.
_ZERO_SLOT = 16


@dataclass(frozen=True)
class _AnsatzPlan:
    """Index tables that turn one ansatz structure's parameters into gates.

    The ansatz is a sequence of ``K`` operations: one ``U3`` per qubit, then
    per block its 2Q gate and a ``U3`` on each of its two qubits.  Each
    operation's small matrix is stored flattened in a row of a ``(K, 17)``
    array (1Q gates use slots 0-3, 2Q gates 0-15, slot 16 is zero), and:

    * ``embed`` gathers that array into the ``(K, d, d)`` full matrices;
    * ``trace_u3`` / ``trace_can`` gather, from the ``(K, d, d)`` stack of
      ``E_k = P_{k-1} B_k`` products, the partial-trace terms whose sums give
      ``dtr(T^dagger U)/dg[a, b]`` for every entry of each parametrized gate.

    The native kernel reads the same structure per operation instead:
    ``kinds`` (:data:`_KIND_CODES`), ``qubits`` (``(K, 2)``, ``-1`` for the
    second qubit of a 1Q gate), ``offsets`` (first parameter, ``-1`` for a
    fixed gate) and, for fixed gates, their matrix in ``template``.
    """

    dim: int
    num_parameters: int
    embed: np.ndarray
    template: np.ndarray
    u3_ops: np.ndarray
    u3_params: np.ndarray
    trace_u3: np.ndarray
    can_ops: np.ndarray
    can_params: np.ndarray
    trace_can: np.ndarray
    kinds: np.ndarray
    qubits: np.ndarray
    offsets: np.ndarray


#: Operation kind codes of the native kernel; any other kind is a fixed gate (2).
_KIND_CODES = {"u3": 0, "can": 1}


def _operation_tables(
    num_qubits: int, qubits: Tuple[int, ...]
) -> Tuple[np.ndarray, np.ndarray]:
    """Embedding and partial-trace index tables of one gate on ``qubits``.

    Returns ``embed`` (``d x d``: full entry ``[i, j]`` is slot ``embed[i, j]``
    of the gate's flattened matrix) and ``trace`` (``s^2 x d/s`` flat
    positions in a ``d x d`` matrix ``E``): ``sum(E.flat[trace[m]])`` is the
    coefficient of slot ``m`` in ``tr(E G_full)``.
    """
    dim = 2**num_qubits
    size = 2 ** len(qubits)
    index = np.arange(dim)
    shifts = [num_qubits - 1 - q for q in qubits]
    local = sum(((index >> shift) & 1) << (len(qubits) - 1 - t) for t, shift in enumerate(shifts))
    spectator = index & ~sum(1 << shift for shift in shifts)
    same = spectator[:, None] == spectator[None, :]
    embed = np.where(same, local[:, None] * size + local[None, :], _ZERO_SLOT)
    # tr(E G) = sum_ij E[j, i] G[i, j]: slot m collects E at the transposed
    # positions of every (i, j) that embeds it.
    rows, cols = np.nonzero(same)
    slots = embed[rows, cols]
    order = np.argsort(slots, kind="stable")
    trace = (cols[order] * dim + rows[order]).reshape(size * size, dim // size)
    return embed, trace


def _ansatz_plan(num_qubits: int, blocks: Sequence[AnsatzBlock]) -> _AnsatzPlan:
    """The :class:`_AnsatzPlan` of ``blocks`` after a ``U3`` on every qubit."""
    dim = 2**num_qubits
    # (qubits, kind): "u3", "can" or a fixed gate name, in application order.
    operations: List[Tuple[Tuple[int, ...], str]] = [((q,), "u3") for q in range(num_qubits)]
    for block in blocks:
        operations.append((block.pair, block.gate_name or "can"))
        operations.extend(((q,), "u3") for q in block.pair)

    count = len(operations)
    embed = np.empty((count, dim, dim), dtype=np.intp)
    template = np.zeros((count, _ZERO_SLOT + 1), dtype=complex)
    positions: Dict[str, List[int]] = {"u3": [], "can": []}
    traces: Dict[str, List[np.ndarray]] = {"u3": [], "can": []}
    for position, (qubits, kind) in enumerate(operations):
        table, trace = _operation_tables(num_qubits, qubits)
        embed[position] = table + position * (_ZERO_SLOT + 1)
        if kind in positions:
            positions[kind].append(position)
            traces[kind].append(trace + position * dim * dim)
        else:
            template[position, :16] = standard.named_gate(kind).matrix.reshape(16)
    # Parametrized operations own consecutive parameter triples in order.
    parametrized = np.array([kind in positions for _, kind in operations])
    rank = np.cumsum(parametrized) - 1
    triples = {
        kind: 3 * rank[np.array(found, dtype=np.intp)][:, None] + np.arange(3)
        for kind, found in positions.items()
    }
    return _AnsatzPlan(
        dim=dim,
        num_parameters=3 * int(rank[-1] + 1),
        embed=embed,
        template=template,
        u3_ops=np.array(positions["u3"], dtype=np.intp),
        u3_params=triples["u3"],
        trace_u3=np.array(traces["u3"], dtype=np.intp).reshape(-1, 4, dim // 2),
        can_ops=np.array(positions["can"], dtype=np.intp),
        can_params=triples["can"],
        trace_can=np.array(traces["can"], dtype=np.intp).reshape(-1, 16, max(dim // 4, 1)),
        kinds=np.array([_KIND_CODES.get(kind, 2) for _, kind in operations], dtype=np.int64),
        qubits=np.array([(qubits + (-1,))[:2] for qubits, _ in operations], dtype=np.int64),
        offsets=np.where(parametrized, 3 * rank, -1).astype(np.int64),
    )


def _u3_with_derivatives(angles: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Flattened ``U3`` matrices ``(n, 4)`` and their ``d/d(theta, phi, lam)``.

    Same convention as :func:`repro.linalg.su2.u3_matrix`.
    """
    theta, phi, lam = angles.T
    cos = np.cos(theta / 2.0)
    sin = np.sin(theta / 2.0)
    e_phi = np.exp(1j * phi)
    e_lam = np.exp(1j * lam)
    e_both = np.exp(1j * (phi + lam))
    matrices = np.empty((len(angles), 4), dtype=complex)
    matrices[:, 0] = cos
    matrices[:, 1] = -e_lam * sin
    matrices[:, 2] = e_phi * sin
    matrices[:, 3] = e_both * cos
    derivatives = np.zeros((len(angles), 3, 4), dtype=complex)
    derivatives[:, 0, 0] = -0.5 * sin
    derivatives[:, 0, 1] = -0.5 * e_lam * cos
    derivatives[:, 0, 2] = 0.5 * e_phi * cos
    derivatives[:, 0, 3] = -0.5 * e_both * sin
    derivatives[:, 1, 2:] = 1j * matrices[:, 2:]
    derivatives[:, 2, 1] = 1j * matrices[:, 1]
    derivatives[:, 2, 3] = 1j * matrices[:, 3]
    return matrices, derivatives


def _can_with_derivatives(coords: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Flattened ``Can(x, y, z)`` matrices ``(n, 16)`` and ``d/d(x, y, z)``.

    ``Can = M diag(exp(-i C v)) M^dagger`` with ``C = COORD_TO_PHASE``, so
    ``dCan/dv_c = M diag(-i C[:, c] exp(-i C v)) M^dagger``.
    """
    diag = np.exp(-1j * (coords @ COORD_TO_PHASE.T))
    matrices = (MAGIC_BASIS * diag[:, None, :]) @ MAGIC_BASIS_DAG
    d_diag = -1j * COORD_TO_PHASE.T[None, :, :] * diag[:, None, :]
    derivatives = (MAGIC_BASIS * d_diag[:, :, None, :]) @ MAGIC_BASIS_DAG
    return matrices.reshape(-1, 16), derivatives.reshape(-1, 3, 16)


def _infidelity_and_gradient(
    params: np.ndarray, plan: _AnsatzPlan, target: np.ndarray
) -> Tuple[float, np.ndarray]:
    """``f = 1 - |tr(T^dagger U)| / d`` and its exact gradient.

    With ``P_k = G_k ... G_1`` and ``B_k = T^dagger G_K ... G_{k+1}``,
    ``A = tr(T^dagger U) = tr(B_k G_k P_{k-1})`` for every ``k``, so a
    parameter of ``G_k`` has ``dA = tr(P_{k-1} B_k dG_k)``: the partial trace
    of ``E_k = P_{k-1} B_k`` over the spectator qubits dotted with the small
    derivative matrix, and ``df = -Re(conj(A) dA) / (|A| d)``.
    """
    dim = plan.dim
    gates = plan.template.copy()
    u3, d_u3 = _u3_with_derivatives(params[plan.u3_params])
    can, d_can = _can_with_derivatives(params[plan.can_params])
    gates[plan.u3_ops, :4] = u3
    gates[plan.can_ops, :16] = can
    full = gates.reshape(-1)[plan.embed]

    count = full.shape[0]
    prefix = np.empty_like(full)  # prefix[k] = P_{k-1}
    suffix = np.empty_like(full)  # suffix[k] = B_k
    prefix[0] = np.eye(dim)
    for k in range(1, count):
        np.matmul(full[k - 1], prefix[k - 1], out=prefix[k])
    suffix[count - 1] = target.conj().T
    for k in range(count - 1, 0, -1):
        np.matmul(suffix[k], full[k], out=suffix[k - 1])
    overlap = np.vdot(target, full[count - 1] @ prefix[count - 1])

    products = (prefix @ suffix).reshape(-1)
    d_overlap_u3 = np.einsum("kpm,km->kp", d_u3, products[plan.trace_u3].sum(axis=-1))
    d_overlap_can = np.einsum("kpm,km->kp", d_can, products[plan.trace_can].sum(axis=-1))
    magnitude = abs(overlap)
    # At tr(T^dagger U) = 0 |A| has no derivative; any unit phase gives a
    # finite subgradient.
    phase = overlap.conjugate() / magnitude if magnitude > 0.0 else 1.0
    gradient = np.empty(plan.num_parameters)
    gradient[plan.u3_params] = -(phase * d_overlap_u3).real / dim
    gradient[plan.can_params] = -(phase * d_overlap_can).real / dim
    return 1.0 - magnitude / dim, gradient


def _native_infidelity_and_gradient(
    params: np.ndarray, plan: _AnsatzPlan, target: np.ndarray
) -> Tuple[float, np.ndarray]:
    """:func:`_infidelity_and_gradient` evaluated by the native kernel.

    Returns a fresh gradient array per call: scipy keeps the one it gets.
    """
    gradient = np.empty(plan.num_parameters)
    value = instantiation_objective_native(
        params, plan.kinds, plan.qubits, plan.offsets, plan.template, target, gradient
    )
    return value, gradient


#: The instantiation objective of each kernel backend.
_OBJECTIVES = {"py": _infidelity_and_gradient, "native": _native_infidelity_and_gradient}


class ApproximateSynthesizer:
    """Multi-start numerical instantiation plus structural search."""

    def __init__(
        self,
        tolerance: float = 1e-8,
        restarts: int = 3,
        seed: int = 0,
        max_iterations: int = 600,
    ) -> None:
        self.tolerance = tolerance
        self.restarts = restarts
        self.seed = seed
        self.max_iterations = max_iterations
        self._cache: Dict[tuple, SynthesisResult] = {}

    # ------------------------------------------------------------------
    @staticmethod
    def _build_circuit(
        params: np.ndarray, num_qubits: int, blocks: Sequence[AnsatzBlock]
    ) -> QuantumCircuit:
        circuit = QuantumCircuit(num_qubits, "approx_synthesis")
        cursor = 0
        for qubit in range(num_qubits):
            theta, phi, lam = params[cursor : cursor + 3]
            cursor += 3
            circuit.u3(theta, phi, lam, qubit)
        for block in blocks:
            if block.gate_name is None:
                x, y, z = params[cursor : cursor + 3]
                cursor += 3
                circuit.can(x, y, z, *block.pair)
            else:
                circuit.append(standard.named_gate(block.gate_name), block.pair)
            for qubit in block.pair:
                theta, phi, lam = params[cursor : cursor + 3]
                cursor += 3
                circuit.u3(theta, phi, lam, qubit)
        return circuit

    # ------------------------------------------------------------------
    # Numerical instantiation.
    # ------------------------------------------------------------------
    def instantiate(
        self,
        target: np.ndarray,
        num_qubits: int,
        blocks: Sequence[AnsatzBlock],
        initial_parameters: Optional[np.ndarray] = None,
    ) -> Optional[SynthesisResult]:
        """Optimize the continuous parameters of a fixed block structure.

        Returns the best result found (which may exceed the tolerance), or
        ``None`` when the optimizer failed outright.
        """
        target = np.asarray(target, dtype=complex)
        objective = _OBJECTIVES[select_backend()]
        plan = _ansatz_plan(num_qubits, blocks)
        num_params = plan.num_parameters
        rng = np.random.default_rng(self.seed)

        best_params: Optional[np.ndarray] = None
        best_value = math.inf
        starts: List[np.ndarray] = []
        if initial_parameters is not None:
            starts.append(np.asarray(initial_parameters, dtype=float))
        starts.append(np.zeros(num_params) + 0.1)
        while len(starts) < self.restarts + (1 if initial_parameters is not None else 0) + 1:
            starts.append(rng.uniform(-math.pi, math.pi, size=num_params))

        for start in starts:
            result = minimize(
                objective,
                x0=start,
                args=(plan, target),
                jac=True,
                method="L-BFGS-B",
                options={"maxiter": self.max_iterations, "ftol": 1e-16, "gtol": 1e-12},
            )
            value = float(result.fun)
            if value < best_value:
                best_value = value
                best_params = result.x
            if best_value <= self.tolerance:
                break
        if best_params is None:
            return None
        circuit = self._build_circuit(best_params, num_qubits, blocks)
        return SynthesisResult(
            circuit=circuit,
            infidelity=best_value,
            parameters=best_params,
            blocks=tuple(blocks),
        )

    # ------------------------------------------------------------------
    # Structural search.
    # ------------------------------------------------------------------
    def synthesize(
        self,
        target: np.ndarray,
        num_qubits: int,
        max_blocks: int,
        min_blocks: int = 0,
        pair_order: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> Optional[SynthesisResult]:
        """Find a short SU(4)-block circuit for ``target``.

        Block structures are linear sequences whose qubit pairs cycle through
        ``pair_order`` (all pairs by default).  The first structure reaching
        the tolerance wins; otherwise the best attempt is returned.  Results
        are memoized per synthesizer on the target (rounded to 1e-10), the
        block range, the pair order and the kernel backend.
        """
        target = np.asarray(target, dtype=complex)
        pairs = list(pair_order) if pair_order is not None else default_pair_order(num_qubits)
        cache_key = (np.round(target, 10).tobytes(), max_blocks, min_blocks, tuple(pairs), select_backend())
        if cache_key in self._cache:
            return self._cache[cache_key]
        best: Optional[SynthesisResult] = None
        for count in range(min_blocks, max_blocks + 1):
            blocks = [AnsatzBlock(pair=pairs[i % len(pairs)]) for i in range(count)]
            result = self.instantiate(target, num_qubits, blocks)
            if result is None:
                continue
            if best is None or result.infidelity < best.infidelity:
                best = result
            if result.infidelity <= self.tolerance:
                best = result
                break
        if best is not None:
            self._cache[cache_key] = best
        return best
