"""Exact two-qubit synthesis.

Three target forms are supported:

* ``{Can, U3}`` — the ReQISC SU(4) ISA: one canonical gate plus four ``U3``
  corrections, obtained directly from the KAK decomposition.
* ``{CX, U3}`` — the conventional CNOT ISA: 0-3 CNOTs depending on the Weyl
  coordinates (Shende-Bullock-Markov optimal counts), used by the baseline
  compilers for block re-synthesis.
* fixed-basis ISAs (``SQiSW``, ``B``, ...) — k applications of a fixed 2Q
  basis gate with numerically instantiated 1Q interleavers; used for the
  variational-workload calibration trade-off of Section 5.3.1.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import least_squares

from repro.circuits.circuit import QuantumCircuit
from repro.linalg.predicates import allclose_up_to_global_phase
from repro.linalg.su2 import u3_params_from_matrix
from repro.linalg.weyl import (
    canonical_gate,
    kak_decompose,
    makhlin_invariants,
    weyl_coordinates,
)

__all__ = [
    "two_qubit_to_can_circuit",
    "two_qubit_to_can_circuits_batch",
    "two_qubit_to_cnot_circuit",
    "canonical_to_cnot_circuit",
    "two_qubit_to_fixed_basis_circuit",
    "cnot_count_for_coordinates",
]

PI_4 = math.pi / 4.0
_ATOL = 1e-8


def _append_u3(circuit: QuantumCircuit, matrix: np.ndarray, qubit: int) -> None:
    """Append a 2x2 unitary as a ``U3`` gate, dropping identity-like factors."""
    if allclose_up_to_global_phase(matrix, np.eye(2), atol=1e-10):
        return
    _, theta, phi, lam = u3_params_from_matrix(matrix)
    circuit.u3(theta, phi, lam, qubit)


def _can_circuit_from_decomposition(
    decomposition, qubits: Sequence[int], num_qubits: int
) -> QuantumCircuit:
    """``U3 - Can - U3`` circuit realizing a :class:`KAKDecomposition`."""
    q0, q1 = qubits
    circuit = QuantumCircuit(num_qubits, "can_synthesis")
    _append_u3(circuit, decomposition.r1, q0)
    _append_u3(circuit, decomposition.r2, q1)
    coords = decomposition.coordinates
    if any(abs(c) > 1e-9 for c in coords):
        circuit.can(*coords, q0, q1)
    _append_u3(circuit, decomposition.l1, q0)
    _append_u3(circuit, decomposition.l2, q1)
    return circuit


def two_qubit_to_can_circuit(
    unitary: np.ndarray, qubits: Sequence[int] = (0, 1), num_qubits: int = 2
) -> QuantumCircuit:
    """Synthesize a 4x4 unitary into ``U3 - Can - U3`` form (the ReQISC ISA).

    Identity-class targets produce no two-qubit gate at all.
    """
    decomposition = kak_decompose(np.asarray(unitary, dtype=complex))
    return _can_circuit_from_decomposition(decomposition, qubits, num_qubits)


def two_qubit_to_can_circuits_batch(
    unitaries: Sequence[np.ndarray],
    qubits: Sequence[int] = (0, 1),
    num_qubits: int = 2,
) -> list:
    """Batched :func:`two_qubit_to_can_circuit` over N unitaries.

    The KAK decompositions run as one vectorized batch
    (:func:`repro.linalg.weyl.kak_decompose_batch`, exact-bytes
    deduplicated); the circuit assembly is per item.  Used by block
    consolidation, which collects all blocks awaiting synthesis and
    decomposes them in one call.
    """
    from repro.linalg.weyl import kak_decompose_batch

    decompositions = kak_decompose_batch(
        [np.asarray(u, dtype=complex) for u in unitaries]
    )
    return [
        _can_circuit_from_decomposition(decomposition, qubits, num_qubits)
        for decomposition in decompositions
    ]


def cnot_count_for_coordinates(coords: Sequence[float], atol: float = 1e-8) -> int:
    """Minimal CNOT count for a gate class (Shende-Bullock-Markov)."""
    x, y, z = coords
    if abs(x) < atol and abs(y) < atol and abs(z) < atol:
        return 0
    if abs(x - PI_4) < atol and abs(y) < atol and abs(z) < atol:
        return 1
    if abs(z) < atol:
        return 2
    return 3


def _cx_core_two(x: float, y: float) -> QuantumCircuit:
    """Two-CNOT core realizing the class ``(x, y, 0)``.

    ``CX (RX(2x) (x) RZ(2y)) CX = exp(-i (x XX + y ZZ))`` which is locally
    equivalent to ``Can(x, y, 0)``.
    """
    circuit = QuantumCircuit(2, "cx_core2")
    circuit.cx(0, 1)
    circuit.rx(2.0 * x, 0)
    circuit.rz(2.0 * y, 1)
    circuit.cx(0, 1)
    return circuit


def _three_cnot_skeleton(params: Sequence[float]) -> QuantumCircuit:
    """Three-CNOT skeleton with fully parametrized middle 1Q layers.

    Three CNOTs interleaved with arbitrary single-qubit gates realize every
    two-qubit gate class; the outer local layers are supplied later by the
    dressing step, so only the two middle layers (4 U3 gates, 12 parameters)
    are free here.
    """
    p = list(params)
    circuit = QuantumCircuit(2, "cx_core3")
    circuit.cx(0, 1)
    circuit.u3(p[0], p[1], p[2], 0)
    circuit.u3(p[3], p[4], p[5], 1)
    circuit.cx(1, 0)
    circuit.u3(p[6], p[7], p[8], 0)
    circuit.u3(p[9], p[10], p[11], 1)
    circuit.cx(0, 1)
    return circuit


@lru_cache(maxsize=4096)
def _cx_core_three_params(x: float, y: float, z: float) -> Tuple[float, ...]:
    """Middle-layer parameters of the three-CNOT core for class ``(x, y, z)``.

    Found by a small multi-start numerical solve matching the Makhlin
    invariants of the skeleton to the target class; results are cached per
    coordinate triple.
    """
    target = canonical_gate(x, y, z)
    target_g1, target_g2 = makhlin_invariants(target)

    def residual(params: np.ndarray) -> np.ndarray:
        g1, g2 = makhlin_invariants(_three_cnot_skeleton(params).to_unitary())
        return np.array([(g1 - target_g1).real, (g1 - target_g1).imag, g2 - target_g2])

    rng = np.random.default_rng(17)
    seeds = [
        np.array([2 * x, 0, 0, 2 * y, 0, 0, 2 * z, 0, 0, 0.3, 0, 0]),
        np.zeros(12) + 0.4,
    ]
    seeds.extend(rng.uniform(-math.pi, math.pi, size=(8, 12)))
    best: Optional[np.ndarray] = None
    best_norm = math.inf
    for seed in seeds:
        result = least_squares(
            residual, x0=seed, xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=300
        )
        norm = float(np.linalg.norm(residual(result.x)))
        if norm < best_norm:
            best, best_norm = result.x, norm
        if best_norm < 1e-11:
            break
    if best is None or best_norm > 1e-7:
        raise RuntimeError(
            f"three-CNOT core solve failed for coordinates ({x}, {y}, {z}); residual {best_norm:.2e}"
        )
    return tuple(float(v) for v in best)


def _cx_core_three(x: float, y: float, z: float) -> QuantumCircuit:
    """Three-CNOT core circuit realizing the class ``(x, y, z)``."""
    params = _cx_core_three_params(round(x, 12), round(y, 12), round(z, 12))
    return _three_cnot_skeleton(params)


def canonical_to_cnot_circuit(x: float, y: float, z: float) -> QuantumCircuit:
    """CNOT-ISA circuit (on 2 qubits) locally equivalent to ``Can(x, y, z)``."""
    count = cnot_count_for_coordinates((x, y, z))
    if count == 0:
        return QuantumCircuit(2, "cx_core0")
    if count == 1:
        circuit = QuantumCircuit(2, "cx_core1")
        circuit.cx(0, 1)
        return circuit
    if count == 2:
        return _cx_core_two(x, y)
    if abs(x - PI_4) < _ATOL and abs(y - PI_4) < _ATOL and abs(abs(z) - PI_4) < _ATOL:
        # SWAP class: the numerical core solve is ill-conditioned exactly at
        # this chamber corner, but the exact three-CNOT SWAP circuit is known.
        circuit = QuantumCircuit(2, "cx_core3")
        circuit.cx(0, 1)
        circuit.cx(1, 0)
        circuit.cx(0, 1)
        return circuit
    return _cx_core_three(x, y, z)


def _dress_core_to_target(
    target: np.ndarray, core: QuantumCircuit, qubits: Sequence[int], num_qubits: int
) -> QuantumCircuit:
    """Add the 1Q corrections turning ``core`` (same gate class) into ``target``."""
    from repro.linalg.weyl import boundary_mirror_decomposition

    q0, q1 = qubits
    target_kak = kak_decompose(np.asarray(target, dtype=complex))
    core_unitary = core.to_unitary() if len(core) else np.eye(4, dtype=complex)
    core_kak = kak_decompose(core_unitary)
    mismatch = np.max(np.abs(np.array(core_kak.coordinates) - np.array(target_kak.coordinates)))
    if mismatch > 1e-5:
        mirrored = boundary_mirror_decomposition(core_kak)
        mirrored_mismatch = np.max(
            np.abs(np.array(mirrored.coordinates) - np.array(target_kak.coordinates))
        )
        if mirrored_mismatch < mismatch:
            core_kak = mirrored
    circuit = QuantumCircuit(num_qubits, "cnot_synthesis")
    # target = (L_t) Can (R_t); core = (L_c) Can (R_c)
    #  => target ~ (L_t L_c^dag) core (R_c^dag R_t).
    _append_u3(circuit, core_kak.r1.conj().T @ target_kak.r1, q0)
    _append_u3(circuit, core_kak.r2.conj().T @ target_kak.r2, q1)
    circuit.compose(core, qubits=[q0, q1])
    _append_u3(circuit, target_kak.l1 @ core_kak.l1.conj().T, q0)
    _append_u3(circuit, target_kak.l2 @ core_kak.l2.conj().T, q1)
    return circuit


def two_qubit_to_cnot_circuit(
    unitary: np.ndarray, qubits: Sequence[int] = (0, 1), num_qubits: int = 2
) -> QuantumCircuit:
    """Synthesize a 4x4 unitary into the CNOT ISA with the minimal CNOT count."""
    unitary = np.asarray(unitary, dtype=complex)
    coords = weyl_coordinates(unitary)
    core = canonical_to_cnot_circuit(*coords)
    return _dress_core_to_target(unitary, core, qubits, num_qubits)


def two_qubit_to_fixed_basis_circuit(
    unitary: np.ndarray,
    basis_gate_name: str = "sqisw",
    qubits: Sequence[int] = (0, 1),
    num_qubits: int = 2,
    max_applications: int = 3,
    tolerance: float = 1e-8,
) -> QuantumCircuit:
    """Synthesize a 4x4 unitary with repeated applications of a fixed 2Q basis.

    Tries 0, 1, ..., ``max_applications`` applications (interleaved with
    numerically instantiated ``U3`` gates) and returns the first circuit that
    reaches ``tolerance`` infidelity.  Used for the calibration-friendly
    decomposition of variational SU(4) gates (Section 5.3.1).
    """
    from repro.synthesis.approximate import AnsatzBlock, ApproximateSynthesizer

    unitary = np.asarray(unitary, dtype=complex)
    coords = weyl_coordinates(unitary)
    if all(abs(c) < 1e-9 for c in coords):
        # Locally trivial target: the KAK local factors compose directly.
        decomposition = kak_decompose(unitary)
        circuit = QuantumCircuit(num_qubits, f"{basis_gate_name}_synthesis")
        _append_u3(circuit, decomposition.l1 @ decomposition.r1, qubits[0])
        _append_u3(circuit, decomposition.l2 @ decomposition.r2, qubits[1])
        return circuit

    synthesizer = ApproximateSynthesizer(tolerance=tolerance, restarts=4, seed=11)
    for count in range(1, max_applications + 1):
        blocks = [AnsatzBlock(pair=(0, 1), gate_name=basis_gate_name) for _ in range(count)]
        result = synthesizer.instantiate(unitary, num_qubits=2, blocks=blocks)
        if result is not None and result.infidelity <= tolerance:
            circuit = QuantumCircuit(num_qubits, f"{basis_gate_name}_synthesis")
            circuit.compose(result.circuit, qubits=list(qubits))
            return circuit
    raise RuntimeError(
        f"could not synthesize target with <= {max_applications} {basis_gate_name} gates"
    )
