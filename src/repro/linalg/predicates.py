"""Predicates and distance measures on matrices.

These are the basic validity checks and fidelity metrics used by the
synthesis engines, the microarchitecture solvers and the test suite.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.constants import ATOL


def is_unitary(matrix: np.ndarray, atol: float = ATOL) -> bool:
    """Return True if ``matrix`` is unitary within tolerance."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    identity = np.eye(matrix.shape[0])
    return bool(np.allclose(matrix.conj().T @ matrix, identity, atol=atol))


def is_special_unitary(matrix: np.ndarray, atol: float = ATOL) -> bool:
    """Return True if ``matrix`` is unitary with determinant 1."""
    if not is_unitary(matrix, atol=atol):
        return False
    return bool(abs(np.linalg.det(matrix) - 1.0) < max(atol, 1e-8))


def is_hermitian(matrix: np.ndarray, atol: float = ATOL) -> bool:
    """Return True if ``matrix`` is Hermitian within tolerance."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    return bool(np.allclose(matrix, matrix.conj().T, atol=atol))


def allclose_up_to_global_phase(
    a: np.ndarray, b: np.ndarray, atol: float = 1e-7
) -> bool:
    """Return True if ``a == exp(i phi) * b`` for some real ``phi``."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    # Find the entry of b with the largest magnitude to fix the phase.
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) < atol:
        return bool(np.allclose(a, b, atol=atol))
    phase = a[idx] / b[idx]
    if abs(abs(phase) - 1.0) > max(1e-6, atol):
        return False
    return bool(np.allclose(a, phase * b, atol=atol))


def process_fidelity(actual: np.ndarray, target: np.ndarray) -> float:
    """Entanglement (process) fidelity ``|Tr(target^dag actual)|^2 / d^2``."""
    actual = np.asarray(actual, dtype=complex)
    target = np.asarray(target, dtype=complex)
    dim = actual.shape[0]
    overlap = np.trace(target.conj().T @ actual)
    return float(np.abs(overlap) ** 2 / dim**2)


def average_gate_fidelity(actual: np.ndarray, target: np.ndarray) -> float:
    """Average gate fidelity ``(d F_pro + 1) / (d + 1)``."""
    dim = actual.shape[0]
    f_pro = process_fidelity(actual, target)
    return float((dim * f_pro + 1.0) / (dim + 1.0))


def unitary_infidelity(actual: np.ndarray, target: np.ndarray) -> float:
    """Infidelity ``1 - |Tr(target^dag actual)| / d``.

    This is the measure the paper uses for compilation error ("circuit
    infidelity") and for the stopping criterion of approximate synthesis.
    """
    actual = np.asarray(actual, dtype=complex)
    target = np.asarray(target, dtype=complex)
    dim = actual.shape[0]
    overlap = np.trace(target.conj().T @ actual)
    return float(1.0 - np.abs(overlap) / dim)


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius-norm distance between two matrices."""
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))
