"""Single-qubit (SU(2)) decompositions and parameterizations.

Provides the ZYZ Euler-angle decomposition and the ``U3(theta, phi, lam)``
parameterization used as the 1Q half of the ReQISC ``{Can, U3}`` ISA, plus
vectorized twins over ``(N, 2, 2)`` stacks (:func:`is_identity_class_batch`,
:func:`zyz_angles_batch`, :func:`u3_params_batch`).  The batched kernels use
only elementwise arithmetic, so an item's result never depends on which
other matrices share its batch.
"""

from __future__ import annotations

import cmath
import math
from typing import Tuple

import numpy as np

from repro.linalg.constants import ATOL

_EYE2 = np.eye(2, dtype=complex)


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    """Matrix of the ``U3`` gate.

    ``U3(theta, phi, lam) = [[cos(t/2), -e^{i lam} sin(t/2)],
    [e^{i phi} sin(t/2), e^{i (phi+lam)} cos(t/2)]]``
    """
    cos = math.cos(theta / 2.0)
    sin = math.sin(theta / 2.0)
    return np.array(
        [
            [cos, -cmath.exp(1j * lam) * sin],
            [cmath.exp(1j * phi) * sin, cmath.exp(1j * (phi + lam)) * cos],
        ],
        dtype=complex,
    )


def rz_matrix(angle: float) -> np.ndarray:
    """Matrix of ``RZ(angle) = exp(-i angle Z / 2)``."""
    return np.array(
        [[cmath.exp(-0.5j * angle), 0.0], [0.0, cmath.exp(0.5j * angle)]],
        dtype=complex,
    )


def ry_matrix(angle: float) -> np.ndarray:
    """Matrix of ``RY(angle) = exp(-i angle Y / 2)``."""
    cos = math.cos(angle / 2.0)
    sin = math.sin(angle / 2.0)
    return np.array([[cos, -sin], [sin, cos]], dtype=complex)


def rx_matrix(angle: float) -> np.ndarray:
    """Matrix of ``RX(angle) = exp(-i angle X / 2)``."""
    cos = math.cos(angle / 2.0)
    sin = math.sin(angle / 2.0)
    return np.array([[cos, -1j * sin], [-1j * sin, cos]], dtype=complex)


def zyz_angles(matrix: np.ndarray) -> Tuple[float, float, float, float]:
    """Decompose a single-qubit unitary into ZYZ Euler angles.

    Returns ``(alpha, theta, phi, lam)`` such that::

        matrix = exp(i alpha) RZ(phi) RY(theta) RZ(lam)

    Raises ``ValueError`` if the matrix is not a 2x2 unitary.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {matrix.shape}")
    det = np.linalg.det(matrix)
    if abs(abs(det) - 1.0) > 1e-6:
        raise ValueError("matrix is not unitary (|det| != 1)")
    # Remove the global phase so the remainder is in SU(2).
    alpha = cmath.phase(det) / 2.0
    su2 = matrix * cmath.exp(-1j * alpha)

    # su2 = [[cos(t/2) e^{-i(phi+lam)/2}, -sin(t/2) e^{-i(phi-lam)/2}],
    #        [sin(t/2) e^{+i(phi-lam)/2},  cos(t/2) e^{+i(phi+lam)/2}]]
    abs00 = min(1.0, max(0.0, abs(su2[0, 0])))
    theta = 2.0 * math.acos(abs00)
    if abs(su2[0, 0]) > ATOL and abs(su2[1, 0]) > ATOL:
        phi_plus_lam = 2.0 * cmath.phase(su2[1, 1])
        phi_minus_lam = 2.0 * cmath.phase(su2[1, 0])
        phi = (phi_plus_lam + phi_minus_lam) / 2.0
        lam = (phi_plus_lam - phi_minus_lam) / 2.0
    elif abs(su2[0, 0]) > ATOL:
        # theta ~ 0: only phi + lam matters.
        phi = 2.0 * cmath.phase(su2[1, 1])
        lam = 0.0
    else:
        # theta ~ pi: only phi - lam matters.
        phi = 2.0 * cmath.phase(su2[1, 0])
        lam = 0.0
    return alpha, theta, phi, lam


def su2_from_zyz(theta: float, phi: float, lam: float) -> np.ndarray:
    """Reconstruct ``RZ(phi) RY(theta) RZ(lam)``."""
    return rz_matrix(phi) @ ry_matrix(theta) @ rz_matrix(lam)


def zyz_to_u3(theta: float, phi: float, lam: float) -> Tuple[float, float, float, float]:
    """Convert ZYZ Euler angles to ``U3`` parameters plus a global phase.

    ``RZ(phi) RY(theta) RZ(lam) = exp(i gamma) U3(theta, phi, lam)`` with
    ``gamma = -(phi + lam) / 2``.
    """
    return -(phi + lam) / 2.0, theta, phi, lam


def u3_params_from_matrix(matrix: np.ndarray) -> Tuple[float, float, float, float]:
    """Return ``(global_phase, theta, phi, lam)`` with
    ``matrix = exp(i global_phase) U3(theta, phi, lam)``."""
    alpha, theta, phi, lam = zyz_angles(matrix)
    gamma, theta, phi, lam = zyz_to_u3(theta, phi, lam)
    return alpha + gamma, theta, phi, lam


def _as_stack(matrices: np.ndarray) -> np.ndarray:
    stack = np.asarray(matrices, dtype=complex)
    if stack.ndim != 3 or stack.shape[1:] != (2, 2):
        raise ValueError(f"expected an (N, 2, 2) stack, got shape {stack.shape}")
    return stack


def is_identity_class_batch(matrices: np.ndarray, atol: float = 1e-10) -> np.ndarray:
    """Vectorized ``allclose_up_to_global_phase(m, I, atol)`` over ``(N, 2, 2)``.

    The same predicate as the scalar call: the ``(0, 0)`` entry fixes the
    phase and must have modulus within ``max(1e-6, atol)`` of 1, then every
    entry must be ``np.allclose`` to ``m00 * I``.  Returns a boolean array.
    """
    stack = _as_stack(matrices)
    phase = stack[:, 0, 0]
    unit = np.abs(np.abs(phase) - 1.0) <= max(1e-6, atol)
    close = np.isclose(stack, phase[:, None, None] * _EYE2, atol=atol).all(axis=(1, 2))
    return unit & close


def zyz_angles_batch(
    matrices: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`zyz_angles` over ``(N, 2, 2)``: arrays ``(alpha, theta, phi, lam)``.

    Takes the same branches per item (generic, ``theta ~ 0``, ``theta ~ pi``)
    and raises ``ValueError`` if any item has ``|det| != 1``.
    """
    stack = _as_stack(matrices)
    det = stack[:, 0, 0] * stack[:, 1, 1] - stack[:, 0, 1] * stack[:, 1, 0]
    if np.any(np.abs(np.abs(det) - 1.0) > 1e-6):
        raise ValueError("matrix is not unitary (|det| != 1)")
    alpha = np.angle(det) / 2.0
    su2 = stack * np.exp(-1j * alpha)[:, None, None]
    abs00 = np.abs(su2[:, 0, 0])
    abs10 = np.abs(su2[:, 1, 0])
    theta = 2.0 * np.arccos(np.clip(abs00, 0.0, 1.0))
    arg11 = 2.0 * np.angle(su2[:, 1, 1])
    arg10 = 2.0 * np.angle(su2[:, 1, 0])
    generic = (abs00 > ATOL) & (abs10 > ATOL)
    phi = np.where(generic, (arg11 + arg10) / 2.0, np.where(abs00 > ATOL, arg11, arg10))
    lam = np.where(generic, (arg11 - arg10) / 2.0, 0.0)
    return alpha, theta, phi, lam


def u3_params_batch(
    matrices: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`u3_params_from_matrix`: arrays ``(global_phase, theta, phi, lam)``."""
    alpha, theta, phi, lam = zyz_angles_batch(matrices)
    return alpha - (phi + lam) / 2.0, theta, phi, lam
