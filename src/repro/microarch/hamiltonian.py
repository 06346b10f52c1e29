"""Two-qubit coupling Hamiltonians and their canonical normal form.

The genAshN scheme works in the canonical frame where the coupling reads
``H_c = a XX + b YY + c ZZ`` with ``a >= b >= |c|`` (Eq. (2) / (8) of the
paper).  Arbitrary two-qubit coupling Hamiltonians are brought into this form
by the :meth:`CouplingHamiltonian.from_matrix` constructor, which also
extracts the single-qubit frame change ``(U1, U2)`` and the residual local
fields ``(H'_1, H'_2)`` used by Algorithm 1 (line 2 and lines 35-37).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.linalg.constants import IDENTITY2, PAULIS, PAULI_X, PAULI_Y, PAULI_Z
from repro.linalg.predicates import is_hermitian

__all__ = ["CouplingHamiltonian", "su2_from_rotation", "rotation_from_su2"]


def rotation_from_su2(u: np.ndarray) -> np.ndarray:
    """SO(3) adjoint-action matrix of a single-qubit unitary.

    ``R[k, m]`` is defined by ``u sigma_m u^dag = sum_k R[k, m] sigma_k``.
    """
    rotation = np.zeros((3, 3))
    for m, sigma_m in enumerate(PAULIS):
        conjugated = u @ sigma_m @ u.conj().T
        for k, sigma_k in enumerate(PAULIS):
            rotation[k, m] = 0.5 * np.real(np.trace(sigma_k @ conjugated))
    return rotation


def su2_from_rotation(rotation: np.ndarray) -> np.ndarray:
    """SU(2) element whose adjoint action equals the given SO(3) rotation.

    The result is defined up to a sign; the principal branch is returned.
    """
    rotation = np.asarray(rotation, dtype=float)
    trace = np.clip((np.trace(rotation) - 1.0) / 2.0, -1.0, 1.0)
    angle = math.acos(trace)
    if angle < 1e-12:
        return IDENTITY2.copy()
    if abs(angle - math.pi) < 1e-9:
        # Rotation by pi: the axis is the unit eigenvector with eigenvalue +1.
        symmetric = (rotation + np.eye(3)) / 2.0
        column = int(np.argmax(np.diag(symmetric)))
        axis = symmetric[:, column]
        axis = axis / np.linalg.norm(axis)
    else:
        axis = np.array(
            [
                rotation[2, 1] - rotation[1, 2],
                rotation[0, 2] - rotation[2, 0],
                rotation[1, 0] - rotation[0, 1],
            ]
        ) / (2.0 * math.sin(angle))
    generator = axis[0] * PAULI_X + axis[1] * PAULI_Y + axis[2] * PAULI_Z
    return math.cos(angle / 2.0) * IDENTITY2 - 1j * math.sin(angle / 2.0) * generator


def _complex_to_lists(matrix: np.ndarray) -> list:
    """``[[ [re, im], ... ], ...]`` representation of a complex matrix."""
    return [[[float(entry.real), float(entry.imag)] for entry in row] for row in np.asarray(matrix, dtype=complex)]


def _lists_to_complex(rows: list) -> np.ndarray:
    """Inverse of :func:`_complex_to_lists`."""
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)


def _pauli_decomposition(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Decompose a 4x4 Hermitian matrix in the two-qubit Pauli basis.

    Returns ``(coupling, field1, field2, identity_coefficient)`` where
    ``coupling[k, l]`` multiplies ``sigma_k (x) sigma_l`` and ``field1/2`` are
    the single-qubit field vectors.
    """
    paulis = (IDENTITY2,) + PAULIS
    coeffs = np.zeros((4, 4))
    for i, sigma_i in enumerate(paulis):
        for j, sigma_j in enumerate(paulis):
            op = np.kron(sigma_i, sigma_j)
            coeffs[i, j] = 0.25 * np.real(np.trace(op.conj().T @ matrix))
    coupling = coeffs[1:, 1:]
    field1 = coeffs[1:, 0]
    field2 = coeffs[0, 1:]
    return coupling, field1, field2, float(coeffs[0, 0])


@dataclass
class CouplingHamiltonian:
    """A two-qubit coupling Hamiltonian in canonical normal form.

    Attributes
    ----------
    a, b, c:
        Canonical coupling coefficients with ``a >= b >= |c|``.
    u1, u2:
        Single-qubit frame-change unitaries such that the physical coupling is
        ``(u1 (x) u2) (a XX + b YY + c ZZ) (u1 (x) u2)^dag`` plus local fields.
    local_field_1, local_field_2:
        Residual single-qubit Hermitian operators (``H'_1``, ``H'_2``).
    identity_offset:
        Coefficient of the identity term (only contributes a global phase).
    label:
        Human-readable label for reporting.
    """

    a: float
    b: float
    c: float
    u1: np.ndarray = field(default_factory=lambda: IDENTITY2.copy())
    u2: np.ndarray = field(default_factory=lambda: IDENTITY2.copy())
    local_field_1: np.ndarray = field(default_factory=lambda: np.zeros((2, 2), dtype=complex))
    local_field_2: np.ndarray = field(default_factory=lambda: np.zeros((2, 2), dtype=complex))
    identity_offset: float = 0.0
    label: str = "custom"

    def __post_init__(self) -> None:
        if not (self.a >= self.b >= abs(self.c) - 1e-12):
            raise ValueError(
                f"coefficients must satisfy a >= b >= |c|, got ({self.a}, {self.b}, {self.c})"
            )
        if self.a <= 0:
            raise ValueError("the leading coupling coefficient must be positive")

    # -- constructors --------------------------------------------------------
    @classmethod
    def xy(cls, strength: float = 1.0) -> "CouplingHamiltonian":
        """XY coupling ``(g/2)(XX + YY)`` — flux-tunable transmons (default)."""
        return cls(strength / 2.0, strength / 2.0, 0.0, label="xy")

    @classmethod
    def xx(cls, strength: float = 1.0) -> "CouplingHamiltonian":
        """XX coupling ``g XX`` — trapped ions / lab-frame transmons."""
        return cls(strength, 0.0, 0.0, label="xx")

    @classmethod
    def heisenberg(cls, strength: float = 1.0) -> "CouplingHamiltonian":
        """Isotropic exchange coupling ``(g/3)(XX + YY + ZZ)``."""
        return cls(strength / 3.0, strength / 3.0, strength / 3.0, label="heisenberg")

    @classmethod
    def from_coefficients(
        cls, a: float, b: float, c: float, label: str = "custom"
    ) -> "CouplingHamiltonian":
        """Construct directly from canonical coefficients."""
        return cls(float(a), float(b), float(c), label=label)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, label: str = "custom") -> "CouplingHamiltonian":
        """Normal form of an arbitrary two-qubit coupling Hamiltonian.

        Implements ``NormalForm(H)`` of Algorithm 1: the 3x3 coupling tensor is
        brought to diagonal form by an SVD whose orthogonal factors are lifted
        to SU(2) frame changes; local field terms are kept separately.
        """
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (4, 4) or not is_hermitian(matrix, atol=1e-8):
            raise ValueError("coupling Hamiltonian must be a 4x4 Hermitian matrix")
        coupling, field1, field2, offset = _pauli_decomposition(matrix)
        o1, singular, o2t = np.linalg.svd(coupling)
        o2 = o2t.T
        singular = singular.copy()
        if np.linalg.det(o1) < 0:
            o1[:, 2] *= -1
            singular[2] *= -1
        if np.linalg.det(o2) < 0:
            o2[:, 2] *= -1
            singular[2] *= -1
        a, b, c = singular
        u1 = su2_from_rotation(o1)
        u2 = su2_from_rotation(o2)
        local_1 = sum(field1[k] * PAULIS[k] for k in range(3))
        local_2 = sum(field2[k] * PAULIS[k] for k in range(3))
        if isinstance(local_1, int):
            local_1 = np.zeros((2, 2), dtype=complex)
        if isinstance(local_2, int):
            local_2 = np.zeros((2, 2), dtype=complex)
        return cls(
            float(a),
            float(b),
            float(c),
            u1=u1,
            u2=u2,
            local_field_1=np.asarray(local_1, dtype=complex),
            local_field_2=np.asarray(local_2, dtype=complex),
            identity_offset=offset,
            label=label,
        )

    # -- serialization ---------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready payload (used by :class:`repro.target.target.Target`).

        Canonical-frame Hamiltonians serialize as their three coefficients
        plus the label; frame changes and local fields are included only when
        present so the common case stays human-editable.
        """
        payload: dict = {"a": self.a, "b": self.b, "c": self.c, "label": self.label}
        if not self.is_canonical_frame():
            payload["u1"] = _complex_to_lists(self.u1)
            payload["u2"] = _complex_to_lists(self.u2)
            payload["local_field_1"] = _complex_to_lists(self.local_field_1)
            payload["local_field_2"] = _complex_to_lists(self.local_field_2)
        if abs(self.identity_offset) > 1e-15:
            payload["identity_offset"] = self.identity_offset
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "CouplingHamiltonian":
        """Inverse of :meth:`to_dict`."""
        kwargs = {}
        for key in ("u1", "u2", "local_field_1", "local_field_2"):
            if key in payload:
                kwargs[key] = _lists_to_complex(payload[key])
        return cls(
            float(payload["a"]),
            float(payload["b"]),
            float(payload["c"]),
            identity_offset=float(payload.get("identity_offset", 0.0)),
            label=str(payload.get("label", "custom")),
            **kwargs,
        )

    # -- views ----------------------------------------------------------------
    @property
    def coefficients(self) -> Tuple[float, float, float]:
        """Canonical coefficients ``(a, b, c)``."""
        return (self.a, self.b, self.c)

    @property
    def strength(self) -> float:
        """Coupling strength ``g = a + b + |c|`` (Eq. (3))."""
        return self.a + self.b + abs(self.c)

    def canonical_matrix(self) -> np.ndarray:
        """The canonical coupling ``a XX + b YY + c ZZ`` as a 4x4 matrix."""
        from repro.linalg.constants import XX, YY, ZZ

        return self.a * XX + self.b * YY + self.c * ZZ

    def matrix(self) -> np.ndarray:
        """The physical coupling Hamiltonian (including frame and local fields)."""
        frame = np.kron(self.u1, self.u2)
        canonical = frame @ self.canonical_matrix() @ frame.conj().T
        locals_ = np.kron(self.local_field_1, IDENTITY2) + np.kron(
            IDENTITY2, self.local_field_2
        )
        return canonical + locals_ + self.identity_offset * np.eye(4)

    def is_canonical_frame(self, atol: float = 1e-9) -> bool:
        """True when no frame change or local fields are present."""
        return (
            np.allclose(self.u1, IDENTITY2, atol=atol)
            and np.allclose(self.u2, IDENTITY2, atol=atol)
            and np.allclose(self.local_field_1, 0.0, atol=atol)
            and np.allclose(self.local_field_2, 0.0, atol=atol)
        )

    def __repr__(self) -> str:
        return (
            f"CouplingHamiltonian({self.label}: a={self.a:.4f}, b={self.b:.4f}, "
            f"c={self.c:.4f})"
        )
