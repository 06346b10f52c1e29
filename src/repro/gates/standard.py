"""Standard gate library.

Provides matrix builders and convenience constructors for the gates used by
the paper: the CNOT-based ISA (``{CX, U3}``), the ReQISC SU(4) ISA
(``{Can, U3}``), the fixed 2Q basis gates compared in Table 3 (``iSWAP``,
``SQiSW``, ``B``) and the reversible-logic gates appearing in the benchmark
suite (``CCX``, ``MCX``, ``CSWAP`` ...).

The gate set itself is declared once, in :data:`GATES`; the matrix-builder
registry, :func:`named_gate` and the QASM importer and exporter
(:mod:`repro.qasm`) all derive from it.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Dict, NamedTuple, Sequence, Tuple

import numpy as np

from repro.gates.gate import Gate, UnitaryGate, register_matrix_builder
from repro.linalg.su2 import rx_matrix, ry_matrix, rz_matrix, u3_matrix
from repro.linalg.weyl import canonical_gate

__all__ = [
    "i_gate",
    "x_gate",
    "y_gate",
    "z_gate",
    "h_gate",
    "s_gate",
    "sdg_gate",
    "t_gate",
    "tdg_gate",
    "sx_gate",
    "rx_gate",
    "ry_gate",
    "rz_gate",
    "p_gate",
    "u3_gate",
    "cx_gate",
    "cy_gate",
    "cz_gate",
    "ch_gate",
    "cp_gate",
    "crz_gate",
    "swap_gate",
    "iswap_gate",
    "sqisw_gate",
    "b_gate",
    "can_gate",
    "rxx_gate",
    "ryy_gate",
    "rzz_gate",
    "cv_gate",
    "cvdg_gate",
    "ccx_gate",
    "ccz_gate",
    "cswap_gate",
    "mcx_gate",
    "unitary_gate",
    "GATES",
    "GateSpec",
]

# ---------------------------------------------------------------------------
# Matrix builders (registered by name, from GATES, so Gate.matrix finds them).
# ---------------------------------------------------------------------------

_SQ2 = 1.0 / math.sqrt(2.0)


def _mat_i() -> np.ndarray:
    return np.eye(2, dtype=complex)


def _mat_x() -> np.ndarray:
    return np.array([[0, 1], [1, 0]], dtype=complex)


def _mat_y() -> np.ndarray:
    return np.array([[0, -1j], [1j, 0]], dtype=complex)


def _mat_z() -> np.ndarray:
    return np.array([[1, 0], [0, -1]], dtype=complex)


def _mat_h() -> np.ndarray:
    return _SQ2 * np.array([[1, 1], [1, -1]], dtype=complex)


def _mat_s() -> np.ndarray:
    return np.diag([1.0, 1j]).astype(complex)


def _mat_sdg() -> np.ndarray:
    return np.diag([1.0, -1j]).astype(complex)


def _mat_t() -> np.ndarray:
    return np.diag([1.0, cmath.exp(1j * math.pi / 4)]).astype(complex)


def _mat_tdg() -> np.ndarray:
    return np.diag([1.0, cmath.exp(-1j * math.pi / 4)]).astype(complex)


def _mat_sx() -> np.ndarray:
    return 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)


def _mat_p(angle: float) -> np.ndarray:
    return np.diag([1.0, cmath.exp(1j * angle)]).astype(complex)


def _controlled(target_matrix: np.ndarray) -> np.ndarray:
    """Two-qubit controlled version (control = qubit 0, big-endian)."""
    result = np.eye(4, dtype=complex)
    result[2:, 2:] = target_matrix
    return result


def _mat_cx() -> np.ndarray:
    return _controlled(_mat_x())


def _mat_cy() -> np.ndarray:
    return _controlled(_mat_y())


def _mat_cz() -> np.ndarray:
    return _controlled(_mat_z())


def _mat_ch() -> np.ndarray:
    return _controlled(_mat_h())


def _mat_cp(angle: float) -> np.ndarray:
    return _controlled(_mat_p(angle))


def _mat_crz(angle: float) -> np.ndarray:
    return _controlled(rz_matrix(angle))


def _mat_cv() -> np.ndarray:
    """Controlled square-root-of-X."""
    return _controlled(_mat_sx())


def _mat_cvdg() -> np.ndarray:
    return _controlled(_mat_sx().conj().T)


def _mat_swap() -> np.ndarray:
    return np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )


def _mat_iswap() -> np.ndarray:
    return np.array(
        [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
    )


def _mat_sqisw() -> np.ndarray:
    """Square root of iSWAP (the SQiSW gate of Huang et al.)."""
    return np.array(
        [
            [1, 0, 0, 0],
            [0, _SQ2, 1j * _SQ2, 0],
            [0, 1j * _SQ2, _SQ2, 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    )


def _mat_b() -> np.ndarray:
    """The B gate (Zhang et al. 2004), locally equivalent to Can(pi/4, pi/8, 0)."""
    return canonical_gate(math.pi / 4.0, math.pi / 8.0, 0.0)


def _mat_can(x: float, y: float, z: float) -> np.ndarray:
    return canonical_gate(x, y, z)


def _mat_rxx(angle: float) -> np.ndarray:
    return canonical_gate(angle / 2.0, 0.0, 0.0)


def _mat_ryy(angle: float) -> np.ndarray:
    return canonical_gate(0.0, angle / 2.0, 0.0)


def _mat_rzz(angle: float) -> np.ndarray:
    return canonical_gate(0.0, 0.0, angle / 2.0)


def _mat_ccx() -> np.ndarray:
    mat = np.eye(8, dtype=complex)
    mat[6, 6], mat[6, 7], mat[7, 6], mat[7, 7] = 0, 1, 1, 0
    return mat


def _mat_ccz() -> np.ndarray:
    mat = np.eye(8, dtype=complex)
    mat[7, 7] = -1
    return mat


def _mat_cswap() -> np.ndarray:
    mat = np.eye(8, dtype=complex)
    mat[5, 5], mat[5, 6], mat[6, 5], mat[6, 6] = 0, 1, 1, 0
    return mat


def _mat_mcx(num_controls: float) -> np.ndarray:
    controls = int(round(num_controls))
    dim = 2 ** (controls + 1)
    mat = np.eye(dim, dtype=complex)
    mat[dim - 2, dim - 2], mat[dim - 2, dim - 1] = 0, 1
    mat[dim - 1, dim - 2], mat[dim - 1, dim - 1] = 1, 0
    return mat


class GateSpec(NamedTuple):
    """One row of :data:`GATES`."""

    #: Number of qubits the gate acts on.
    arity: int
    #: Parameter names, in order; their count is the gate's parameter count
    #: and the QASM exporter prints them in ``opaque`` declarations.
    params: Tuple[str, ...]
    #: ``builder(*params) -> matrix`` (big-endian, first qubit most significant).
    builder: Callable[..., np.ndarray]
    #: True when ``qelib1.inc`` defines the gate (the exporter declares the
    #: others ``opaque``).
    qelib1: bool


#: The standard gate set, declared once.  The matrix-builder registry, the
#: import-time matrix interning, :func:`named_gate`, the QASM importer's
#: built-in table and the QASM exporter all derive from these rows; adding a
#: gate is one row here, a matrix builder and a constructor.  ``mcx`` (any
#: arity) is the one special case and is kept out of the table.
GATES: Dict[str, GateSpec] = {
    "id": GateSpec(1, (), _mat_i, True),
    "x": GateSpec(1, (), _mat_x, True),
    "y": GateSpec(1, (), _mat_y, True),
    "z": GateSpec(1, (), _mat_z, True),
    "h": GateSpec(1, (), _mat_h, True),
    "s": GateSpec(1, (), _mat_s, True),
    "sdg": GateSpec(1, (), _mat_sdg, True),
    "t": GateSpec(1, (), _mat_t, True),
    "tdg": GateSpec(1, (), _mat_tdg, True),
    "sx": GateSpec(1, (), _mat_sx, True),
    "rx": GateSpec(1, ("theta",), rx_matrix, True),
    "ry": GateSpec(1, ("theta",), ry_matrix, True),
    "rz": GateSpec(1, ("phi",), rz_matrix, True),
    "p": GateSpec(1, ("lambda",), _mat_p, True),
    "u3": GateSpec(1, ("theta", "phi", "lambda"), u3_matrix, True),
    "cx": GateSpec(2, (), _mat_cx, True),
    "cy": GateSpec(2, (), _mat_cy, True),
    "cz": GateSpec(2, (), _mat_cz, True),
    "ch": GateSpec(2, (), _mat_ch, True),
    "cp": GateSpec(2, ("lambda",), _mat_cp, True),
    "crz": GateSpec(2, ("lambda",), _mat_crz, True),
    "cv": GateSpec(2, (), _mat_cv, False),
    "cvdg": GateSpec(2, (), _mat_cvdg, False),
    "swap": GateSpec(2, (), _mat_swap, True),
    "iswap": GateSpec(2, (), _mat_iswap, False),
    "sqisw": GateSpec(2, (), _mat_sqisw, False),
    "b": GateSpec(2, (), _mat_b, False),
    "can": GateSpec(2, ("x", "y", "z"), _mat_can, False),
    "rxx": GateSpec(2, ("theta",), _mat_rxx, True),
    "ryy": GateSpec(2, ("theta",), _mat_ryy, False),
    "rzz": GateSpec(2, ("theta",), _mat_rzz, True),
    "ccx": GateSpec(3, (), _mat_ccx, True),
    "ccz": GateSpec(3, (), _mat_ccz, False),
    "cswap": GateSpec(3, (), _mat_cswap, True),
}

register_matrix_builder("mcx", _mat_mcx)
for _name, _spec in GATES.items():
    register_matrix_builder(_name, _spec.builder)
    if not _spec.params:
        # Constant matrix: intern it now, so every ``Gate.matrix`` lookup
        # for it -- even the first on a hot path -- is a read-only cache hit.
        Gate(_name, _spec.arity).matrix


def named_gate(name: str, params: Sequence[float] = ()) -> Gate:
    """Construct a standard gate by name.

    Raises ``KeyError`` for a name outside :data:`GATES` and ``ValueError``
    for ``mcx`` or for a parameter count that disagrees with the gate's row.
    """
    if name == "mcx":
        raise ValueError("use mcx_gate(num_controls) for multi-controlled X gates")
    try:
        spec = GATES[name]
    except KeyError:
        raise KeyError(f"unknown standard gate {name!r}") from None
    if len(params) != len(spec.params):
        raise ValueError(
            f"gate {name!r} takes {len(spec.params)} parameter(s), got {len(params)}"
        )
    return Gate(name, spec.arity, params)


# -- 1Q constructors ---------------------------------------------------------


def i_gate() -> Gate:
    """Identity gate."""
    return Gate("id", 1)


def x_gate() -> Gate:
    """Pauli-X gate."""
    return Gate("x", 1)


def y_gate() -> Gate:
    """Pauli-Y gate."""
    return Gate("y", 1)


def z_gate() -> Gate:
    """Pauli-Z gate."""
    return Gate("z", 1)


def h_gate() -> Gate:
    """Hadamard gate."""
    return Gate("h", 1)


def s_gate() -> Gate:
    """Phase gate S."""
    return Gate("s", 1)


def sdg_gate() -> Gate:
    """Adjoint phase gate."""
    return Gate("sdg", 1)


def t_gate() -> Gate:
    """T gate."""
    return Gate("t", 1)


def tdg_gate() -> Gate:
    """Adjoint T gate."""
    return Gate("tdg", 1)


def sx_gate() -> Gate:
    """Square-root-of-X gate."""
    return Gate("sx", 1)


def rx_gate(angle: float) -> Gate:
    """Rotation about X."""
    return Gate("rx", 1, (angle,))


def ry_gate(angle: float) -> Gate:
    """Rotation about Y."""
    return Gate("ry", 1, (angle,))


def rz_gate(angle: float) -> Gate:
    """Rotation about Z."""
    return Gate("rz", 1, (angle,))


def p_gate(angle: float) -> Gate:
    """Phase rotation gate."""
    return Gate("p", 1, (angle,))


def u3_gate(theta: float, phi: float, lam: float) -> Gate:
    """Generic single-qubit gate ``U3(theta, phi, lam)``."""
    return Gate("u3", 1, (theta, phi, lam))


# -- 2Q constructors ---------------------------------------------------------


def cx_gate() -> Gate:
    """CNOT gate (control on the first qubit)."""
    return Gate("cx", 2)


def cy_gate() -> Gate:
    """Controlled-Y gate."""
    return Gate("cy", 2)


def cz_gate() -> Gate:
    """Controlled-Z gate."""
    return Gate("cz", 2)


def ch_gate() -> Gate:
    """Controlled-Hadamard gate."""
    return Gate("ch", 2)


def cp_gate(angle: float) -> Gate:
    """Controlled phase gate."""
    return Gate("cp", 2, (angle,))


def crz_gate(angle: float) -> Gate:
    """Controlled RZ gate."""
    return Gate("crz", 2, (angle,))


def cv_gate() -> Gate:
    """Controlled square-root-of-X (used by the 5-gate Toffoli template)."""
    return Gate("cv", 2)


def cvdg_gate() -> Gate:
    """Adjoint controlled square-root-of-X."""
    return Gate("cvdg", 2)


def swap_gate() -> Gate:
    """SWAP gate."""
    return Gate("swap", 2)


def iswap_gate() -> Gate:
    """iSWAP gate."""
    return Gate("iswap", 2)


def sqisw_gate() -> Gate:
    """Square-root-of-iSWAP gate."""
    return Gate("sqisw", 2)


def b_gate() -> Gate:
    """The B gate, Can(pi/4, pi/8, 0)."""
    return Gate("b", 2)


def can_gate(x: float, y: float, z: float) -> Gate:
    """Canonical gate ``Can(x, y, z)`` — the 2Q half of the ReQISC ISA."""
    return Gate("can", 2, (x, y, z))


def rxx_gate(angle: float) -> Gate:
    """XX rotation ``exp(-i angle XX / 2)``."""
    return Gate("rxx", 2, (angle,))


def ryy_gate(angle: float) -> Gate:
    """YY rotation ``exp(-i angle YY / 2)``."""
    return Gate("ryy", 2, (angle,))


def rzz_gate(angle: float) -> Gate:
    """ZZ rotation ``exp(-i angle ZZ / 2)``."""
    return Gate("rzz", 2, (angle,))


# -- 3Q and multi-controlled constructors ------------------------------------


def ccx_gate() -> Gate:
    """Toffoli gate."""
    return Gate("ccx", 3)


def ccz_gate() -> Gate:
    """Doubly-controlled Z gate."""
    return Gate("ccz", 3)


def cswap_gate() -> Gate:
    """Fredkin (controlled-SWAP) gate."""
    return Gate("cswap", 3)


def mcx_gate(num_controls: int) -> Gate:
    """Multi-controlled X gate with ``num_controls`` control qubits."""
    if num_controls < 1:
        raise ValueError("mcx requires at least one control")
    return Gate("mcx", num_controls + 1, (float(num_controls),))


def unitary_gate(matrix: np.ndarray, label: str = "unitary") -> UnitaryGate:
    """Wrap an explicit unitary matrix as a gate."""
    return UnitaryGate(matrix, label=label)
