"""Tests for the gate library."""

import inspect
import math

import numpy as np
import pytest

from repro.gates import standard
from repro.gates.gate import Gate, UnitaryGate
from repro.linalg.predicates import allclose_up_to_global_phase, is_unitary
from repro.linalg.random import haar_random_unitary
from repro.linalg.weyl import canonical_gate, weyl_coordinates

PI_4 = math.pi / 4.0
PI_8 = math.pi / 8.0


ALL_FIXED_CONSTRUCTORS = [
    standard.i_gate,
    standard.x_gate,
    standard.y_gate,
    standard.z_gate,
    standard.h_gate,
    standard.s_gate,
    standard.sdg_gate,
    standard.t_gate,
    standard.tdg_gate,
    standard.sx_gate,
    standard.cx_gate,
    standard.cy_gate,
    standard.cz_gate,
    standard.ch_gate,
    standard.cv_gate,
    standard.cvdg_gate,
    standard.swap_gate,
    standard.iswap_gate,
    standard.sqisw_gate,
    standard.b_gate,
    standard.ccx_gate,
    standard.ccz_gate,
    standard.cswap_gate,
]


@pytest.mark.parametrize("constructor", ALL_FIXED_CONSTRUCTORS)
def test_fixed_gates_are_unitary(constructor):
    gate = constructor()
    assert is_unitary(gate.matrix)
    assert gate.matrix.shape == (2**gate.num_qubits, 2**gate.num_qubits)


def test_parametrized_gates_are_unitary():
    for gate in [
        standard.rx_gate(0.3),
        standard.ry_gate(-1.2),
        standard.rz_gate(2.5),
        standard.p_gate(0.7),
        standard.u3_gate(0.1, 0.2, 0.3),
        standard.cp_gate(1.1),
        standard.crz_gate(-0.4),
        standard.rxx_gate(0.9),
        standard.ryy_gate(0.9),
        standard.rzz_gate(0.9),
        standard.can_gate(0.3, 0.2, 0.1),
    ]:
        assert is_unitary(gate.matrix)


def test_inverse_pairs():
    assert np.allclose(standard.s_gate().matrix @ standard.sdg_gate().matrix, np.eye(2))
    assert np.allclose(standard.t_gate().matrix @ standard.tdg_gate().matrix, np.eye(2))
    assert np.allclose(standard.cv_gate().matrix @ standard.cvdg_gate().matrix, np.eye(4))


def test_cx_action_on_basis_states():
    cx = standard.cx_gate().matrix
    # |10> -> |11>  (qubit 0 = control = most significant bit).
    state = np.zeros(4)
    state[2] = 1.0
    assert np.allclose(cx @ state, np.eye(4)[3])
    # |01> unaffected.
    state = np.zeros(4)
    state[1] = 1.0
    assert np.allclose(cx @ state, state)


def test_ccx_action():
    ccx = standard.ccx_gate().matrix
    state = np.zeros(8)
    state[6] = 1.0  # |110>
    assert np.allclose(ccx @ state, np.eye(8)[7])
    state = np.zeros(8)
    state[5] = 1.0  # |101>
    assert np.allclose(ccx @ state, state)


def test_cswap_action():
    cswap = standard.cswap_gate().matrix
    state = np.zeros(8)
    state[5] = 1.0  # |101> -> |110>
    assert np.allclose(cswap @ state, np.eye(8)[6])


def test_mcx_gate_matrix():
    gate = standard.mcx_gate(3)
    assert gate.num_qubits == 4
    mat = gate.matrix
    assert is_unitary(mat)
    # Only the last two basis states are exchanged.
    expected = np.eye(16)
    expected[[14, 15]] = expected[[15, 14]]
    assert np.allclose(mat, expected)


def test_mcx_requires_controls():
    with pytest.raises(ValueError):
        standard.mcx_gate(0)


def test_sqisw_squares_to_iswap():
    sqisw = standard.sqisw_gate().matrix
    iswap = standard.iswap_gate().matrix
    assert np.allclose(sqisw @ sqisw, iswap)


def test_sqisw_coordinates():
    assert np.allclose(weyl_coordinates(standard.sqisw_gate().matrix), (PI_8, PI_8, 0.0), atol=1e-7)


def test_b_gate_coordinates():
    assert np.allclose(weyl_coordinates(standard.b_gate().matrix), (PI_4, PI_8, 0.0), atol=1e-7)


def test_cv_gate_coordinates():
    assert np.allclose(weyl_coordinates(standard.cv_gate().matrix), (PI_8, 0.0, 0.0), atol=1e-7)


def test_rotation_gate_equivalences():
    assert np.allclose(
        standard.rzz_gate(0.8).matrix, canonical_gate(0.0, 0.0, 0.4), atol=1e-10
    )
    assert allclose_up_to_global_phase(
        standard.cp_gate(math.pi).matrix, standard.cz_gate().matrix
    )


def test_gate_equality_and_hash():
    assert standard.rx_gate(0.5) == standard.rx_gate(0.5)
    assert standard.rx_gate(0.5) != standard.rx_gate(0.6)
    assert hash(standard.cx_gate()) == hash(standard.cx_gate())
    assert standard.rx_gate(0.5).approx_equal(standard.rx_gate(0.5 + 1e-12))


def test_gate_dagger():
    gate = standard.u3_gate(0.4, 1.0, -0.3)
    dagger = gate.dagger()
    assert np.allclose(gate.matrix @ dagger.matrix, np.eye(2), atol=1e-10)


def test_with_params():
    gate = standard.rz_gate(0.1).with_params([0.9])
    assert gate.params == (0.9,)
    assert gate.name == "rz"


def test_unknown_builder_raises():
    gate = Gate("definitely_not_a_gate", 1)
    with pytest.raises(KeyError):
        _ = gate.matrix


def test_named_gate_helper():
    gate = standard.named_gate("cx")
    assert gate.num_qubits == 2
    with pytest.raises(KeyError):
        standard.named_gate("nope")
    with pytest.raises(ValueError):
        standard.named_gate("mcx")
    assert standard.named_gate("rx", (0.1,)) == standard.rx_gate(0.1)
    assert standard.named_gate("can", (0.1, 0.2, 0.3)) == standard.can_gate(0.1, 0.2, 0.3)
    # The parameter count must match the gate's GATES row.
    with pytest.raises(ValueError, match="takes 1 parameter"):
        standard.named_gate("rx")
    with pytest.raises(ValueError, match="takes 0 parameter"):
        standard.named_gate("cx", (0.3,))
    with pytest.raises(ValueError, match="takes 3 parameter"):
        standard.named_gate("can", (0.1,))


def _public_constructors():
    names = [name for name in standard.__all__ if name.endswith("_gate")]
    return [name for name in names if name not in ("mcx_gate", "unitary_gate")]


def _call_constructor(name):
    constructor = getattr(standard, name)
    n_args = len(inspect.signature(constructor).parameters)
    return constructor(*[0.25 * (k + 1) for k in range(n_args)]), n_args


@pytest.mark.parametrize("constructor_name", _public_constructors())
def test_constructor_agrees_with_its_gates_row(constructor_name):
    gate, n_args = _call_constructor(constructor_name)
    spec = standard.GATES[gate.name]
    assert gate.num_qubits == spec.arity
    assert len(gate.params) == n_args == len(spec.params)
    assert gate.matrix.shape == (2**spec.arity, 2**spec.arity)


def test_every_gates_row_has_one_public_constructor():
    made = [_call_constructor(name)[0].name for name in _public_constructors()]
    assert sorted(made) == sorted(standard.GATES)


def test_unitary_gate_wraps_matrix():
    matrix = haar_random_unitary(4, 1)
    gate = UnitaryGate(matrix, label="su4")
    assert gate.num_qubits == 2
    assert gate.name == "su4"
    assert np.allclose(gate.matrix, matrix)


def test_unitary_gate_rejects_bad_shape():
    with pytest.raises(ValueError):
        UnitaryGate(np.ones((3, 3)))


def test_unitary_gate_equality():
    matrix = haar_random_unitary(4, 2)
    assert UnitaryGate(matrix) == UnitaryGate(matrix)
    assert UnitaryGate(matrix) != UnitaryGate(haar_random_unitary(4, 3))


def test_unitary_gate_arity_and_shape_checks():
    for qubits in range(4):
        assert UnitaryGate(np.eye(2**qubits)).num_qubits == qubits
    for shape in ((0, 0), (3, 3), (2, 4)):
        with pytest.raises(ValueError, match="power-of-two square"):
            UnitaryGate(np.zeros(shape))
