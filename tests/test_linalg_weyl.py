"""Tests for the canonical (KAK) decomposition and Weyl-chamber utilities."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.linalg.constants import MAGIC_BASIS, XX, YY, ZZ
from repro.linalg.predicates import (
    allclose_up_to_global_phase,
    is_special_unitary,
    is_unitary,
    unitary_infidelity,
)
from repro.linalg.random import (
    haar_random_su2,
    haar_random_su4,
    haar_random_unitary,
    random_weyl_coordinates,
)
from repro.linalg.weyl import (
    canonical_gate,
    canonicalize_coordinates,
    coordinate_norm,
    decompose_tensor_product,
    is_near_identity,
    kak_decompose,
    local_equivalence_distance,
    makhlin_invariants,
    mirror_coordinates,
    weyl_coordinates,
)

PI_4 = math.pi / 4.0
PI_8 = math.pi / 8.0

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
CZ = np.diag([1, 1, 1, -1]).astype(complex)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
ISWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def test_magic_basis_is_unitary():
    assert is_unitary(MAGIC_BASIS)


def test_canonical_gate_identity():
    assert np.allclose(canonical_gate(0, 0, 0), np.eye(4))


def test_canonical_gate_matches_expm():
    from scipy.linalg import expm

    rng = np.random.default_rng(7)
    for _ in range(20):
        x, y, z = rng.uniform(-1.0, 1.0, size=3)
        direct = expm(-1j * (x * XX + y * YY + z * ZZ))
        assert np.allclose(canonical_gate(x, y, z), direct, atol=1e-10)


def test_canonical_gate_is_special_unitary():
    rng = np.random.default_rng(11)
    for _ in range(10):
        x, y, z = rng.uniform(-1.0, 1.0, size=3)
        assert is_special_unitary(canonical_gate(x, y, z))


@pytest.mark.parametrize(
    "gate,expected",
    [
        (CNOT, (PI_4, 0.0, 0.0)),
        (CZ, (PI_4, 0.0, 0.0)),
        (ISWAP, (PI_4, PI_4, 0.0)),
        (SWAP, (PI_4, PI_4, PI_4)),
        (np.eye(4, dtype=complex), (0.0, 0.0, 0.0)),
    ],
    ids=["cnot", "cz", "iswap", "swap", "identity"],
)
def test_named_gate_coordinates(gate, expected):
    coords = weyl_coordinates(gate)
    assert np.allclose(coords, expected, atol=1e-7)


def test_sqisw_and_b_gate_coordinates():
    sqisw = canonical_gate(PI_8, PI_8, 0.0)
    assert np.allclose(weyl_coordinates(sqisw), (PI_8, PI_8, 0.0), atol=1e-7)
    b_gate = canonical_gate(PI_4, PI_8, 0.0)
    assert np.allclose(weyl_coordinates(b_gate), (PI_4, PI_8, 0.0), atol=1e-7)


def test_kak_reconstruction_named_gates():
    for gate in (CNOT, CZ, SWAP, ISWAP, np.eye(4, dtype=complex)):
        decomposition = kak_decompose(gate)
        assert decomposition.reconstruction_error(gate) < 1e-7


def test_kak_reconstruction_haar_random():
    rng = np.random.default_rng(3)
    for _ in range(50):
        unitary = haar_random_unitary(4, rng)
        decomposition = kak_decompose(unitary)
        assert decomposition.reconstruction_error(unitary) < 1e-7
        x, y, z = decomposition.coordinates
        assert PI_4 + 1e-9 >= x >= y >= abs(z) - 1e-9


def test_kak_local_gates_are_unitary():
    rng = np.random.default_rng(5)
    unitary = haar_random_su4(rng)
    decomposition = kak_decompose(unitary)
    for factor in (decomposition.l1, decomposition.l2, decomposition.r1, decomposition.r2):
        assert is_unitary(factor)


def test_kak_of_local_only_gate():
    rng = np.random.default_rng(9)
    local = np.kron(haar_random_su2(rng), haar_random_su2(rng))
    decomposition = kak_decompose(local)
    assert np.allclose(decomposition.coordinates, (0.0, 0.0, 0.0), atol=1e-7)
    assert decomposition.reconstruction_error(local) < 1e-7


def test_weyl_coordinates_invariant_under_local_gates():
    rng = np.random.default_rng(13)
    for _ in range(20):
        x, y, z = random_weyl_coordinates(rng)
        gate = canonical_gate(x, y, z)
        dressed = (
            np.kron(haar_random_su2(rng), haar_random_su2(rng))
            @ gate
            @ np.kron(haar_random_su2(rng), haar_random_su2(rng))
        )
        assert np.allclose(weyl_coordinates(dressed), (x, y, z), atol=1e-6)


def test_weyl_coordinates_roundtrip_from_chamber():
    rng = np.random.default_rng(17)
    for _ in range(25):
        coords = random_weyl_coordinates(rng)
        gate = canonical_gate(*coords)
        recovered = weyl_coordinates(gate)
        assert np.allclose(recovered, coords, atol=1e-6)


def test_canonicalize_coordinates_idempotent():
    rng = np.random.default_rng(19)
    for _ in range(30):
        raw = rng.uniform(-3.0, 3.0, size=3)
        once = canonicalize_coordinates(*raw)
        twice = canonicalize_coordinates(*once)
        assert np.allclose(once, twice, atol=1e-9)
        x, y, z = once
        assert PI_4 + 1e-9 >= x >= y >= abs(z) - 1e-9


def test_canonicalize_preserves_local_class():
    rng = np.random.default_rng(23)
    for _ in range(20):
        raw = rng.uniform(-3.0, 3.0, size=3)
        folded = canonicalize_coordinates(*raw)
        dist = local_equivalence_distance(
            canonical_gate(*raw), canonical_gate(*folded)
        )
        assert dist < 1e-7


def test_makhlin_invariants_known_values():
    g1_cnot, g2_cnot = makhlin_invariants(CNOT)
    assert abs(g1_cnot - 0.0) < 1e-9
    assert abs(g2_cnot - 1.0) < 1e-9
    g1_swap, g2_swap = makhlin_invariants(SWAP)
    assert abs(g1_swap - (-1.0)) < 1e-9
    assert abs(g2_swap - (-3.0)) < 1e-9
    g1_id, g2_id = makhlin_invariants(np.eye(4))
    assert abs(g1_id - 1.0) < 1e-9
    assert abs(g2_id - 3.0) < 1e-9


def test_local_equivalence_distance_zero_for_dressed_gates():
    rng = np.random.default_rng(29)
    gate = haar_random_su4(rng)
    dressed = np.kron(haar_random_su2(rng), haar_random_su2(rng)) @ gate
    assert local_equivalence_distance(gate, dressed) < 1e-9
    other = haar_random_su4(rng)
    assert local_equivalence_distance(gate, other) > 1e-3


def test_mirror_coordinates_matches_numerics():
    rng = np.random.default_rng(31)
    for _ in range(20):
        coords = random_weyl_coordinates(rng)
        mirrored = mirror_coordinates(*coords)
        numeric = weyl_coordinates(SWAP @ canonical_gate(*coords))
        assert np.allclose(mirrored, numeric, atol=1e-6)


def test_mirror_of_identity_is_swap():
    assert np.allclose(mirror_coordinates(0.0, 0.0, 0.0), (PI_4, PI_4, PI_4), atol=1e-9)


def test_near_identity_predicate():
    assert is_near_identity((0.01, 0.005, 0.0))
    assert not is_near_identity((PI_4, PI_4, PI_4))
    assert coordinate_norm(0.1, 0.2, -0.3) == pytest.approx(0.6)


def test_decompose_tensor_product_roundtrip():
    rng = np.random.default_rng(37)
    a = haar_random_su2(rng)
    b = haar_random_su2(rng)
    phase, a_rec, b_rec = decompose_tensor_product(1j * np.kron(a, b))
    assert allclose_up_to_global_phase(np.kron(a_rec, b_rec), np.kron(a, b))
    assert np.allclose(phase * np.kron(a_rec, b_rec), 1j * np.kron(a, b), atol=1e-9)


def test_decompose_tensor_product_rejects_entangling():
    with pytest.raises(ValueError):
        decompose_tensor_product(CNOT)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_kak_reconstruction(seed):
    unitary = haar_random_unitary(4, np.random.default_rng(seed))
    decomposition = kak_decompose(unitary)
    assert decomposition.reconstruction_error(unitary) < 1e-6
    assert unitary_infidelity(decomposition.unitary(), unitary) < 1e-9


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
)
# A z within the fold's tolerance band of 0 once came back as x < y = 0.
@example(0.0, 0.0, -4.2577558014874254e-11)
def test_property_canonicalization_in_chamber(x, y, z):
    cx, cy, cz = canonicalize_coordinates(x, y, z)
    assert PI_4 + 1e-9 >= cx >= cy >= abs(cz) - 1e-9
    if abs(cx - PI_4) < 1e-9:
        assert cz >= -1e-9


def test_canonicalization_near_chamber_faces_is_exact():
    # Coordinates inside the fold's tolerance band of a face or landmark
    # must still land exactly in the chamber, with no tolerance.
    rng = np.random.default_rng(7)
    landmarks = (0.0, PI_4, -PI_4, 2 * PI_4)
    for _ in range(3000):
        raw = [rng.choice(landmarks) + rng.uniform(-1e-9, 1e-9) for _ in range(3)]
        cx, cy, cz = canonicalize_coordinates(*raw)
        assert PI_4 >= cx >= cy >= abs(cz)
        if cx == PI_4:
            assert cz >= 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_coordinates_of_kron_locals_are_zero(seed):
    rng = np.random.default_rng(seed)
    local = np.kron(haar_random_su2(rng), haar_random_su2(rng))
    assert np.allclose(weyl_coordinates(local), (0.0, 0.0, 0.0), atol=1e-6)
