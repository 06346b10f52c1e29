"""The batched finalize/mirror path: vectorized SU(2) kernels against their
scalar twins, the array finalize scan against the closure scan it replaced,
composition independence, semantic equivalence of compiled programs up to
``CompilationResult.final_permutation``, and mirror's per-gate fallback when
the batched decomposition raises."""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.instruction import Instruction
from repro.compiler.passes.finalize import FinalizeToCanPass
from repro.compiler.passes.mirror import MirrorNearIdentityPass
from repro.gates import standard
from repro.gates.gate import UnitaryGate
from repro.linalg.predicates import allclose_up_to_global_phase
from repro.linalg.random import haar_random_unitary
from repro.linalg.su2 import (
    is_identity_class_batch,
    u3_matrix,
    u3_params_batch,
    u3_params_from_matrix,
    zyz_angles,
    zyz_angles_batch,
)
from repro.linalg.weyl import canonical_gate
from repro.simulators.statevector import simulate_statevector
from repro.simulators.unitary import permutation_unitary
from repro.target.api import compile as target_compile
from repro.target.pipeline import named_pipeline

from circuit_helpers import run_pass
from flat_oracles import finalize_closure_scan


def _edge_cases():
    """Diagonal, anti-diagonal, +-I, e^{i phi} I and near-identity 2x2 unitaries."""
    phase = cmath.exp(0.7j)
    return [
        np.diag([cmath.exp(-0.3j), cmath.exp(0.3j)]),  # theta = 0
        np.diag([1.0, cmath.exp(1.1j)]),
        np.array([[0.0, -cmath.exp(0.4j)], [cmath.exp(-0.9j), 0.0]]),  # theta = pi
        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        np.eye(2, dtype=complex),
        -np.eye(2, dtype=complex),
        phase * np.eye(2),
        phase * u3_matrix(1e-12, 0.0, 0.0),  # identity class within atol
        u3_matrix(1e-6, 0.0, 0.0),  # close to, but not within, the identity class
        u3_matrix(math.pi - 1e-12, 0.3, 0.5),
    ]


def _inputs(count=48, seed=5):
    rng = np.random.default_rng(seed)
    haar = [haar_random_unitary(2, rng) for _ in range(count)]
    return np.stack(haar + _edge_cases())


def _same_angle(a, b, atol=1e-8):
    return abs(cmath.phase(cmath.exp(1j * (a - b)))) <= atol


def test_identity_class_batch_matches_scalar_predicate():
    stack = _inputs()
    expected = [allclose_up_to_global_phase(m, np.eye(2), atol=1e-10) for m in stack]
    assert is_identity_class_batch(stack).tolist() == expected
    assert sum(expected) == 4  # I, -I, e^{i phi} I and the 1e-12 rotation


def test_zyz_and_u3_batches_match_the_scalar_extraction():
    # Both paths read theta off acos(|m00|), which near theta = 0 turns one
    # ulp of |m00| into ~3e-8 of theta, so theta and the rebuilt matrix are
    # compared at 1e-7; phi and lam are compared only on the well-conditioned
    # Haar inputs (at theta ~ 0 or pi only their sum or difference matters).
    haar_count = 48
    stack = _inputs(count=haar_count)
    alphas, thetas, phis, lams = zyz_angles_batch(stack)
    phases, u_thetas, u_phis, u_lams = u3_params_batch(stack)
    assert np.array_equal(thetas, u_thetas)
    for index, matrix in enumerate(stack):
        alpha, theta, phi, lam = zyz_angles(matrix)
        scalar_phase = u3_params_from_matrix(matrix)[0]
        assert _same_angle(alphas[index], alpha)
        assert thetas[index] == pytest.approx(theta, abs=1e-7)
        if index < haar_count:
            assert _same_angle(phis[index], phi) and _same_angle(lams[index], lam)
            assert _same_angle(phases[index], scalar_phase)
        rebuilt = cmath.exp(1j * phases[index]) * u3_matrix(u_thetas[index], u_phis[index], u_lams[index])
        assert np.allclose(rebuilt, matrix, atol=1e-7)
    assert max(thetas[haar_count : haar_count + 2]) < 1e-7  # diagonal
    assert thetas[haar_count + 2] == pytest.approx(math.pi)  # anti-diagonal


@pytest.mark.parametrize("kernel", [zyz_angles_batch, u3_params_batch])
def test_non_unitary_input_raises_like_the_scalar_path(kernel):
    stack = np.stack([np.eye(2, dtype=complex), 1.5 * np.eye(2, dtype=complex)])
    with pytest.raises(ValueError, match="not unitary"):
        kernel(stack)
    with pytest.raises(ValueError, match="not unitary"):
        u3_params_from_matrix(stack[1])
    with pytest.raises(ValueError):
        kernel(np.eye(2))  # not an (N, 2, 2) stack


def test_batch_split_in_two_is_bit_identical_to_the_whole_batch():
    stack = _inputs(count=61, seed=9)
    split = 17
    whole_mask = is_identity_class_batch(stack)
    parts_mask = np.concatenate(
        [is_identity_class_batch(stack[:split]), is_identity_class_batch(stack[split:])]
    )
    assert np.array_equal(whole_mask, parts_mask)
    whole = u3_params_batch(stack)
    head, tail = u3_params_batch(stack[:split]), u3_params_batch(stack[split:])
    for full, first, second in zip(whole, head, tail):
        assert full.tobytes() == np.concatenate([first, second]).tobytes()


# ---------------------------------------------------------------------------
# The array finalize scan against the closure scan it replaced.
# ---------------------------------------------------------------------------


def _scan_program(num_qubits, num_gates, seed):
    """Random finalize input: every instruction kind the scan distinguishes.

    Haar ``su4`` blocks (some repeated, as one shared gate and as equal
    copies), cx and swap (synthesized), identity-class blocks (local
    products: no Can, so their factors join longer segments), named ``can``
    gates and a 3-qubit ``ccx`` (flushed and passed through), and 1Q gates
    including identities (dropped products).
    """
    rng = np.random.default_rng(seed)
    shared = UnitaryGate(haar_random_unitary(4, rng), label="su4")
    program = []
    for _ in range(num_gates):
        kind = rng.choice(["u3", "id", "su4", "shared", "copy", "local", "cx", "swap", "can", "ccx"])
        a, b, c = (int(q) for q in rng.choice(num_qubits, size=3, replace=False))
        if kind == "u3":
            gate, qubits = standard.u3_gate(*rng.uniform(-math.pi, math.pi, 3)), (a,)
        elif kind == "id":
            gate, qubits = UnitaryGate(np.eye(2), label="id"), (a,)
        elif kind == "su4":
            gate, qubits = UnitaryGate(haar_random_unitary(4, rng), label="su4"), (a, b)
        elif kind == "shared":
            gate, qubits = shared, (a, b)
        elif kind == "copy":
            gate, qubits = UnitaryGate(shared.matrix.copy(), label="su4"), (a, b)
        elif kind == "local":
            local = np.kron(haar_random_unitary(2, rng), haar_random_unitary(2, rng))
            gate, qubits = UnitaryGate(local, label="su4"), (a, b)
        elif kind == "cx":
            gate, qubits = standard.cx_gate(), (a, b)
        elif kind == "swap":
            gate, qubits = standard.swap_gate(), (a, b)
        elif kind == "can":
            gate, qubits = standard.can_gate(*rng.uniform(-0.5, 0.5, 3)), (a, b)
        else:
            gate, qubits = standard.ccx_gate(), (a, b, c)
        program.append(Instruction(gate, qubits))
    return program


def _bits(instructions):
    return [
        (instr.gate.name, instr.qubits, tuple(float(p).hex() for p in instr.gate.params))
        for instr in instructions
    ]


@pytest.mark.parametrize("merge", [True, False])
@pytest.mark.parametrize("seed", range(6))
def test_array_scan_matches_the_closure_scan_bit_for_bit(merge, seed):
    program = _scan_program(5, 120, seed)
    circuit = QuantumCircuit(5)
    for instruction in program:
        circuit.append(instruction.gate, instruction.qubits)
    result = run_pass(FinalizeToCanPass(merge_single_qubit=merge), circuit)
    expected = finalize_closure_scan(program, merge_single_qubit=merge)
    assert _bits(result) == _bits(expected)
    names = [instr.gate.name for instr in result]
    assert set(names) <= {"u3", "can", "ccx"}
    # Identity-class blocks emitted no Can, so some segments ran longer.
    assert 0 < names.count("can") < sum(len(instr.qubits) == 2 for instr in program)


@pytest.mark.parametrize("merge", [True, False])
def test_array_scan_edge_programs_match_the_closure_scan(merge):
    rng = np.random.default_rng(3)
    local = UnitaryGate(np.kron(haar_random_unitary(2, rng), haar_random_unitary(2, rng)), label="su4")
    programs = [
        [],
        [Instruction(standard.u3_gate(0.1, 0.2, 0.3), (1,)), Instruction(standard.h_gate(), (1,))],
        [Instruction(standard.can_gate(0.3, 0.2, 0.1), (0, 1))],
        [Instruction(standard.ccx_gate(), (0, 1, 2))],
        # Identity-class blocks only: one segment per wire, 2 factors each.
        [Instruction(local, (0, 1)), Instruction(local, (1, 2)), Instruction(standard.h_gate(), (0,))],
    ]
    for program in programs:
        circuit = QuantumCircuit(3)
        for instruction in program:
            circuit.append(instruction.gate, instruction.qubits)
        result = run_pass(FinalizeToCanPass(merge_single_qubit=merge), circuit)
        assert _bits(result) == _bits(finalize_closure_scan(program, merge_single_qubit=merge))


# ---------------------------------------------------------------------------
# Compiled programs equal their input up to final_permutation.
# ---------------------------------------------------------------------------

_ANGLE = st.floats(-math.pi, math.pi, allow_nan=False, allow_infinity=False)
_SMALL = st.floats(-0.05, 0.05, allow_nan=False, allow_infinity=False)


@st.composite
def _circuits(draw):
    num_qubits = draw(st.integers(2, 6))
    circuit = QuantumCircuit(num_qubits, "fuzz")
    for _ in range(draw(st.integers(1, 18))):
        kind = draw(st.sampled_from(["u3", "cx", "can", "near"]))
        if kind == "u3":
            circuit.u3(draw(_ANGLE), draw(_ANGLE), draw(_ANGLE), draw(st.integers(0, num_qubits - 1)))
            continue
        a = draw(st.integers(0, num_qubits - 1))
        b = draw(st.integers(0, num_qubits - 2))
        b = b if b < a else b + 1
        if kind == "cx":
            circuit.cx(a, b)
        elif kind == "can":
            circuit.can(draw(_ANGLE), draw(_ANGLE), draw(_ANGLE), a, b)
        else:  # near-identity: exercises mirroring
            circuit.can(draw(_SMALL), draw(_SMALL), draw(_SMALL), a, b)
    return circuit


def _spec(merge_single_qubit):
    spec = named_pipeline("reqisc-eff")
    stages = tuple(
        dataclasses.replace(stage, config={"merge_single_qubit": merge_single_qubit})
        if stage.pass_id == "finalize"
        else stage
        for stage in spec.stages
    )
    return dataclasses.replace(spec, stages=stages)


def _assert_equivalent(source, result):
    names = set(result.circuit.count_by_name())
    assert names <= {"can", "u3"}
    expected = permutation_unitary(result.final_permutation) @ source.to_unitary()
    assert allclose_up_to_global_phase(result.circuit.to_unitary(), expected, atol=1e-6)


@settings(max_examples=20, deadline=None)
@given(_circuits())
def test_compiled_program_equals_input_up_to_final_permutation(circuit):
    for target in (None, "xy-line"):
        for merge in (True, False):
            result = target_compile(circuit, target=target, spec=_spec(merge))
            _assert_equivalent(circuit, result)


def test_final_permutation_composes_routing_layout():
    circuit = QuantumCircuit(5, "routed")
    for a, b in [(0, 4), (1, 3), (0, 2), (4, 1), (2, 3), (0, 3)]:
        circuit.h(a)
        circuit.cx(a, b)
    circuit.can(0.02, 0.01, 0.0, 1, 2)  # near identity: mirrored
    result = target_compile(circuit, target="xy-line", spec="reqisc-eff")
    properties = result.properties
    assert properties["inserted_swaps"] > 0
    assert properties["mirrored_gate_count"] > 0
    permutation = result.final_permutation
    assert sorted(permutation) == list(range(5))
    # The mirror map alone is not the answer once routing has moved qubits.
    assert permutation != list(properties["mirror_permutation"])

    rng = np.random.default_rng(3)
    state = rng.normal(size=32) + 1j * rng.normal(size=32)
    state /= np.linalg.norm(state)
    expected = permutation_unitary(permutation) @ simulate_statevector(circuit, state)
    actual = simulate_statevector(result.circuit, state)
    assert abs(np.vdot(expected, actual)) == pytest.approx(1.0, abs=1e-8)


def test_final_permutation_defaults_to_identity_without_maps():
    circuit = QuantumCircuit(3)
    circuit.cx(0, 1)
    result = target_compile(circuit, spec="qiskit-like")
    assert result.final_permutation == [0, 1, 2]


# ---------------------------------------------------------------------------
# Mirror robustness.
# ---------------------------------------------------------------------------


def test_mirror_falls_back_per_gate_when_the_batch_raises():
    near = canonical_gate(0.02, 0.01, 0.0)
    circuit = QuantumCircuit(3)
    circuit.append(UnitaryGate(near, label="su4"), [0, 1])
    circuit.append(UnitaryGate(2.0 * np.eye(4), label="su4"), [1, 2])  # |det| != 1
    circuit.append(UnitaryGate(canonical_gate(math.pi / 4, 0.0, 0.0), label="su4"), [0, 2])
    properties = {}
    result = run_pass(MirrorNearIdentityPass(threshold=0.15), circuit, properties)
    # The malformed block is left alone; the healthy near-identity one is mirrored.
    assert properties["mirrored_gate_count"] == 1
    assert len(result) == 3
    assert np.array_equal(result.instructions[1].gate.matrix, 2.0 * np.eye(4))
