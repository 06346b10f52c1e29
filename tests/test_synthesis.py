"""Tests for the synthesis engines: 1Q/2Q exact synthesis, block consolidation,
MCX decomposition, templates and the approximate-synthesis kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.instruction import Instruction
from repro.gates import standard
from repro.gates.gate import UnitaryGate
from repro.linalg.predicates import allclose_up_to_global_phase, unitary_infidelity
from repro.linalg.random import haar_random_su2, haar_random_unitary
from repro.linalg.weyl import canonical_gate, weyl_coordinates
from repro.linalg.su2 import u3_matrix
from repro.simulators.statevector import apply_gate_sequence, simulate_statevector
from repro.simulators.unitary import permutation_unitary
from repro.kernels import backend_info
from repro.synthesis.approximate import (
    _OBJECTIVES,
    INSTANTIATION_TOKENS,
    AnsatzBlock,
    ApproximateSynthesizer,
    _ansatz_plan,
    _infidelity_and_gradient,
    default_pair_order,
    instantiation_token,
)
from repro.ir import CircuitIR
from repro.synthesis.blocks import _collect_blocks, block_unitaries, consolidate_blocks, replace_run
from repro.synthesis.mcx import decompose_mcx, expand_mcx_gates, required_ancillas
from repro.synthesis.one_qubit import u3_from_matrix
from repro.synthesis.templates import TemplateLibrary, default_template_library, template_ir_key
from repro.synthesis.two_qubit import (
    canonical_to_cnot_circuit,
    cnot_count_for_coordinates,
    two_qubit_to_can_circuit,
    two_qubit_to_cnot_circuit,
    two_qubit_to_fixed_basis_circuit,
)

PI_4 = math.pi / 4.0
PI_8 = math.pi / 8.0


# ---------------------------------------------------------------------------
# One-qubit synthesis.
# ---------------------------------------------------------------------------


def test_u3_from_matrix_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        target = haar_random_su2(rng)
        phase, gate = u3_from_matrix(target)
        assert np.allclose(np.exp(1j * phase) * gate.matrix, target, atol=1e-9)


def test_u3_from_matrix_identity_and_paulis():
    for matrix in (np.eye(2), standard.x_gate().matrix, standard.z_gate().matrix):
        phase, gate = u3_from_matrix(matrix)
        assert np.allclose(np.exp(1j * phase) * gate.matrix, matrix, atol=1e-9)


# ---------------------------------------------------------------------------
# Two-qubit exact synthesis.
# ---------------------------------------------------------------------------


def test_cnot_count_for_coordinates():
    assert cnot_count_for_coordinates((0, 0, 0)) == 0
    assert cnot_count_for_coordinates((PI_4, 0, 0)) == 1
    assert cnot_count_for_coordinates((PI_8, PI_8, 0)) == 2
    assert cnot_count_for_coordinates((PI_4, PI_4, PI_4)) == 3


def test_two_qubit_to_can_circuit_random():
    rng = np.random.default_rng(1)
    for _ in range(10):
        target = haar_random_unitary(4, rng)
        circuit = two_qubit_to_can_circuit(target)
        assert circuit.count_two_qubit_gates() == 1
        assert allclose_up_to_global_phase(circuit.to_unitary(), target, atol=1e-6)


def test_two_qubit_to_can_circuit_local_target():
    rng = np.random.default_rng(2)
    target = np.kron(haar_random_su2(rng), haar_random_su2(rng))
    circuit = two_qubit_to_can_circuit(target)
    assert circuit.count_two_qubit_gates() == 0
    assert allclose_up_to_global_phase(circuit.to_unitary(), target, atol=1e-7)


@pytest.mark.parametrize(
    "coords,expected_cnots",
    [
        ((0.0, 0.0, 0.0), 0),
        ((PI_4, 0.0, 0.0), 1),
        ((0.3, 0.2, 0.0), 2),
        ((PI_4, PI_4, PI_4), 3),
        ((0.5, 0.3, -0.2), 3),
    ],
)
def test_canonical_to_cnot_circuit_classes(coords, expected_cnots):
    circuit = canonical_to_cnot_circuit(*coords)
    assert circuit.count_two_qubit_gates() == expected_cnots
    if expected_cnots:
        achieved = weyl_coordinates(circuit.to_unitary())
        from repro.linalg.weyl import canonicalize_coordinates

        assert np.allclose(achieved, canonicalize_coordinates(*coords), atol=1e-6)


def test_two_qubit_to_cnot_circuit_named_gates():
    for gate in (standard.cx_gate(), standard.swap_gate(), standard.iswap_gate(), standard.b_gate()):
        circuit = two_qubit_to_cnot_circuit(gate.matrix)
        assert circuit.count_two_qubit_gates() <= 3
        assert allclose_up_to_global_phase(circuit.to_unitary(), gate.matrix, atol=1e-6)


def test_two_qubit_to_cnot_circuit_random():
    rng = np.random.default_rng(3)
    for _ in range(6):
        target = haar_random_unitary(4, rng)
        circuit = two_qubit_to_cnot_circuit(target)
        assert circuit.count_two_qubit_gates() == 3
        assert unitary_infidelity(circuit.to_unitary(), target) < 1e-6


def test_two_qubit_to_cnot_on_larger_register():
    target = standard.swap_gate().matrix
    circuit = two_qubit_to_cnot_circuit(target, qubits=(2, 0), num_qubits=3)
    assert circuit.num_qubits == 3
    reference = QuantumCircuit(3)
    reference.swap(2, 0)
    assert allclose_up_to_global_phase(circuit.to_unitary(), reference.to_unitary(), atol=1e-6)


def test_two_qubit_to_fixed_basis_sqisw():
    # A CNOT needs exactly two SQiSW applications (Huang et al.).
    target = standard.cx_gate().matrix
    circuit = two_qubit_to_fixed_basis_circuit(target, basis_gate_name="sqisw", tolerance=1e-7)
    assert circuit.count_two_qubit_gates() == 2
    assert unitary_infidelity(circuit.to_unitary(), target) < 1e-6


def test_two_qubit_to_fixed_basis_b_gate():
    rng = np.random.default_rng(5)
    target = haar_random_unitary(4, rng)
    circuit = two_qubit_to_fixed_basis_circuit(target, basis_gate_name="b", tolerance=1e-6)
    assert circuit.count_two_qubit_gates() == 2
    assert unitary_infidelity(circuit.to_unitary(), target) < 1e-5


# ---------------------------------------------------------------------------
# Block collection / consolidation.
# ---------------------------------------------------------------------------


def _run_heavy_circuit():
    circuit = QuantumCircuit(3)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.rz(0.3, 1)
    circuit.cx(0, 1)
    circuit.cx(1, 2)
    circuit.cx(1, 2)
    circuit.t(2)
    return circuit


def _consolidated(circuit, form, only_if_fewer_gates=False):
    ir = CircuitIR.from_instructions(circuit.num_qubits, circuit)
    consolidate_blocks(ir, form=form, only_if_fewer_gates=only_if_fewer_gates)
    return QuantumCircuit(circuit.num_qubits).extend(ir)


def test_collect_two_qubit_blocks_structure():
    circuit = _run_heavy_circuit()
    blocks = _collect_blocks(enumerate(circuit))
    assert len(blocks) == 2
    assert blocks[0].qubits == (0, 1)
    assert blocks[0].num_two_qubit_gates == 2
    assert blocks[1].qubits == (1, 2)
    # h(0) precedes any block on qubit 0 and stays in no block; the trailing
    # t(2) joins the open (1, 2) block.
    in_block = {key for block in blocks for key in block.members}
    assert [circuit[key].gate.name for key in range(len(circuit)) if key not in in_block] == ["h"]
    assert "t" in [instr.gate.name for instr in blocks[1].instructions]


def test_block_unitary_matches_subcircuit():
    blocks = _collect_blocks(enumerate(_run_heavy_circuit()))
    sub = QuantumCircuit(2)
    sub.cx(0, 1).rz(0.3, 1).cx(0, 1)
    assert np.allclose(block_unitaries(blocks[:1])[0], sub.to_unitary())


def test_block_unitaries_equal_per_block_sequences_bit_for_bit():
    """Stacked per-signature products against one ``apply_gate_sequence`` per block."""
    rng = np.random.default_rng(17)
    circuit = QuantumCircuit(5)
    for _ in range(600):
        a, b = (int(q) for q in rng.choice(5, size=2, replace=False))
        kind = rng.integers(5)
        if kind == 0:
            circuit.u3(*rng.uniform(-math.pi, math.pi, 3), a)
        elif kind == 1:
            circuit.rz(float(rng.uniform(-math.pi, math.pi)), a)
        elif kind == 2:
            circuit.cx(a, b)
        elif kind == 3:
            circuit.append(UnitaryGate(haar_random_unitary(4, rng), label="su4"), (a, b))
        else:
            circuit.can(*rng.uniform(-0.7, 0.7, 3), a, b)
    blocks = _collect_blocks(enumerate(circuit))
    signatures = {
        tuple(tuple(q != block.qubits[0] for q in instr.qubits) for instr in block.instructions)
        for block in blocks
    }
    assert len(blocks) > 100 and len(signatures) > 20
    for block, unitary in zip(blocks, block_unitaries(blocks)):
        local = {block.qubits[0]: 0, block.qubits[1]: 1}
        operations = [(instr.gate.matrix, [local[q] for q in instr.qubits]) for instr in block.instructions]
        expected = apply_gate_sequence(np.eye(4, dtype=complex), operations, 2)
        assert unitary.tobytes() == expected.tobytes()
    assert block_unitaries([]) == []


@pytest.mark.parametrize("form", ["unitary", "can", "cx"])
def test_consolidate_blocks_preserves_unitary(form):
    circuit = _run_heavy_circuit()
    consolidated = _consolidated(circuit, form)
    assert allclose_up_to_global_phase(
        consolidated.to_unitary(), circuit.to_unitary(), atol=1e-6
    )


def test_consolidate_blocks_reduces_cx_count():
    circuit = _run_heavy_circuit()
    consolidated = _consolidated(circuit, "cx", only_if_fewer_gates=True)
    # The (1,2) block is two cancelling CNOTs -> 0 gates; the (0,1) block is a
    # controlled-RZ class -> 2 CNOTs.
    assert consolidated.count_two_qubit_gates() <= 2
    assert allclose_up_to_global_phase(
        consolidated.to_unitary(), circuit.to_unitary(), atol=1e-6
    )


def test_consolidate_blocks_unitary_form_counts():
    consolidated = _consolidated(_run_heavy_circuit(), "unitary")
    assert consolidated.count_two_qubit_gates() == 2
    names = consolidated.count_by_name()
    assert names.get("su4", 0) == 2


def test_replace_run_collapses_a_kept_interleaved_run_onto_its_first_member():
    ir = CircuitIR(3)
    first = ir.append(Instruction(standard.cx_gate(), (0, 1)))
    between = ir.append(Instruction(standard.h_gate(), (2,)))
    last = ir.append(Instruction(standard.cx_gate(), (1, 0)))
    replace_run(ir, [first, last], None)
    assert [instr.qubits for instr in ir] == [(0, 1), (1, 0), (2,)]
    # A kept run that is already contiguous keeps its nodes.
    nodes = list(ir.nodes())
    replace_run(ir, nodes[:2], None)
    assert list(ir.nodes()) == nodes and between in ir


# ---------------------------------------------------------------------------
# MCX decomposition.
# ---------------------------------------------------------------------------


def test_required_ancillas():
    assert required_ancillas(2) == 0
    assert required_ancillas(3) == 1
    assert required_ancillas(5) == 3


def _check_mcx_action(num_controls):
    num_qubits = num_controls + 1 + required_ancillas(num_controls)
    controls = list(range(num_controls))
    target = num_controls
    ancillas = list(range(num_controls + 1, num_qubits))
    circuit = decompose_mcx(controls, target, ancillas, num_qubits)
    assert all(instr.gate.name in ("cx", "ccx", "x") for instr in circuit)
    # Check action on every control configuration with ancillas in |0>.
    for config in range(2**num_controls):
        state = np.zeros(2**num_qubits, dtype=complex)
        index = 0
        for bit in range(num_controls):
            if (config >> (num_controls - 1 - bit)) & 1:
                index |= 1 << (num_qubits - 1 - bit)
        state[index] = 1.0
        result = simulate_statevector(circuit, initial_state=state)
        expected_index = index
        if config == 2**num_controls - 1:
            expected_index = index | (1 << (num_qubits - 1 - target))
        expected = np.zeros_like(state)
        expected[expected_index] = 1.0
        assert np.allclose(result, expected, atol=1e-9), f"controls={config:b}"


@pytest.mark.parametrize("num_controls", [1, 2, 3, 4, 5])
def test_decompose_mcx_action(num_controls):
    _check_mcx_action(num_controls)


def test_decompose_mcx_requires_ancillas():
    with pytest.raises(ValueError):
        decompose_mcx([0, 1, 2], 3, [], 4)


def test_expand_mcx_gates():
    circuit = QuantumCircuit(6)
    circuit.x(0)
    circuit.mcx([0, 1, 2], 3)
    expanded = expand_mcx_gates(circuit, ancillas=[4, 5])
    assert all(instr.gate.name != "mcx" for instr in expanded)
    assert expanded.count_by_name()["ccx"] >= 3


# ---------------------------------------------------------------------------
# Template library.
# ---------------------------------------------------------------------------


def test_default_template_library_entries():
    library = default_template_library()
    for name in ("ccx", "ccz", "peres", "cswap", "maj", "uma"):
        assert library.has(name)


@pytest.mark.parametrize("name", ["ccx", "ccz", "peres", "cswap", "maj", "uma"])
def test_templates_realize_their_reference(name):
    library = default_template_library()
    template = library.get(name)
    assert allclose_up_to_global_phase(
        template.realization.to_unitary(), template.reference.to_unitary(), atol=1e-7
    )


def test_template_su4_counts():
    library = default_template_library()
    assert library.su4_count("ccx") == 5
    assert library.su4_count("peres") == 4
    assert library.su4_count("ccx") > library.su4_count("peres")
    assert library.su4_count("cswap") <= 6


def test_template_variants_are_equivalent():
    library = default_template_library()
    reference = library.get("ccx").reference.to_unitary()
    for variant in library.variants("ccx"):
        assert allclose_up_to_global_phase(variant.to_unitary(), reference, atol=1e-7)


def test_template_ir_key_normalizes_control_order():
    assert template_ir_key("ccx", (0, 1, 2)) == template_ir_key("ccx", (1, 0, 2))
    assert template_ir_key("ccx", (0, 1, 2)) != template_ir_key("ccx", (0, 2, 1))
    assert template_ir_key("peres", (0, 1, 2)) != template_ir_key("peres", (1, 0, 2))


def test_template_register_rejects_wrong_circuit():
    library = TemplateLibrary()
    wrong = QuantumCircuit(3)
    wrong.cx(0, 1)
    with pytest.raises(ValueError):
        library.register("bogus", _reference_ccx(), wrong)


def test_library_fingerprint_is_memoized_until_a_register():
    library = TemplateLibrary()
    key = library.fingerprint()
    assert library.fingerprint() is key
    assert key == TemplateLibrary().fingerprint()
    realization = QuantumCircuit(3)
    realization.cv(1, 2).cx(0, 1).cvdg(1, 2).cx(0, 1).cv(0, 2)
    library.register("toffoli", _reference_ccx(), realization)
    assert library.fingerprint() != key


def _reference_ccx():
    circuit = QuantumCircuit(3)
    circuit.ccx(0, 1, 2)
    return circuit


# ---------------------------------------------------------------------------
# Approximate synthesis.
# ---------------------------------------------------------------------------


def test_instantiate_two_qubit_canonical_block():
    synthesizer = ApproximateSynthesizer(tolerance=1e-8, restarts=2, seed=3)
    target = standard.iswap_gate().matrix
    result = synthesizer.instantiate(target, 2, [AnsatzBlock(pair=(0, 1))])
    assert result is not None
    assert result.infidelity < 1e-7
    assert unitary_infidelity(result.circuit.to_unitary(), target) < 1e-6


def test_synthesize_three_qubit_block_reduces_count():
    # A 3-qubit circuit with 4 CNOTs on only two pairs collapses to <= 3 SU(4)s.
    circuit = QuantumCircuit(3)
    circuit.cx(0, 1).t(1).cx(1, 2).h(2).cx(1, 2).cx(0, 1)
    target = circuit.to_unitary()
    synthesizer = ApproximateSynthesizer(tolerance=1e-6, restarts=2, seed=5, max_iterations=400)
    result = synthesizer.synthesize(target, num_qubits=3, max_blocks=3, min_blocks=2)
    assert result is not None
    assert result.infidelity < 1e-6
    assert result.two_qubit_count <= 3
    assert unitary_infidelity(result.circuit.to_unitary(), target) < 1e-5


def test_synthesize_uses_cache():
    synthesizer = ApproximateSynthesizer(tolerance=1e-6, restarts=1, seed=9)
    target = standard.cx_gate().matrix
    first = synthesizer.synthesize(target, num_qubits=2, max_blocks=1)
    second = synthesizer.synthesize(target, num_qubits=2, max_blocks=1)
    assert first is second


@settings(max_examples=5, deadline=None)
@given(st.integers(min_value=0, max_value=1000))
def test_property_can_synthesis_roundtrip(seed):
    target = haar_random_unitary(4, np.random.default_rng(seed))
    circuit = two_qubit_to_can_circuit(target)
    assert unitary_infidelity(circuit.to_unitary(), target) < 1e-8


def test_synthesize_cache_separates_pair_orders():
    circuit = QuantumCircuit(3)
    circuit.cx(0, 1).t(1).cx(1, 2).h(2).cx(1, 2).cx(0, 1)
    target = circuit.to_unitary()
    synthesizer = ApproximateSynthesizer(tolerance=1e-6, restarts=0, seed=5, max_iterations=50)
    first = synthesizer.synthesize(target, 3, max_blocks=2, min_blocks=2, pair_order=[(0, 1), (1, 2)])
    second = synthesizer.synthesize(target, 3, max_blocks=2, min_blocks=2, pair_order=[(1, 2), (0, 2)])
    assert [block.pair for block in first.blocks] == [(0, 1), (1, 2)]
    assert [block.pair for block in second.blocks] == [(1, 2), (0, 2)]


# ---------------------------------------------------------------------------
# The instantiation objective and its exact gradient.
# ---------------------------------------------------------------------------


def _ansatz(num_qubits, gate_name, count=4):
    pairs = default_pair_order(num_qubits)
    return tuple(AnsatzBlock(pair=pairs[i % len(pairs)], gate_name=gate_name) for i in range(count))


def _reference_unitary(params, num_qubits, blocks):
    """The ansatz unitary built gate by gate through the statevector kernel."""
    operations = []
    cursor = 0

    def take():
        nonlocal cursor
        cursor += 3
        return params[cursor - 3 : cursor]

    for qubit in range(num_qubits):
        operations.append((u3_matrix(*take()), (qubit,)))
    for block in blocks:
        if block.gate_name is None:
            operations.append((canonical_gate(*take()), block.pair))
        else:
            operations.append((standard.named_gate(block.gate_name).matrix, block.pair))
        for qubit in block.pair:
            operations.append((u3_matrix(*take()), (qubit,)))
    return apply_gate_sequence(np.eye(2**num_qubits, dtype=complex), operations, num_qubits)


_GRADIENT_CASES = [(n, gate) for n in (2, 3, 4) for gate in (None, "cx", "sqisw", "b")]

needs_native = pytest.mark.skipif(not backend_info()["native_available"], reason="extension not built")

#: Objective backends available in this checkout.
_OBJECTIVE_BACKENDS = ["py"] + (["native"] if backend_info()["native_available"] else [])

#: The objective tests' cases on both backends; the numpy cases keep their ids.
_OBJECTIVE_CASES = [pytest.param(n, gate, "py", id=f"{n}-{gate}") for n, gate in _GRADIENT_CASES]
_OBJECTIVE_CASES += [
    pytest.param(n, gate, "native", id=f"{n}-{gate}-native", marks=needs_native)
    for n, gate in _GRADIENT_CASES
]


@pytest.mark.parametrize("num_qubits,gate_name,backend", _OBJECTIVE_CASES)
def test_objective_gradient_matches_central_differences(num_qubits, gate_name, backend):
    objective = _OBJECTIVES[backend]
    rng = np.random.default_rng(num_qubits * 10 + len(gate_name or ""))
    blocks = _ansatz(num_qubits, gate_name)
    plan = _ansatz_plan(num_qubits, blocks)
    target = haar_random_unitary(2**num_qubits, rng)
    params = rng.uniform(-math.pi, math.pi, plan.num_parameters)
    _, gradient = objective(params, plan, target)
    step = 1e-6
    numeric = np.empty_like(gradient)
    for index in range(params.size):
        shift = np.zeros_like(params)
        shift[index] = step
        upper, _ = objective(params + shift, plan, target)
        lower, _ = objective(params - shift, plan, target)
        numeric[index] = (upper - lower) / (2 * step)
    assert np.max(np.abs(gradient - numeric)) <= 1e-6


@pytest.mark.parametrize("num_qubits,gate_name,backend", _OBJECTIVE_CASES)
def test_objective_value_matches_gate_by_gate_infidelity(num_qubits, gate_name, backend):
    objective = _OBJECTIVES[backend]
    rng = np.random.default_rng(100 + num_qubits)
    blocks = _ansatz(num_qubits, gate_name)
    plan = _ansatz_plan(num_qubits, blocks)
    target = haar_random_unitary(2**num_qubits, rng)
    for _ in range(3):
        params = rng.uniform(-math.pi, math.pi, plan.num_parameters)
        value, _ = objective(params, plan, target)
        trial = _reference_unitary(params, num_qubits, blocks)
        expected = 1.0 - abs(np.trace(target.conj().T @ trial)) / 2**num_qubits
        assert abs(value - expected) <= 1e-14


def test_objective_gradient_is_finite_for_an_orthogonal_target():
    # With every parameter zero the ansatz is the identity, and tr(Z x Z) = 0.
    plan = _ansatz_plan(2, ())
    target = np.kron(standard.z_gate().matrix, standard.z_gate().matrix)
    for backend in _OBJECTIVE_BACKENDS:
        value, gradient = _OBJECTIVES[backend](np.zeros(plan.num_parameters), plan, target)
        assert value == 1.0, backend
        assert np.all(np.isfinite(gradient)), backend


@needs_native
@pytest.mark.parametrize("num_qubits,gate_name", _GRADIENT_CASES)
def test_native_objective_agrees_with_numpy(num_qubits, gate_name):
    rng = np.random.default_rng(200 + num_qubits)
    pairs = default_pair_order(num_qubits)
    blocks = []
    for index in range(5):
        pair = pairs[index % len(pairs)]
        # Odd blocks reverse their pair: the first qubit sits below the second.
        blocks.append(AnsatzBlock(pair=pair if index % 2 == 0 else pair[::-1], gate_name=gate_name))
    plan = _ansatz_plan(num_qubits, blocks)
    target = haar_random_unitary(2**num_qubits, rng)
    # Transposed and Fortran-ordered views: the kernel reads any strides.
    for view in (target, target.T, np.asfortranarray(target)):
        params = rng.uniform(-math.pi, math.pi, plan.num_parameters)
        expected, expected_gradient = _infidelity_and_gradient(params, plan, view)
        value, gradient = _OBJECTIVES["native"](params, plan, view)
        assert abs(value - expected) <= 1e-12
        assert np.max(np.abs(gradient - expected_gradient)) <= 1e-12


@needs_native
@pytest.mark.parametrize("num_qubits,count", [(1, 0), (5, 7)])
def test_native_objective_has_no_size_limit_of_its_own(num_qubits, count):
    rng = np.random.default_rng(300 + num_qubits)
    plan = _ansatz_plan(num_qubits, _ansatz(num_qubits, "b", count=count))
    target = haar_random_unitary(2**num_qubits, rng)
    params = rng.uniform(-math.pi, math.pi, plan.num_parameters)
    expected, expected_gradient = _infidelity_and_gradient(params, plan, target)
    value, gradient = _OBJECTIVES["native"](params, plan, target)
    assert abs(value - expected) <= 1e-12
    assert np.max(np.abs(gradient - expected_gradient)) <= 1e-12


@needs_native
def test_native_objective_returns_a_fresh_gradient_per_call():
    plan = _ansatz_plan(2, _ansatz(2, None, count=1))
    target = standard.iswap_gate().matrix
    params = np.linspace(-1.0, 1.0, plan.num_parameters)
    _, first = _OBJECTIVES["native"](params, plan, target)
    kept = first.copy()
    _, second = _OBJECTIVES["native"](params + 0.5, plan, target)
    assert second is not first
    assert np.array_equal(first, kept)


def test_rip_add_dense_block_is_resynthesized_through_reqisc_full():
    from repro.target.api import compile as target_compile
    from repro.target.target import resolve_target
    from repro.workloads.suite import benchmark_suite

    (case,) = [c for c in benchmark_suite(scale="medium") if c.name == "rip_add_8"]
    source = case.circuit
    device = resolve_target("xy-grid", num_qubits=source.num_qubits)
    result = target_compile(source, target=device, spec="reqisc-full", seed=1)
    (record,) = [r for r in result.pass_records if r.name == "hierarchical_synthesis"]
    assert record.two_qubit_after == record.two_qubit_before - 1
    expected = permutation_unitary(result.final_permutation) @ source.to_unitary()
    assert allclose_up_to_global_phase(result.circuit.to_unitary(), expected, atol=1e-6)


def test_resynthesis_cache_key_is_versioned():
    # Results of the current optimizer must never share a synthesis-cache
    # key with those of an earlier one.
    from repro.compiler.passes.hierarchical import HierarchicalSynthesisPass
    from repro.service.cache import unitary_fingerprint

    hierarchical = HierarchicalSynthesisPass()
    synth = hierarchical.synthesizer
    settings = f"synth={synth.tolerance}:{synth.restarts}:{synth.seed}:{synth.max_iterations}"
    block = QuantumCircuit(3)
    block.cx(0, 1).cx(1, 2).cx(0, 2).cx(0, 1).cx(1, 2)
    target = block.to_unitary()
    context = ("hierarchical_synthesis", "count=5", "tol=1e-06", settings)
    token = instantiation_token()
    assert hierarchical.cache_key(target, 5) == unitary_fingerprint(target, *context, token)
    assert hierarchical.cache_key(target, 5) != unitary_fingerprint(target, *context)


def test_resynthesis_cache_key_carries_the_active_backend(monkeypatch):
    # The two objectives differ in their low bits, so a result one backend
    # persisted must never answer a compile on the other.
    from repro.compiler.passes.hierarchical import HierarchicalSynthesisPass
    from repro.service.cache import unitary_fingerprint

    # The numpy path keeps its historical token: caches filled before the
    # native objective existed still hit under REPRO_KERNELS=py.
    assert INSTANTIATION_TOKENS["py"] == "grad=analytic/1"
    assert INSTANTIATION_TOKENS["native"] != INSTANTIATION_TOKENS["py"]
    hierarchical = HierarchicalSynthesisPass()
    synth = hierarchical.synthesizer
    settings = f"synth={synth.tolerance}:{synth.restarts}:{synth.seed}:{synth.max_iterations}"
    context = ("hierarchical_synthesis", "count=5", "tol=1e-06", settings)
    target = haar_random_unitary(8, np.random.default_rng(4))
    keys = {}
    for backend in ("py", "native"):
        if backend == "native" and not backend_info()["native_available"]:
            continue
        monkeypatch.setenv("REPRO_KERNELS", backend)
        assert instantiation_token() == INSTANTIATION_TOKENS[backend]
        keys[backend] = hierarchical.cache_key(target, 5)
        assert keys[backend] == unitary_fingerprint(target, *context, INSTANTIATION_TOKENS[backend])
    if len(keys) == 2:
        assert keys["py"] != keys["native"]
