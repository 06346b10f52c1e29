"""Tests for the individual compiler passes."""

import math

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.compiler.passes.base import CompilerPass, PassManager
from repro.compiler.passes.decompose import decompose_to_cnot, lower_high_level_gates
from repro.compiler.passes.finalize import FinalizeToCanPass
from repro.compiler.passes.fuse import Fuse2QBlocksPass
from repro.compiler.passes.hierarchical import (
    HierarchicalSynthesisPass,
    compactness,
    dag_compacting,
    partition_into_blocks,
)
from repro.compiler.passes.mirror import MirrorNearIdentityPass
from repro.compiler.passes.peephole import PeepholeOptimizationPass
from repro.compiler.passes.template_synthesis import TemplateSynthesisPass
from repro.gates import standard
from repro.ir import CircuitIR
from repro.linalg.predicates import allclose_up_to_global_phase

from repro.workloads.suite import benchmark_suite

from circuit_helpers import circuits_bit_identical, random_two_qubit_circuit, run_pass

PI_4 = math.pi / 4.0


def _permutation_matrix(permutation):
    """Unitary of the wire permutation logical -> wire."""
    num = len(permutation)
    dim = 2**num
    matrix = np.zeros((dim, dim))
    for basis in range(dim):
        bits = [(basis >> (num - 1 - q)) & 1 for q in range(num)]
        new_bits = [0] * num
        for logical, wire in enumerate(permutation):
            new_bits[wire] = bits[logical]
        target = sum(bit << (num - 1 - q) for q, bit in enumerate(new_bits))
        matrix[target, basis] = 1.0
    return matrix


# ---------------------------------------------------------------------------
# Pass manager.
# ---------------------------------------------------------------------------


def test_pass_manager_records():
    class NoOp(CompilerPass):
        name = "noop"

        def run(self, ir, properties):
            properties["ran"] = True

    circuit = QuantumCircuit(2)
    circuit.cx(0, 1)
    manager = PassManager([NoOp()])
    properties = {}
    result = manager.run(circuit, properties)
    assert properties["ran"]
    assert len(manager.records) == 1
    assert manager.records[0].name == "noop"
    assert result.count_two_qubit_gates() == 1


def test_base_pass_requires_override():
    with pytest.raises(NotImplementedError):
        CompilerPass().run(CircuitIR(1), {})


# ---------------------------------------------------------------------------
# Lowering and peephole.
# ---------------------------------------------------------------------------


def test_decompose_to_cnot_ccx():
    circuit = QuantumCircuit(3)
    circuit.ccx(0, 1, 2)
    lowered = decompose_to_cnot(circuit)
    assert set(lowered.count_by_name()) <= {"cx", "h", "t", "tdg", "u3"}
    assert lowered.count_two_qubit_gates() == 6
    assert allclose_up_to_global_phase(lowered.to_unitary(), circuit.to_unitary(), atol=1e-7)


def test_decompose_to_cnot_misc_gates():
    circuit = QuantumCircuit(3)
    circuit.swap(0, 1)
    circuit.cp(0.7, 1, 2)
    circuit.can(0.4, 0.2, 0.1, 0, 2)
    circuit.cswap(0, 1, 2)
    lowered = decompose_to_cnot(circuit)
    assert all(instr.gate.name == "cx" or instr.num_qubits == 1 for instr in lowered)
    assert allclose_up_to_global_phase(lowered.to_unitary(), circuit.to_unitary(), atol=1e-6)


def test_decompose_to_cnot_mcx():
    circuit = QuantumCircuit(5)
    circuit.mcx([0, 1, 2], 3)
    lowered = decompose_to_cnot(circuit)
    assert all(instr.gate.name == "cx" or instr.num_qubits == 1 for instr in lowered)


def test_lower_high_level_gates_keeps_ccx():
    circuit = QuantumCircuit(5)
    circuit.mcx([0, 1, 2], 3)
    lowered = lower_high_level_gates(circuit)
    assert "mcx" not in lowered.count_by_name()
    assert lowered.count_by_name().get("ccx", 0) >= 3


def test_peephole_cancels_cnot_pairs():
    circuit = QuantumCircuit(2)
    circuit.cx(0, 1).cx(0, 1).h(0).h(0).t(1)
    optimized = run_pass(PeepholeOptimizationPass(), circuit)
    assert optimized.count_two_qubit_gates() == 0
    assert allclose_up_to_global_phase(optimized.to_unitary(), circuit.to_unitary(), atol=1e-7)


def test_peephole_merges_rotations():
    circuit = QuantumCircuit(2)
    circuit.rzz(0.3, 0, 1).rzz(0.4, 0, 1).rz(0.1, 0).rz(0.2, 0)
    optimized = run_pass(PeepholeOptimizationPass(consolidate=False), circuit)
    assert optimized.count_two_qubit_gates() == 1
    assert allclose_up_to_global_phase(optimized.to_unitary(), circuit.to_unitary(), atol=1e-7)


def test_peephole_consolidates_dense_runs():
    circuit = QuantumCircuit(2)
    for _ in range(4):
        circuit.cx(0, 1).t(1).cx(1, 0).h(0)
    optimized = run_pass(PeepholeOptimizationPass(consolidate=True), circuit)
    assert optimized.count_two_qubit_gates() <= 3
    assert allclose_up_to_global_phase(optimized.to_unitary(), circuit.to_unitary(), atol=1e-6)


def test_peephole_does_not_cancel_across_blockers():
    circuit = QuantumCircuit(2)
    circuit.cx(0, 1).t(1).cx(0, 1)
    optimized = run_pass(PeepholeOptimizationPass(consolidate=False), circuit)
    # The T gate blocks naive cancellation.
    assert optimized.count_two_qubit_gates() == 2


# ---------------------------------------------------------------------------
# Fusion, partitioning, compacting, hierarchical synthesis.
# ---------------------------------------------------------------------------


def test_fuse_pass_requires_low_level_circuit():
    circuit = QuantumCircuit(3)
    circuit.ccx(0, 1, 2)
    with pytest.raises(ValueError):
        run_pass(Fuse2QBlocksPass(), circuit)
    with pytest.raises(ValueError):
        Fuse2QBlocksPass(form="nope")


def test_fuse_pass_reduces_gate_objects():
    circuit = QuantumCircuit(3)
    circuit.cx(0, 1).t(1).cx(0, 1).cx(1, 2)
    fused = run_pass(Fuse2QBlocksPass(), circuit)
    assert fused.count_two_qubit_gates() == 2
    assert allclose_up_to_global_phase(fused.to_unitary(), circuit.to_unitary(), atol=1e-7)


def test_partition_into_blocks_three_qubit():
    circuit = QuantumCircuit(4)
    circuit.cx(0, 1).cx(1, 2).cx(0, 2).cx(2, 3)
    blocks = partition_into_blocks(circuit, block_size=3)
    assert sorted(p for block in blocks for p in block.members) == list(range(len(circuit)))
    assert len(blocks) == 2
    assert blocks[0].qubits == (0, 1, 2)
    assert blocks[0].num_two_qubit_gates == 3


def test_partition_respects_ordering():
    circuit = QuantumCircuit(4)
    circuit.cx(0, 1)
    circuit.cx(2, 3)
    circuit.cx(1, 2)
    blocks = partition_into_blocks(circuit, block_size=3)
    rebuilt = QuantumCircuit(4)
    emissions = {}
    for block in blocks:
        emissions.setdefault(block.members[0], []).extend(block.instructions)
    for position in range(len(circuit)):
        for instr in emissions.get(position, []):
            rebuilt.append(instr.gate, instr.qubits)
    assert allclose_up_to_global_phase(rebuilt.to_unitary(), circuit.to_unitary(), atol=1e-9)


def test_compactness_metric():
    sparse = QuantumCircuit(4)
    sparse.cx(0, 1).cx(2, 3)
    assert compactness(sparse, threshold=1) == 0.0
    dense = QuantumCircuit(3)
    for _ in range(6):
        dense.cx(0, 1).cx(1, 2)
    assert compactness(dense, threshold=4) == 1.0


def test_dag_compacting_preserves_unitary_and_improves_compactness():
    # Two commuting CZ-class gates separate a dense run from its block; the
    # compacting pass may exchange them to concentrate gates.
    circuit = QuantumCircuit(3)
    for _ in range(5):
        circuit.cx(0, 1).t(1).cx(0, 1)
    circuit.cz(1, 2)
    circuit.cz(0, 1)
    compacted = QuantumCircuit(3).extend(dag_compacting(list(circuit), threshold=4))
    assert allclose_up_to_global_phase(compacted.to_unitary(), circuit.to_unitary(), atol=1e-6)
    assert compactness(compacted, threshold=4) >= compactness(circuit, threshold=4)


def test_hierarchical_synthesis_reduces_dense_blocks():
    circuit = QuantumCircuit(3)
    # 8 CNOTs confined to 3 qubits: re-synthesizable with <= 6 SU(4) gates.
    circuit.cx(0, 1).t(1).cx(1, 2).h(2).cx(0, 2).cx(1, 2).t(0).cx(0, 1).cx(0, 2).cx(1, 2)
    original = circuit.to_unitary()
    hierarchical = HierarchicalSynthesisPass(
        threshold=4, tolerance=1e-6, enable_dag_compacting=False
    )
    result = run_pass(hierarchical, circuit)
    assert result.count_two_qubit_gates() < circuit.count_two_qubit_gates()
    assert allclose_up_to_global_phase(result.to_unitary(), original, atol=1e-5)


def test_hierarchical_synthesis_keeps_sparse_blocks():
    circuit = QuantumCircuit(4)
    circuit.cx(0, 1).cx(2, 3)
    hierarchical = HierarchicalSynthesisPass(threshold=4)
    result = run_pass(hierarchical, circuit)
    assert result.count_two_qubit_gates() == 2


# ---------------------------------------------------------------------------
# Template synthesis.
# ---------------------------------------------------------------------------


def test_template_synthesis_replaces_ccx():
    circuit = QuantumCircuit(3)
    circuit.ccx(0, 1, 2)
    result = run_pass(TemplateSynthesisPass(), circuit)
    assert result.max_gate_arity() == 2
    assert result.count_two_qubit_gates() <= 5
    assert allclose_up_to_global_phase(result.to_unitary(), circuit.to_unitary(), atol=1e-6)


def test_template_synthesis_consecutive_toffolis_fuse():
    circuit = QuantumCircuit(3)
    circuit.ccx(0, 1, 2)
    circuit.ccx(0, 1, 2)
    result = run_pass(TemplateSynthesisPass(), circuit)
    # Two back-to-back Toffolis share boundary gates; selective assembly plus
    # fusion must do better than 2 x 5 gates.
    assert result.count_two_qubit_gates() <= 9
    assert allclose_up_to_global_phase(result.to_unitary(), circuit.to_unitary(), atol=1e-6)


def test_template_synthesis_handles_generic_gates():
    circuit = QuantumCircuit(4)
    circuit.h(0).cx(0, 1).ccx(1, 2, 3).rz(0.2, 3).cswap(0, 1, 2)
    result = run_pass(TemplateSynthesisPass(), circuit)
    assert result.max_gate_arity() == 2
    assert allclose_up_to_global_phase(result.to_unitary(), circuit.to_unitary(), atol=1e-6)


def test_template_synthesis_expands_mcx_then_templates_it():
    circuit = QuantumCircuit(6)
    circuit.h(0).h(1).h(2).mcx([0, 1, 2], 3).cx(3, 4)
    result = run_pass(TemplateSynthesisPass(), circuit)
    assert result.max_gate_arity() == 2
    # The expansion borrows a clean ancilla, so compare on |0...0>.
    assert allclose_up_to_global_phase(result.statevector(), circuit.statevector(), atol=1e-6)


def test_template_synthesis_without_templated_gates_only_fuses():
    circuit = random_two_qubit_circuit(6, 80, seed=31)
    assert circuits_bit_identical(
        run_pass(TemplateSynthesisPass(), circuit), run_pass(Fuse2QBlocksPass(), circuit)
    )


def _seeded_24q_program():
    """24q random U3/CX program (same-pair runs included) with Toffolis mixed in."""
    rng = np.random.default_rng(24)
    circuit = random_two_qubit_circuit(24, 1500, seed=24)
    for _ in range(40):
        a, b, c = (int(q) for q in rng.choice(24, size=3, replace=False))
        circuit.ccx(a, b, c)
    circuit.extend(random_two_qubit_circuit(24, 1500, seed=25).instructions)
    return circuit


_FIXED_POINT_PROGRAMS = [(case.name, case.circuit) for case in benchmark_suite(scale="small")]
_FIXED_POINT_PROGRAMS.append(("random_24q", _seeded_24q_program()))


@pytest.mark.parametrize(
    "program", [p for _, p in _FIXED_POINT_PROGRAMS], ids=[n for n, _ in _FIXED_POINT_PROGRAMS]
)
def test_template_output_is_a_fuse_fixed_point(program):
    # reqisc-eff runs no fusion stage after template synthesis: the pass
    # already fuses its output, so fusing again must change nothing.
    templated = run_pass(TemplateSynthesisPass(), program)
    assert circuits_bit_identical(run_pass(Fuse2QBlocksPass(), templated), templated)


# ---------------------------------------------------------------------------
# Mirroring and finalization.
# ---------------------------------------------------------------------------


def test_mirror_pass_replaces_near_identity_gates():
    circuit = QuantumCircuit(3)
    circuit.can(0.02, 0.01, 0.0, 0, 1)
    circuit.can(PI_4, 0.0, 0.0, 1, 2)
    properties = {}
    result = run_pass(MirrorNearIdentityPass(threshold=0.15), circuit, properties)
    assert properties["mirrored_gate_count"] == 1
    assert result.count_two_qubit_gates() == 2
    permutation = properties["mirror_permutation"]
    assert sorted(permutation) == [0, 1, 2]
    assert permutation != [0, 1, 2]
    # The mirrored circuit equals (permutation o original).
    permutation_unitary = _permutation_matrix(permutation)
    assert allclose_up_to_global_phase(
        result.to_unitary(), permutation_unitary @ circuit.to_unitary(), atol=1e-6
    )


def test_mirror_pass_qft_like_leaves_far_gates_alone():
    circuit = QuantumCircuit(2)
    circuit.can(PI_4, 0.0, 0.0, 0, 1)
    properties = {}
    result = run_pass(MirrorNearIdentityPass(), circuit, properties)
    assert properties["mirrored_gate_count"] == 0
    assert properties["mirror_permutation"] == [0, 1]
    assert allclose_up_to_global_phase(result.to_unitary(), circuit.to_unitary(), atol=1e-9)


def test_finalize_pass_outputs_can_u3_only():
    circuit = QuantumCircuit(3)
    circuit.cx(0, 1)
    circuit.unitary(standard.swap_gate().matrix, [1, 2], label="su4")
    circuit.h(0)
    result = run_pass(FinalizeToCanPass(), circuit)
    names = set(result.count_by_name())
    assert names <= {"can", "u3"}
    assert allclose_up_to_global_phase(result.to_unitary(), circuit.to_unitary(), atol=1e-6)
