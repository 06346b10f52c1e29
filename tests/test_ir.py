"""Tests for repro.ir: CircuitIR primitives, conversions, and pass contracts."""

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.depgraph import DependencyGraph
from repro.circuits.instruction import Instruction
from repro.compiler.passes.base import CompilerPass, PassManager
from repro.compiler.passes.fuse import Fuse2QBlocksPass
from repro.compiler.passes.peephole import PeepholeOptimizationPass
from repro.gates import standard
from repro.ir import CircuitIR, conversion_stats, reset_conversion_stats
from repro.synthesis.blocks import consolidate_blocks
from repro.target.pipeline import pipeline_names

from circuit_helpers import run_pass
from flat_oracles import consolidate_blocks_by_node, consolidate_blocks_flat, peephole_optimize


def random_standard_circuit(num_qubits, num_gates, seed):
    """Deterministic random circuit over the standard gate set."""
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits, f"ir-{seed}")
    for _ in range(num_gates):
        roll = rng.random()
        if roll < 0.25:
            one_qubit = ["h", "t", "s", "x", "sdg"][int(rng.integers(5))]
            getattr(circuit, one_qubit)(int(rng.integers(num_qubits)))
        elif roll < 0.4:
            circuit.rz(float(rng.uniform(0.0, 6.28)), int(rng.integers(num_qubits)))
        elif roll < 0.55:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.cx(int(a), int(b))
        elif roll < 0.7:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.cz(int(a), int(b))
        elif roll < 0.85:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.rzz(float(rng.uniform(0.0, 6.28)), int(a), int(b))
        else:
            qubits = rng.choice(num_qubits, size=3, replace=False)
            circuit.ccx(*(int(q) for q in qubits))
    return circuit


def bit_identical(a, b):
    return a.num_qubits == b.num_qubits and a.instructions == b.instructions


def structurally_idempotent(once, twice, atol=1e-9):
    """Equal up to float round-trip of U3 parameter extraction.

    Re-running the single-qubit merge rebuilds every ``U3`` from its matrix,
    which can perturb the extracted Euler angles by ~1 ulp; gate structure
    (names, qubits, counts) and matrices must be stable.
    """
    if once.num_qubits != twice.num_qubits or len(once) != len(twice):
        return False
    for first, second in zip(once, twice):
        if first.qubits != second.qubits or first.gate.name != second.gate.name:
            return False
        if not np.allclose(first.gate.matrix, second.gate.matrix, atol=atol):
            return False
    return True


# ---------------------------------------------------------------------------
# Primitives.
# ---------------------------------------------------------------------------


def _instr(builder, *qubits):
    return Instruction(builder(), tuple(qubits))


def test_append_remove_substitute_and_views():
    ir = CircuitIR(3, "prim")
    n0 = ir.append(_instr(standard.h_gate, 0))
    n1 = ir.append(Instruction(standard.cx_gate(), (0, 1)))
    n2 = ir.append(Instruction(standard.cx_gate(), (1, 2)))
    assert len(ir) == 3
    assert ir.two_qubit_count() == 2
    assert ir.max_gate_arity() == 2
    assert ir.depth() == 3

    ir.remove_node(n1)
    assert len(ir) == 2 and ir.two_qubit_count() == 1
    assert n1 not in ir and n0 in ir
    assert ir.depth() == 1  # h(0) and cx(1,2) are now disjoint

    ir.substitute_node(n2, Instruction(standard.swap_gate(), (0, 2)))
    assert [instr.gate.name for instr in ir] == ["h", "swap"]
    assert ir.two_qubit_count() == 1 and ir.depth() == 2
    with pytest.raises(KeyError):
        ir.instruction(n1)


def test_insert_before_after_order():
    ir = CircuitIR(2)
    middle = ir.append(_instr(standard.h_gate, 0))
    ir.insert_before(middle, _instr(standard.x_gate, 0))
    last = ir.append(_instr(standard.z_gate, 0))
    ir.insert_before(last, _instr(standard.y_gate, 0))
    assert [instr.gate.name for instr in ir] == ["x", "h", "y", "z"]
    assert ir.depth() == 4


def test_replace_block_collapses_at_first_node():
    ir = CircuitIR(3)
    a = ir.append(Instruction(standard.cx_gate(), (0, 1)))
    ir.append(Instruction(standard.cx_gate(), (1, 2)))
    b = ir.append(Instruction(standard.cx_gate(), (0, 1)))
    new_nodes = ir.replace_block([a, b], [Instruction(standard.swap_gate(), (0, 1))])
    assert [instr.gate.name for instr in ir] == ["swap", "cx"]
    assert [instr.qubits for instr in ir] == [(0, 1), (1, 2)]
    assert all(node in ir for node in new_nodes)


def test_replace_block_is_transactional():
    ir = CircuitIR(2)
    node = ir.append(_instr(standard.h_gate, 0))
    bad = Instruction(standard.cx_gate(), (0, 5))
    with pytest.raises(ValueError):
        ir.replace_block([node], [bad])
    # Validation failed before any mutation: the IR is untouched.
    assert len(ir) == 1 and node in ir
    with pytest.raises(KeyError):
        ir.replace_block([node, 99], [])
    assert len(ir) == 1


def test_next_node_navigation():
    ir = CircuitIR(2)
    a = ir.append(_instr(standard.h_gate, 0))
    b = ir.append(_instr(standard.x_gate, 1))
    assert ir.next_node(a) == b and ir.next_node(b) is None
    ir.remove_node(b)
    assert ir.next_node(a) is None
    with pytest.raises(KeyError):
        ir.next_node(b)


def test_removed_ir_and_flat_oracle_names_are_gone():
    import importlib

    import repro.compiler.passes
    import repro.ir
    import repro.synthesis.blocks

    assert not hasattr(repro.ir, "ExecutionFront")
    for name in ("layers", "front_layer", "wire_nodes", "prev_node", "insert_after", "gate_counts"):
        assert not hasattr(CircuitIR, name)
    for name in ("consolidate_blocks_ir", "collect_two_qubit_blocks", "block_unitary"):
        assert not hasattr(repro.synthesis.blocks, name)
    assert not hasattr(repro.compiler.passes, "peephole_optimize")
    assert not hasattr(DependencyGraph, "topological_layers")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.compiler.routing.sabre_reference")


def test_rewrite_and_adopt():
    ir = CircuitIR(2, "before")
    ir.append(_instr(standard.h_gate, 0))
    replacement = QuantumCircuit(4, "after")
    replacement.cx(2, 3)
    ir.adopt(replacement)
    assert ir.num_qubits == 4 and ir.name == "after"
    assert [instr.qubits for instr in ir] == [(2, 3)]
    with pytest.raises(ValueError):
        ir.rewrite([Instruction(standard.cx_gate(), (0, 9))])
    # Transactional: the failed rewrite left the program intact.
    assert [instr.qubits for instr in ir] == [(2, 3)]


def _frontier_depth(num_qubits, instructions):
    """The generic frontier formula: the reference for ``CircuitIR.depth``."""
    frontier = [0] * num_qubits
    for instruction in instructions:
        level = max(frontier[q] for q in instruction.qubits) + 1
        for qubit in instruction.qubits:
            frontier[qubit] = level
    return max(frontier, default=0)


@pytest.mark.parametrize("seed", range(8))
def test_depth_matches_the_generic_frontier_formula(seed):
    # 1Q, 2Q and ccx gates, read fresh, after removals that leave the node
    # ids out of program order, and after a rewrite.
    circuit = random_standard_circuit(5, 120, seed)
    assert {len(instr.qubits) for instr in circuit} == {1, 2, 3}
    ir = CircuitIR.from_circuit(circuit)
    assert ir.depth() == _frontier_depth(5, circuit)
    for node in list(ir.nodes())[::7]:
        ir.remove_node(node)
    first = next(ir.nodes())
    ir.insert_before(first, Instruction(standard.ccx_gate(), (4, 0, 2)))
    assert ir.depth() == _frontier_depth(5, ir.instructions())
    ir.rewrite(reversed(list(ir.instructions())))
    assert ir.depth() == _frontier_depth(5, ir.instructions())


def test_depth_of_an_empty_program_is_zero():
    ir = CircuitIR(3)
    assert ir.depth() == 0
    ir.append(_instr(standard.h_gate, 1))
    assert ir.depth() == 1
    ir.rewrite([])
    assert ir.depth() == 0


# ---------------------------------------------------------------------------
# Round-trip and conversion accounting.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_ir_round_trip_is_identity(seed):
    circuit = random_standard_circuit(5, 60, seed)
    rebuilt = CircuitIR.from_circuit(circuit).to_circuit()
    assert bit_identical(circuit, rebuilt)
    assert rebuilt.name == circuit.name


def test_round_trip_preserves_instruction_objects():
    circuit = random_standard_circuit(4, 20, seed=3)
    rebuilt = CircuitIR.from_circuit(circuit).to_circuit()
    for original, copy in zip(circuit, rebuilt):
        assert original is copy  # shared, immutable Instruction objects


def test_conversion_stats_count_marshalling():
    circuit = random_standard_circuit(4, 10, seed=0)
    reset_conversion_stats()
    ir = CircuitIR.from_circuit(circuit)
    ir.dependency_graph()
    ir.dependency_graph()  # cached: no second build
    ir.to_circuit()
    stats = conversion_stats()
    assert stats == {"from_circuit": 1, "to_circuit": 1, "dag_builds": 1}
    reset_conversion_stats()
    assert conversion_stats() == {"from_circuit": 0, "to_circuit": 0, "dag_builds": 0}


def test_reqisc_pipeline_converts_at_most_twice():
    from repro.target.api import compile as compile_circuit

    circuit = random_standard_circuit(4, 25, seed=5)
    for spec in ("reqisc-eff", "reqisc-full"):
        reset_conversion_stats()
        compile_circuit(circuit, target="xy-line", spec=spec, seed=0)
        stats = conversion_stats()
        assert stats["from_circuit"] + stats["to_circuit"] <= 2
        assert stats["dag_builds"] <= 1


@pytest.mark.parametrize("name", pipeline_names())
def test_every_named_pipeline_converts_once_in_and_once_out(name):
    from repro.target.api import compile as compile_circuit

    circuit = random_standard_circuit(4, 25, seed=5)
    target = "xy-line-cal" if name == "reqisc-noise" else "xy-line"
    result = compile_circuit(circuit, target=target, spec=name, seed=0)
    assert result.conversions["from_circuit"] == 1
    assert result.conversions["to_circuit"] == 1


# ---------------------------------------------------------------------------
# IR-native passes: equivalence with the flat oracles and manager contracts.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_ir_peephole_matches_flat_kernel(seed):
    from repro.compiler.passes.decompose import decompose_to_cnot

    lowered = decompose_to_cnot(random_standard_circuit(5, 40, seed))
    for consolidate in (False, True):
        flat = peephole_optimize(lowered, consolidate=consolidate)
        via_ir = run_pass(PeepholeOptimizationPass(consolidate=consolidate), lowered)
        assert bit_identical(flat, via_ir)


@pytest.mark.parametrize("seed", range(6))
def test_ir_fuse_matches_flat_kernel(seed):
    from repro.compiler.passes.decompose import decompose_to_cnot

    lowered = decompose_to_cnot(random_standard_circuit(5, 40, seed))
    for form in ("unitary", "can"):
        flat = consolidate_blocks_flat(lowered, form=form)
        via_ir = run_pass(Fuse2QBlocksPass(form=form), lowered)
        assert bit_identical(flat, via_ir)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("form, only_if_fewer", [("unitary", False), ("can", False), ("cx", True)])
def test_one_rewrite_consolidation_matches_node_by_node_fold(seed, form, only_if_fewer):
    # Random standard circuits interleave runs on different pairs (so runs
    # are often not contiguous) and carry ccx gates that close runs.
    circuit = random_standard_circuit(5, 60, seed)
    expected = CircuitIR.from_circuit(circuit)
    consolidate_blocks_by_node(expected, form=form, only_if_fewer_gates=only_if_fewer)
    ir = CircuitIR.from_circuit(circuit)
    consolidate_blocks(ir, form=form, only_if_fewer_gates=only_if_fewer)
    assert bit_identical(ir.to_circuit(), expected.to_circuit())
    assert len(ir) == len(expected) and ir.two_qubit_count() == expected.two_qubit_count()


def _consolidation_case():
    """Kept and replaced runs, contiguous and not, and a run closed by a ccx."""
    circuit = QuantumCircuit(4, "runs")
    circuit.cx(0, 1).cx(2, 3).h(0).t(3)  # two interleaved one-CX runs (kept by "cx")
    circuit.ccx(0, 1, 2)  # closes the runs on 0, 1 and 2
    circuit.cz(0, 1).x(3).cz(0, 1)  # a run that re-synthesizes to no CX at all
    circuit.cx(1, 2).s(1)
    return circuit


@pytest.mark.parametrize("form, only_if_fewer", [("unitary", False), ("can", False), ("cx", True)])
def test_one_rewrite_consolidation_on_kept_and_split_runs(form, only_if_fewer):
    circuit = _consolidation_case()
    expected = CircuitIR.from_circuit(circuit)
    consolidate_blocks_by_node(expected, form=form, only_if_fewer_gates=only_if_fewer)
    ir = CircuitIR.from_circuit(circuit)
    consolidate_blocks(ir, form=form, only_if_fewer_gates=only_if_fewer)
    assert bit_identical(ir.to_circuit(), expected.to_circuit())
    if form == "cx":
        # Each kept run collapses onto its first member, in its own order.
        names = [(i.gate.name, i.qubits) for i in ir.instructions()]
        assert names[:4] == [("cx", (0, 1)), ("h", (0,)), ("cx", (2, 3)), ("t", (3,))]
        assert ir.two_qubit_count() == circuit.count_two_qubit_gates() - 2


def test_consolidation_leaves_a_kept_contiguous_program_untouched():
    circuit = QuantumCircuit(3, "kept")
    circuit.cx(0, 1).h(1).cx(1, 2).t(2)
    ir = CircuitIR.from_circuit(circuit)
    nodes, depth = list(ir.nodes()), ir.depth()
    consolidate_blocks(ir, form="cx", only_if_fewer_gates=True)
    assert list(ir.nodes()) == nodes and ir._depth == depth  # no rewrite, cache kept


@pytest.mark.parametrize("seed", range(6))
def test_peephole_is_idempotent(seed):
    from repro.compiler.passes.decompose import decompose_to_cnot

    lowered = decompose_to_cnot(random_standard_circuit(5, 45, seed))
    for consolidate in (False, True):
        pass_ = PeepholeOptimizationPass(consolidate=consolidate)
        once = run_pass(pass_, lowered)
        twice = run_pass(pass_, once)
        assert structurally_idempotent(once, twice)
        assert once.count_two_qubit_gates() == twice.count_two_qubit_gates()


@pytest.mark.parametrize("seed", range(6))
def test_fuse_is_idempotent(seed):
    from repro.compiler.passes.decompose import decompose_to_cnot

    lowered = decompose_to_cnot(random_standard_circuit(5, 45, seed))
    pass_ = Fuse2QBlocksPass()
    once = run_pass(pass_, lowered)
    twice = run_pass(pass_, once)
    assert bit_identical(once, twice)


def test_pass_manager_converts_once_per_representation_change():
    seen = []

    class Probe(CompilerPass):
        name = "probe"

        def run(self, ir, properties):
            seen.append(ir)

    from repro.compiler.passes.decompose import decompose_to_cnot

    circuit = decompose_to_cnot(random_standard_circuit(3, 10, seed=0))
    manager = PassManager([Probe(), PeepholeOptimizationPass(consolidate=False), Probe(), Probe()])
    reset_conversion_stats()
    result = manager.run(circuit)
    stats = conversion_stats()
    # One IR object threads through every pass: one conversion in, one out.
    assert len(seen) == 3 and all(ir is seen[0] for ir in seen)
    assert isinstance(seen[0], CircuitIR)
    assert stats["from_circuit"] == 1 and stats["to_circuit"] == 1
    assert bit_identical(result, peephole_optimize(circuit, consolidate=False))


def test_pass_manager_accepts_prebuilt_ir():
    circuit = random_standard_circuit(3, 12, seed=1)
    manager = PassManager([PeepholeOptimizationPass(consolidate=False)])
    from repro.compiler.passes.decompose import decompose_to_cnot

    lowered = decompose_to_cnot(circuit)
    reset_conversion_stats()
    via_ir_input = manager.run(CircuitIR.from_instructions(
        lowered.num_qubits, lowered.instructions, lowered.name
    ))
    stats = conversion_stats()
    assert stats["from_circuit"] == 0  # the prebuilt IR went straight in
    assert bit_identical(via_ir_input, manager.run(lowered))


def test_circuit_adapters_chain_bit_identical_to_shared_ir():
    from repro.compiler.passes.decompose import decompose_to_cnot
    from repro.target.properties import PropertySet

    lowered = decompose_to_cnot(random_standard_circuit(4, 30, seed=2))
    passes = [PeepholeOptimizationPass(consolidate=False), Fuse2QBlocksPass()]
    shared = PassManager(list(passes)).run(lowered)
    reset_conversion_stats()
    chained = lowered
    properties = PropertySet()
    for compiler_pass in passes:
        chained = run_pass(compiler_pass, chained, properties)
    stats = conversion_stats()
    assert bit_identical(shared, chained)
    # Running each pass on a flat circuit pays one round trip per pass.
    assert stats["from_circuit"] == len(passes) and stats["to_circuit"] == len(passes)


def test_pass_records_carry_depth_and_written_properties():
    from repro.target.api import compile as compile_circuit

    circuit = random_standard_circuit(4, 25, seed=7)
    result = compile_circuit(circuit, target="xy-line", spec="reqisc-eff", seed=0)
    records = {record.name: record for record in result.pass_records}
    assert records["finalize_to_can"].depth_before > 0
    assert records["finalize_to_can"].depth_after == result.circuit.depth()
    assert records["mirror_near_identity"].properties_written == [
        "mirror_permutation",
        "mirrored_gate_count",
    ]
    assert "final_layout" in records["sabre_route"].properties_written
    assert result.summary()["depth"] == result.circuit.depth()


def test_routing_pass_uses_prebuilt_dependency_graph():
    from repro.compiler.passes.route import SabreRoutingPass
    from repro.compiler.routing.coupling_map import CouplingMap

    circuit = QuantumCircuit(4, "line")
    circuit.cx(0, 3).cx(1, 2).cx(0, 1)
    coupling = CouplingMap.line(4)
    pass_ = SabreRoutingPass(coupling, mirroring=False, seed=0)
    ir = CircuitIR.from_circuit(circuit)
    graph_before = ir.dependency_graph()
    reset_conversion_stats()
    properties = {}
    pass_.run(ir, properties)
    stats = conversion_stats()
    assert stats["from_circuit"] == 0 and stats["to_circuit"] == 0
    assert stats["dag_builds"] == 0  # the cached graph was handed over
    assert properties["inserted_swaps"] >= 1
    # And the result matches the flat-circuit routing entry point.
    from repro.compiler.routing.sabre import SabreRouter

    reference = SabreRouter(coupling, mirroring=False, seed=0).run(circuit)
    assert bit_identical(ir.to_circuit(), reference.circuit)
    assert graph_before is not ir.dependency_graph()
