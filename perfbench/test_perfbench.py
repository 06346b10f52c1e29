"""Tests of the benchmark's own oracle and metric plumbing."""

from __future__ import annotations

import pytest

from perfbench import compile_bench, metrics, oracle, programs, tracing
from repro.circuits.circuit import QuantumCircuit
from repro.target.api import compile as target_compile
from repro.workloads.suite import benchmark_suite


@pytest.fixture(scope="module")
def routed():
    """A known-good compile that both mirrors and routes (both qubit maps set)."""
    source = programs.random_program(5, 60, programs.rng_for(7, 0), "oracle-probe")
    result = target_compile(source, target="xy-line-5", spec="reqisc-eff", seed=7)
    assert result.properties.get("final_layout") and result.properties.get("mirror_permutation")
    return source, result


def _rebuilt(compiled, skip=None, replace=None):
    circuit = QuantumCircuit(compiled.num_qubits, compiled.name)
    for position, inst in enumerate(compiled):
        if position == skip:
            continue
        if replace is not None and position == replace[0]:
            circuit.append(replace[1], inst.qubits)
        else:
            circuit.append(inst.gate, inst.qubits)
    return circuit


def test_oracle_accepts_known_good_compiles(routed):
    source, result = routed
    assert oracle.check_equivalent(source, result.circuit, result.properties) <= oracle.TOLERANCE
    # grover_5 needs clean ancillas and is widened onto the grid.
    grover = next(c for c in benchmark_suite(scale="medium") if c.name == "grover_5").circuit
    widened = target_compile(grover, target="xy-grid", spec="reqisc-eff", seed=1)
    assert widened.circuit.num_qubits > grover.num_qubits
    oracle.check_equivalent(grover, widened.circuit, widened.properties)


def test_oracle_rejects_a_dropped_gate(routed):
    source, result = routed
    position = next(i for i, inst in enumerate(result.circuit) if inst.gate.name == "can")
    with pytest.raises(oracle.OracleError):
        oracle.check_equivalent(source, _rebuilt(result.circuit, skip=position), result.properties)


def test_oracle_rejects_swapped_output_wires(routed):
    source, result = routed
    swapped = result.circuit.remap_qubits({0: 1, 1: 0, 2: 2, 3: 3, 4: 4})
    with pytest.raises(oracle.OracleError):
        oracle.check_equivalent(source, swapped, result.properties)


def test_oracle_rejects_a_perturbed_u3_angle(routed):
    from repro.gates.standard import u3_gate

    source, result = routed
    position, inst = next(
        (i, inst) for i, inst in enumerate(result.circuit) if inst.gate.name == "u3"
    )
    theta, phi, lam = inst.gate.params
    perturbed = _rebuilt(result.circuit, replace=(position, u3_gate(theta + 0.05, phi, lam)))
    with pytest.raises(oracle.OracleError):
        oracle.check_equivalent(source, perturbed, result.properties)


def test_structure_check_rejects_foreign_gates_and_non_edges():
    line = [(0, 1), (1, 2)]
    good = QuantumCircuit(3).can(0.1, 0.0, 0.0, 1, 2).u3(0.1, 0.2, 0.3, 0)
    oracle.check_structure(good, 3, line)
    with pytest.raises(oracle.OracleError):
        oracle.check_structure(QuantumCircuit(3).can(0.1, 0.0, 0.0, 0, 2), 3, line)
    with pytest.raises(oracle.OracleError):
        oracle.check_structure(QuantumCircuit(3).cx(0, 1), 3, line)
    with pytest.raises(oracle.OracleError):
        oracle.check_structure(good, 4, line)


def test_inputs_depend_only_on_the_seed():
    first, again = programs.line24_program(3), programs.line24_program(3)
    assert first.instructions == again.instructions
    assert first.instructions != programs.line24_program(4).instructions
    assert [n for n, _ in programs.cold_programs(3, 5, 1)] == [
        n for n, _ in programs.cold_programs(3, 5, 1)
    ]


def test_same_seed_runs_report_identical_quality(monkeypatch):
    small = programs.random_program(6, 80, programs.rng_for(5, 0), "small")
    monkeypatch.setattr(compile_bench, "workload_programs", lambda workload, seed: [("small", small)])
    runs = [
        compile_bench.run("line24-eff", seed=5, seconds=0.0, setup_repeats=0) for _ in range(2)
    ]
    for values, info in runs:
        assert info["failed"] == 0 and info["wrong"] == 0, info["errors"]
    assert {k: runs[0][0][k] for k in metrics.QUALITY} == {k: runs[1][0][k] for k in metrics.QUALITY}


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = list(range(1, 101))
    value = metrics.tail_value(samples)
    assert sum(s > value for s in samples) == metrics.TAIL_SAMPLES
    assert metrics.tail_percentile(len(samples)) == 90.0
    higher = sorted(samples)[samples.index(value) + 1]
    assert sum(s > higher for s in samples) < metrics.TAIL_SAMPLES
    assert metrics.tail_value([3.0, 1.0, 2.0]) == 3.0  # too few samples: the maximum


def test_result_line_requires_exactly_the_declared_metrics():
    units = {"a_s": "s", "b": "count"}
    line = metrics.result(True, 2, 0, {"a_s": 1.5, "b": 3}, units)
    assert line["metrics"]["a_s"] == {"value": 1.5, "unit": "s"}
    with pytest.raises(ValueError):
        metrics.result(True, 2, 0, {"a_s": 1.5}, units)


def test_self_time_excludes_child_spans():
    spans = [
        (1, "child", 1.0, 3.0, 0, None, None),
        (0, "parent", 0.0, 10.0, -1, None, None),
    ]
    totals = tracing.layer_totals(spans)
    assert totals["parent"] == {"calls": 1, "total": 10.0, "self": 8.0}
    assert totals["child"]["self"] == 2.0
