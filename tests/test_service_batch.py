"""Tests for the batch compilation engine (repro.service.batch)."""

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.compiler.passes.hierarchical import HierarchicalSynthesisPass, partition_into_blocks
from repro.compiler.passes.template_synthesis import TemplateSynthesisPass
from repro.service.batch import BatchCompiler
from repro.service.cache import SynthesisCache, circuit_fingerprint
from repro.target.api import compile as target_compile
from repro.workloads.suite import benchmark_suite

from circuit_helpers import run_pass


def _circuits_identical(first, second):
    """Bit-exact circuit equality: same gates, qubits, params and matrices."""
    if first.num_qubits != second.num_qubits or len(first) != len(second):
        return False
    for a, b in zip(first, second):
        if a.qubits != b.qubits or a.gate.name != b.gate.name:
            return False
        if a.gate.params != b.gate.params:
            return False
        if not np.array_equal(a.gate.matrix, b.gate.matrix):
            return False
    return True


def test_parallel_batch_matches_sequential_bit_for_bit(tmp_path):
    cases = benchmark_suite(scale="tiny", categories=["grover", "mult", "qft", "tof"])
    sequential = BatchCompiler(compiler="reqisc-eff", workers=1, seed=3).compile_all(cases)
    parallel = BatchCompiler(
        compiler="reqisc-eff",
        workers=2,
        seed=3,
        cache=SynthesisCache(directory=str(tmp_path / "cache")),
    ).compile_all(cases)

    assert len(sequential.items) == len(parallel.items) == len(cases)
    for seq_item, par_item in zip(sequential.items, parallel.items):
        assert seq_item.ok and par_item.ok
        assert seq_item.name == par_item.name
        assert seq_item.seed == par_item.seed
        assert _circuits_identical(seq_item.result.circuit, par_item.result.circuit)


def test_batch_results_are_ordered_and_seeded():
    cases = benchmark_suite(scale="tiny", categories=["modulo", "mult", "square"])
    batch = BatchCompiler(compiler="reqisc-eff", seed=10).compile_all(cases)
    assert [item.name for item in batch.items] == [case.name for case in cases]
    assert [item.index for item in batch.items] == [0, 1, 2]
    assert [item.seed for item in batch.items] == [10, 11, 12]


def test_batch_accepts_plain_circuits_and_pairs():
    bell = QuantumCircuit(2, "bell")
    bell.h(0)
    bell.cx(0, 1)
    batch = BatchCompiler(compiler="reqisc-eff").compile_all([bell, ("renamed", bell)])
    assert [item.name for item in batch.items] == ["bell", "renamed"]
    assert all(item.ok for item in batch.items)


def test_batch_captures_errors_without_raising():
    bell = QuantumCircuit(2, "bell")
    bell.h(0)
    bell.cx(0, 1)
    batch = BatchCompiler(compiler="no-such-compiler").compile_all([bell])
    assert not batch.items[0].ok
    assert "no-such-compiler" in batch.items[0].error
    assert batch.errors and batch.errors[0][0] == "bell"


def test_batch_summaries_carry_headline_metrics():
    batch = BatchCompiler(compiler="reqisc-eff").compile_suite(
        scale="tiny", categories=["qft"]
    )
    rows = batch.summaries()
    assert len(rows) == 1
    row = rows[0]
    for key in ("benchmark", "num_qubits", "compiler", "num_2q", "depth_2q",
                "distinct_2q", "duration", "routing_overhead", "compile_seconds"):
        assert key in row
    assert row["compiler"] == "reqisc-eff"
    assert row["duration"] > 0


def test_summary_duration_is_isa_aware():
    from repro.circuits.metrics import circuit_duration, cnot_isa_duration_model
    from repro.microarch.durations import su4_duration_model
    from repro.microarch.hamiltonian import CouplingHamiltonian

    circuit = QuantumCircuit(3, "isa_check")
    circuit.h(0)
    circuit.ccx(0, 1, 2)

    cnot = target_compile(circuit, spec="qiskit-like")
    assert cnot.properties["isa"] == "cnot"
    expected = circuit_duration(cnot.circuit, cnot_isa_duration_model())
    assert cnot.summary()["duration"] == pytest.approx(expected)

    su4 = target_compile(circuit, spec="reqisc-eff")
    assert su4.properties["isa"] == "su4"
    coupling = CouplingHamiltonian.xy(1.0)
    expected = circuit_duration(su4.circuit, su4_duration_model(coupling))
    assert su4.summary()["duration"] == pytest.approx(expected)


def test_cached_compilation_is_identical_and_hits(tmp_path):
    cases = benchmark_suite(scale="tiny", categories=["tof"])
    plain = BatchCompiler(compiler="reqisc-eff", seed=0).compile_all(cases)
    cache = SynthesisCache(directory=str(tmp_path / "cache"))
    first = BatchCompiler(compiler="reqisc-eff", seed=0, cache=cache).compile_all(cases)
    second = BatchCompiler(compiler="reqisc-eff", seed=0, cache=cache).compile_all(cases)

    assert _circuits_identical(plain.items[0].result.circuit, first.items[0].result.circuit)
    assert _circuits_identical(plain.items[0].result.circuit, second.items[0].result.circuit)
    assert first.cache_stats.puts > 0
    assert second.cache_stats.hits > 0
    assert second.cache_stats.misses == 0


def test_batch_and_sequential_pass_records_are_identical(tmp_path):
    """Per-pass records (including property writes) are deterministic.

    Every field except wall time must match between a sequential run and a
    multi-process batch: same pass names, same gate/2Q/depth trajectories and
    the same sorted snapshot of property keys written by each pass.
    """
    cases = benchmark_suite(scale="tiny", categories=["qft", "tof"])
    sequential = BatchCompiler(compiler="reqisc-eff", workers=1, seed=7).compile_all(cases)
    parallel = BatchCompiler(
        compiler="reqisc-eff",
        workers=2,
        seed=7,
        cache=SynthesisCache(directory=str(tmp_path / "cache")),
    ).compile_all(cases)

    def stable(record):
        return (
            record.name,
            record.gates_before,
            record.gates_after,
            record.two_qubit_before,
            record.two_qubit_after,
            record.depth_before,
            record.depth_after,
            tuple(record.properties_written),
        )

    for seq_item, par_item in zip(sequential.items, parallel.items):
        seq_records = [stable(r) for r in seq_item.result.pass_records]
        par_records = [stable(r) for r in par_item.result.pass_records]
        assert seq_records == par_records
        assert seq_records, "compilation must produce pass records"


# ---------------------------------------------------------------------------
# Pass-level cache wiring.
# ---------------------------------------------------------------------------


def _dense_three_qubit_circuit():
    circuit = QuantumCircuit(3, "dense")
    rng = np.random.default_rng(5)
    for _ in range(6):
        a, b = rng.choice(3, size=2, replace=False)
        circuit.cx(int(a), int(b))
        circuit.rz(float(rng.uniform(0, 1)), int(b))
    return circuit


def test_hierarchical_resynthesis_consults_cache():
    from repro.synthesis.approximate import ApproximateSynthesizer

    cache = SynthesisCache()
    synthesizer = ApproximateSynthesizer(tolerance=1e-3, restarts=1, seed=1, max_iterations=60)
    pass_ = HierarchicalSynthesisPass(
        tolerance=1e-3, synthesizer=synthesizer, cache=cache
    )
    blocks = partition_into_blocks(_dense_three_qubit_circuit(), block_size=3)
    dense = [b for b in blocks if b.num_two_qubit_gates > pass_.threshold]
    assert dense, "test circuit must produce at least one dense block"
    first = pass_._resynthesize(dense[0])
    assert cache.stats.misses == 1 and cache.stats.puts == 1
    second = pass_._resynthesize(dense[0])
    assert cache.stats.hits == 1
    if first is None:
        assert second is None
    else:
        assert [i.qubits for i in first] == [i.qubits for i in second]


def test_template_pass_memoizes_whole_output():
    cache = SynthesisCache()
    pass_ = TemplateSynthesisPass(cache=cache)
    circuit = QuantumCircuit(3, "ccx_once")
    circuit.ccx(0, 1, 2)
    first = run_pass(pass_, circuit)
    assert cache.stats.misses == 1
    second = run_pass(pass_, circuit)
    assert cache.stats.hits == 1
    assert _circuits_identical(first, second)
    # The cached circuit is never handed out: mutating an output must not leak.
    second.h(0)
    third = run_pass(pass_, circuit)
    assert len(third) == len(first)
    # A content-identical circuit under a different name hits the cache but
    # keeps its own name.
    renamed = circuit.copy("other_name")
    fourth = run_pass(pass_, renamed)
    assert cache.stats.hits >= 2
    assert fourth.name == "other_name"


def test_template_pass_hits_an_entry_holding_a_circuit():
    # Entries written before the pass rewrote the IR in place hold the output
    # program as a QuantumCircuit; the key is unchanged, so they still hit.
    circuit = QuantumCircuit(4, "ccx_chain")
    circuit.ccx(0, 1, 2).h(1).ccx(2, 1, 0).cswap(3, 0, 2)
    expected = run_pass(TemplateSynthesisPass(), circuit)
    cache = SynthesisCache()
    pass_ = TemplateSynthesisPass(cache=cache)
    key = circuit_fingerprint(
        circuit, "template_synthesis", pass_.library.fingerprint(), "selective=True", "fuse=True"
    )
    cache.put(key, expected.copy())
    assert _circuits_identical(run_pass(pass_, circuit), expected)
    assert cache.stats.hits == 1 and cache.stats.misses == 0
    # A miss stores the same program under the same key.
    fresh = SynthesisCache()
    run_pass(TemplateSynthesisPass(cache=fresh), circuit)
    assert _circuits_identical(QuantumCircuit(4).extend(fresh.get(key)), expected)


def test_batch_accepts_qasm_paths_bit_identical_to_in_memory(tmp_path):
    # Regression for the interchange invariant at the service layer: a
    # circuit submitted as a .qasm path must compile bit-identically to the
    # same circuit submitted as an in-memory object (same seed, same cache
    # keys — the importer reconstructs the exact gate list).
    from repro.qasm import dump
    from repro.workloads.suite import benchmark_suite

    case = benchmark_suite(scale="tiny", categories=["qft"])[0]
    path = tmp_path / "qft_twin.qasm"
    dump(case.circuit, path)

    engine = BatchCompiler(compiler="reqisc-eff", seed=7)
    in_memory = engine.compile_all([case.circuit])
    from_path = engine.compile_all([str(path)])

    assert from_path.errors == []
    assert from_path.items[0].name == "qft_twin"
    assert _circuits_identical(
        in_memory.items[0].result.circuit, from_path.items[0].result.circuit
    )
    summary_a = in_memory.items[0].result.summary()
    summary_b = from_path.items[0].result.summary()
    for key in ("num_2q", "depth_2q", "distinct_2q", "duration"):
        assert summary_a[key] == summary_b[key]


def test_batch_accepts_mixed_entries(tmp_path):
    from repro.qasm import dump
    from repro.workloads.suite import benchmark_suite, qasm_cases

    cases = benchmark_suite(scale="tiny", categories=["qft", "grover"])
    path = tmp_path / "mixed.qasm"
    dump(cases[1].circuit, path)

    loaded = qasm_cases([path])
    assert len(loaded) == 1 and loaded[0].category == "qasm"

    engine = BatchCompiler(compiler="reqisc-eff", seed=0)
    batch = engine.compile_all([cases[0], str(path), cases[1].circuit])
    assert batch.errors == []
    assert [item.name for item in batch.items] == [cases[0].name, "mixed", cases[1].name]


def test_broken_qasm_path_fails_its_item_not_the_batch(tmp_path):
    from repro.workloads.suite import benchmark_suite

    case = benchmark_suite(scale="tiny", categories=["qft"])[0]
    broken = tmp_path / "broken.qasm"
    broken.write_text("qreg q[1];\nfrobnicate q[0];\n")
    missing = tmp_path / "missing.qasm"

    engine = BatchCompiler(compiler="reqisc-eff", seed=0)
    batch = engine.compile_all([case.circuit, str(broken), str(missing)])
    assert batch.items[0].ok
    assert not batch.items[1].ok and "frobnicate" in batch.items[1].error
    assert not batch.items[2].ok
    assert [name for name, _ in batch.errors] == ["broken", "missing"]


def test_qasm_cases_accepts_a_bare_path(tmp_path):
    from repro.qasm import dump
    from repro.workloads.suite import benchmark_suite, qasm_cases

    case = benchmark_suite(scale="tiny", categories=["qft"])[0]
    path = tmp_path / "single.qasm"
    dump(case.circuit, path)
    cases = qasm_cases(str(path))  # not wrapped in a list
    assert len(cases) == 1 and cases[0].name == "single"
