"""Tests for :mod:`repro.incremental` — fingerprints, the memo store, and
edit-recompilation through ``compile(..., previous=result)``.

The load-bearing invariant everywhere: an incremental (memoized) compile is
**bit-identical** to a from-scratch compile.  Every entry in the memo store
is keyed by the exact content of the unit it replaces, so replay must equal
recomputation; these tests check that across representations (circuit/IR),
node-id renumbering, process boundaries, compilers, targets, and randomized
edit sequences.
"""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.gates import standard
from repro.incremental import (
    MISS,
    MemoStats,
    PassMemoStore,
    program_fingerprint,
    region_fingerprint,
    target_fingerprint,
)
from repro.ir import CircuitIR
from repro.perf.harness import circuits_bit_identical, random_two_qubit_circuit
from repro.target.api import compile as target_compile
from repro.target.target import Target


def _edit(base: QuantumCircuit, num_edits: int, seed: int) -> QuantumCircuit:
    """Replace ``num_edits`` gates of ``base`` at rng-chosen positions."""
    rng = np.random.default_rng(seed)
    instructions = list(base)
    positions = {int(p) for p in rng.choice(len(instructions), size=num_edits, replace=False)}
    edited = QuantumCircuit(base.num_qubits, base.name)
    for index, instruction in enumerate(instructions):
        if index not in positions:
            edited.append(instruction.gate, instruction.qubits)
        elif instruction.num_qubits == 1:
            theta, phi, lam = rng.uniform(0.0, 2.0 * np.pi, 3)
            edited.u3(float(theta), float(phi), float(lam), instruction.qubits[0])
        else:
            a, b = instruction.qubits
            edited.cx(b, a)
    return edited


# ---------------------------------------------------------------------------
# Fingerprints.
# ---------------------------------------------------------------------------


class TestProgramFingerprint:
    def test_circuit_and_ir_share_a_key(self):
        circuit = random_two_qubit_circuit(4, 30, seed=1)
        ir = CircuitIR.from_circuit(circuit)
        assert program_fingerprint(circuit) == program_fingerprint(ir)

    def test_invariant_under_node_id_renumbering(self):
        circuit = random_two_qubit_circuit(4, 30, seed=2)
        clean = CircuitIR.from_circuit(circuit)
        churned = CircuitIR.from_circuit(circuit)
        # Insert/remove churn: the surviving nodes get renumbered relative
        # to a freshly-built IR, but the instruction sequence is unchanged.
        for _ in range(5):
            node = churned.append(
                type(list(circuit)[0])(standard.h_gate(), (0,))
            )
            churned.remove_node(node)
        assert list(churned.instructions()) == list(clean.instructions())
        assert program_fingerprint(churned) == program_fingerprint(clean)

    def test_rewrite_reload_preserves_fingerprint(self):
        circuit = random_two_qubit_circuit(4, 20, seed=3)
        ir = CircuitIR.from_circuit(circuit)
        before = program_fingerprint(ir)
        ir.rewrite(list(ir.instructions()))
        assert program_fingerprint(ir) == before

    def test_sensitive_to_content_not_name(self):
        a = random_two_qubit_circuit(4, 20, seed=4)
        renamed = QuantumCircuit(a.num_qubits, "other-name")
        for instruction in a:
            renamed.append(instruction.gate, instruction.qubits)
        assert program_fingerprint(a) == program_fingerprint(renamed)

        edited = _edit(a, 1, seed=5)
        assert program_fingerprint(edited) != program_fingerprint(a)

    def test_num_qubits_and_context_participate(self):
        a = QuantumCircuit(2)
        a.h(0)
        wide = QuantumCircuit(3)
        wide.h(0)
        assert program_fingerprint(a) != program_fingerprint(wide)
        assert program_fingerprint(a, "ctx1") != program_fingerprint(a, "ctx2")

    def test_mutation_invalidates_the_cached_ir_digest(self):
        circuit = random_two_qubit_circuit(4, 20, seed=6)
        ir = CircuitIR.from_circuit(circuit)
        before = program_fingerprint(ir)
        node = next(ir.nodes())
        removed = ir.instruction(node)
        ir.remove_node(node)
        assert program_fingerprint(ir) != before
        ir.insert_before(next(ir.nodes()), removed)
        assert program_fingerprint(ir) == before

    def test_stable_across_processes(self):
        circuit = random_two_qubit_circuit(4, 30, seed=9)
        here = program_fingerprint(circuit, "xproc")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        script = (
            "from repro.perf.harness import random_two_qubit_circuit\n"
            "from repro.incremental import program_fingerprint\n"
            "print(program_fingerprint(random_two_qubit_circuit(4, 30, seed=9), 'xproc'))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == here


class TestRegionFingerprint:
    def test_localized_regions_share_keys_across_wires(self):
        low = QuantumCircuit(6)
        low.cx(0, 1)
        low.u3(0.1, 0.2, 0.3, 0)
        high = QuantumCircuit(6)
        high.cx(4, 5)
        high.u3(0.1, 0.2, 0.3, 4)
        assert region_fingerprint(low, localize=True) == region_fingerprint(
            high, localize=True
        )
        assert region_fingerprint(low) != region_fingerprint(high)

    def test_localization_tracks_relative_wire_roles(self):
        # First-appearance relabelling equates regions that differ only by
        # a wire permutation: cx(0,1) and cx(1,0) share a localized key (a
        # consumer replays the cached rewrite through the same mapping).
        forward = QuantumCircuit(2)
        forward.cx(0, 1)
        backward = QuantumCircuit(2)
        backward.cx(1, 0)
        assert region_fingerprint(forward, localize=True) == region_fingerprint(
            backward, localize=True
        )
        # But relative roles within the region still distinguish: a second
        # gate reusing the wires in the same vs the swapped order differs.
        same_order = QuantumCircuit(2)
        same_order.cx(0, 1)
        same_order.cx(0, 1)
        swapped = QuantumCircuit(2)
        swapped.cx(0, 1)
        swapped.cx(1, 0)
        assert region_fingerprint(same_order, localize=True) != region_fingerprint(
            swapped, localize=True
        )


class TestTargetFingerprint:
    def test_none_and_equal_payloads(self):
        assert target_fingerprint(None) == "target:none"
        a = Target.xy_line(4)
        b = Target.xy_line(4)
        c = Target.xy_line(5)
        assert target_fingerprint(a) == target_fingerprint(b)
        assert target_fingerprint(a) != target_fingerprint(c)


# ---------------------------------------------------------------------------
# The memo store.
# ---------------------------------------------------------------------------


class TestPassMemoStore:
    def test_miss_vs_stored_none(self):
        store = PassMemoStore(capacity=16)
        assert store.lookup("region", "k") is MISS
        store.store("region", "k", None)
        assert store.lookup("region", "k") is None
        assert store.stats.region_misses == 1
        assert store.stats.region_hits == 1
        assert store.stats.stores == 1

    def test_counters_split_by_kind(self):
        store = PassMemoStore(capacity=16)
        store.lookup("pass", "a")
        store.store("pass", "a", 1)
        store.lookup("pass", "a")
        store.lookup("region", "b")
        assert store.counters() == {
            "pass_hits": 1,
            "pass_misses": 1,
            "region_hits": 0,
            "region_misses": 1,
            "stores": 1,
        }

    def test_version_namespace_scopes_entries(self):
        store = PassMemoStore(capacity=16)
        store.store("pass", "key", {"v": 1})
        stale = PassMemoStore(backing=store.backing)
        stale._tag = "incr/0.0.0-other"
        # Same backing cache, different release tag: the entry must not leak.
        assert stale.lookup("pass", "key") is MISS

    def test_kinds_do_not_collide(self):
        store = PassMemoStore(capacity=16)
        store.store("pass", "key", "pass-value")
        assert store.lookup("region", "key") is MISS

    def test_shared_backing_and_disk_persistence(self, tmp_path):
        first = PassMemoStore(capacity=16, directory=str(tmp_path))
        first.store("region", "persisted", [1, 2, 3])
        first.close()
        second = PassMemoStore(capacity=16, directory=str(tmp_path))
        assert second.lookup("region", "persisted") == [1, 2, 3]
        second.close()

    def test_not_picklable(self):
        store = PassMemoStore(capacity=4)
        with pytest.raises(TypeError, match="not picklable"):
            pickle.dumps(store)

    def test_stats_snapshot_delta_merge(self):
        stats = MemoStats(pass_hits=2, region_hits=5, stores=1)
        snap = stats.snapshot()
        stats.pass_hits += 3
        delta = stats.delta_since(snap)
        assert delta.pass_hits == 3 and delta.region_hits == 0
        total = MemoStats()
        total.merge(snap)
        total.merge(delta)
        assert total.pass_hits == stats.pass_hits


# ---------------------------------------------------------------------------
# Memoized compilation: bit identity end to end.
# ---------------------------------------------------------------------------

_COMPILERS = ("qiskit-like", "reqisc-eff", "reqisc-full")
_TARGETS = (None, "xy-line")


class TestMemoizedCompile:
    @pytest.mark.parametrize("compiler", _COMPILERS)
    @pytest.mark.parametrize("target", _TARGETS)
    def test_memo_compile_is_bit_identical(self, compiler, target):
        circuit = random_two_qubit_circuit(5, 40, seed=11)
        plain = target_compile(circuit, target=target, spec=compiler)
        memo = target_compile(circuit, target=target, spec=compiler, memo=True)
        assert circuits_bit_identical(plain.circuit, memo.circuit)

    @pytest.mark.parametrize("compiler", _COMPILERS)
    @pytest.mark.parametrize("target", _TARGETS)
    def test_edit_recompile_is_bit_identical(self, compiler, target):
        base = random_two_qubit_circuit(5, 40, seed=12)
        previous = target_compile(base, target=target, spec=compiler, memo=True)
        edited = _edit(base, 3, seed=13)
        scratch = target_compile(edited, target=target, spec=compiler)
        incremental = target_compile(edited, previous=previous)
        assert circuits_bit_identical(scratch.circuit, incremental.circuit)
        assert incremental.compiler_name == scratch.compiler_name

    def test_randomized_edit_sequence_chain(self):
        # A whole editing session: each step edits the previous program and
        # recompiles against the previous result, reusing one memo store.
        rng = np.random.default_rng(17)
        program = random_two_qubit_circuit(5, 60, seed=17)
        previous = target_compile(program, target="xy-line", spec="reqisc-eff", memo=True)
        for step in range(4):
            program = _edit(program, int(rng.integers(1, 5)), seed=1000 + step)
            scratch = target_compile(program, target="xy-line", spec="reqisc-eff")
            incremental = target_compile(program, previous=previous)
            assert circuits_bit_identical(scratch.circuit, incremental.circuit)
            previous = incremental

    def test_identical_resubmission_replays_every_memo_safe_pass(self):
        circuit = random_two_qubit_circuit(5, 40, seed=14)
        first = target_compile(circuit, spec="reqisc-eff", memo=True)
        again = target_compile(circuit, previous=first)
        assert circuits_bit_identical(first.circuit, again.circuit)
        cached = [record.cached for record in again.pass_records]
        assert any(cached)
        assert again.memo_stats.pass_hits > 0
        # Property replay must match too (e.g. mirror permutations).
        assert dict(again.properties.items()) == dict(first.properties.items())

    def test_summary_surfaces_memo_and_conversion_counters(self):
        circuit = random_two_qubit_circuit(4, 25, seed=15)
        plain = target_compile(circuit, spec="reqisc-eff")
        memo = target_compile(circuit, spec="reqisc-eff", memo=True)
        assert "conversions" in plain.summary()
        assert "memo_hits" not in plain.summary()
        summary = memo.summary()
        assert summary["memo_hits"] + summary["memo_misses"] > 0

    def test_memo_false_disables_inheritance_from_previous(self):
        circuit = random_two_qubit_circuit(4, 25, seed=16)
        previous = target_compile(circuit, spec="reqisc-eff", memo=True)
        result = target_compile(circuit, previous=previous, memo=False)
        assert result.memo_stats is None
        assert circuits_bit_identical(result.circuit, previous.circuit)

    def test_resynthesis_results_are_versioned_and_replay_bit_identically(self):
        from repro.compiler.passes.hierarchical import HierarchicalSynthesisPass
        from repro.service.cache import unitary_fingerprint
        from repro.synthesis.approximate import INSTANTIATION_VERSION
        from repro.target.target import resolve_target
        from repro.workloads.suite import benchmark_suite

        # Results of the current optimizer must not share a memo entry or a
        # synthesis-cache key with those of an earlier one.
        hierarchical = HierarchicalSynthesisPass()
        synth = hierarchical.synthesizer
        settings = f"{synth.tolerance!r}:{synth.restarts}:{synth.seed}:{synth.max_iterations}"
        unversioned_config = (
            f"block_size=3;threshold=4;tolerance=1e-06;dag=True;max_blocks=None;synth={settings}"
        )
        assert hierarchical.memo_config() == f"{unversioned_config};{INSTANTIATION_VERSION}"
        block = QuantumCircuit(3)
        block.cx(0, 1).cx(1, 2).cx(0, 2).cx(0, 1).cx(1, 2)
        target = block.to_unitary()
        unversioned_key = unitary_fingerprint(
            target, "hierarchical_synthesis", "count=5", "tol=1e-06", f"synth={settings}"
        )
        assert hierarchical.cache_key(target, 5) != unversioned_key

        (case,) = [c for c in benchmark_suite(scale="medium") if c.name == "rip_add_8"]
        device = resolve_target("xy-grid", num_qubits=case.circuit.num_qubits)
        scratch = target_compile(case.circuit, target=device, spec="reqisc-full")
        first = target_compile(case.circuit, target=device, spec="reqisc-full", memo=True)
        again = target_compile(case.circuit, previous=first)
        hierarchical_record = [r for r in again.pass_records if r.name == hierarchical.name]
        assert hierarchical_record[0].cached
        assert circuits_bit_identical(scratch.circuit, first.circuit)
        assert circuits_bit_identical(scratch.circuit, again.circuit)

    def test_result_pickles_without_the_memo_store(self):
        circuit = random_two_qubit_circuit(4, 25, seed=18)
        result = target_compile(circuit, spec="reqisc-eff", memo=True)
        assert result.memo is not None
        clone = pickle.loads(pickle.dumps(result))
        assert clone.memo is None and clone.spec is None
        assert circuits_bit_identical(clone.circuit, result.circuit)
        assert clone.summary()["memo_hits"] == result.summary()["memo_hits"]


# ---------------------------------------------------------------------------
# Serve session mode.
# ---------------------------------------------------------------------------


class TestServeSessionMode:
    def test_session_resubmission_is_bit_identical_and_counts_memo(self, tmp_path):
        from repro.qasm import dumps
        from repro.service.server import CompileServer, ServeClient, ServeConfig

        base = random_two_qubit_circuit(5, 40, seed=21)
        edited = _edit(base, 3, seed=22)
        address = str(tmp_path / "serve.sock")
        config = ServeConfig(address=address, workers=2, job_timeout=60.0)
        with CompileServer(config):
            client = ServeClient(address)
            try:
                first = client.compile(dumps(base), session="editing")
                second = client.compile(dumps(edited), session="editing")
                plain = client.compile(dumps(edited))
                stats = client.stats()
            finally:
                client.close()
        assert second["qasm"] == plain["qasm"]
        memo_counters = {
            name: count
            for name, count in stats["cache"].items()
            if name.startswith("memo_")
        }
        assert memo_counters.get("memo_region_hits", 0) > 0
        assert memo_counters.get("memo_stores", 0) > 0


# ---------------------------------------------------------------------------
# Fleet stress (nightly; `pytest -m stress`).
# ---------------------------------------------------------------------------


def _fleet_worker(directory, seed, queue):
    # Each fleet member independently rebuilds the same editing session and
    # recompiles through a memo store sharing one disk directory with the
    # rest of the fleet — racing reads/writes against its peers.
    from repro.incremental import PassMemoStore, program_fingerprint
    from repro.perf.harness import random_two_qubit_circuit
    from repro.qasm import dumps
    from repro.target.api import compile as target_compile

    base = random_two_qubit_circuit(5, 60, seed=seed)
    store = PassMemoStore(directory=directory)
    try:
        previous = target_compile(base, target="xy-line", spec="reqisc-eff", memo=store)
        edited = _edit(base, 4, seed=seed + 1)
        incremental = target_compile(edited, previous=previous)
        queue.put(
            (
                program_fingerprint(base, "fleet"),
                dumps(incremental.circuit),
            )
        )
    finally:
        store.close()


@pytest.mark.stress
def test_fleet_shares_one_memo_directory_bit_identically(tmp_path):
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    directory = str(tmp_path / "memo")
    queue = ctx.Queue()
    fleet = [
        ctx.Process(target=_fleet_worker, args=(directory, 33, queue)) for _ in range(4)
    ]
    for proc in fleet:
        proc.start()
    results = [queue.get(timeout=120) for _ in fleet]
    for proc in fleet:
        proc.join(timeout=60)
        assert proc.exitcode == 0

    # Every member must agree on the fingerprint (cross-process stability)
    # and on the compiled bytes (memo replay == recompute, even when the
    # replayed entries were written by a racing peer).
    from repro.qasm import loads
    from repro.target.api import compile as target_compile

    fingerprints = {fingerprint for fingerprint, _ in results}
    assert len(fingerprints) == 1
    compiled = {qasm for _, qasm in results}
    assert len(compiled) == 1

    base = random_two_qubit_circuit(5, 60, seed=33)
    edited = _edit(base, 4, seed=34)
    scratch = target_compile(edited, target="xy-line", spec="reqisc-eff")
    assert circuits_bit_identical(loads(compiled.pop()), scratch.circuit)
