"""Microbenchmark smoke suite (the `benchmarks/perf/` harness).

Runs the ``repro.perf`` microbenchmarks at reduced sizes and checks the
invariants the full ``repro perf`` CLI run relies on: the report schema is
stable, the routing fast path beats the frozen baseline while staying
bit-identical, and the caches actually hit.  CI runs this as a non-gating
perf-smoke job and uploads the emitted ``BENCH_*.json`` as an artifact;
locally::

    PYTHONPATH=src python -m pytest benchmarks/perf -q
    PYTHONPATH=src python -m repro perf --quick

The acceptance-scale routing benchmark (>= 64 qubits, >= 2000 gates) runs
through ``repro perf`` (both modes); here a scaled-down instance keeps the
tier-1 suite fast.
"""

import json
import os

import pytest

from repro.perf.harness import SCHEMA_VERSION, bench_route, run_perf, write_report

#: Scaled-down routing instance for the smoke run; REPRO_PERF_FULL=1 bumps it
#: to the acceptance-scale instance (64 qubits, 2000 gates).
_FULL = os.environ.get("REPRO_PERF_FULL", "") == "1"
_ROUTE_QUBITS = 64 if _FULL else 25
_ROUTE_GATES = 2000 if _FULL else 400


def test_routing_micro_fast_beats_baseline_and_is_bit_identical():
    records, routing = bench_route(
        num_qubits=_ROUTE_QUBITS, num_gates=_ROUTE_GATES, seed=42, repeats=1
    )
    assert routing["bit_identical"] is True
    # Non-gating perf job asserts only sanity here (>1x); the documented
    # >=5x target is checked on the acceptance-scale `repro perf` run.
    assert routing["speedup"] > 1.0
    fast = next(r for r in records if r.extra["implementation"] == "fast")
    assert fast.gates_per_second > 0.0


def test_quick_perf_report_schema_and_artifact(tmp_path):
    report = run_perf(quick=True, kinds=["synthesize", "simulate"], repeats=1)
    assert report["schema"] == SCHEMA_VERSION
    assert report["quick"] is True
    names = [record["name"] for record in report["benchmarks"]]
    assert len(names) == len(set(names))
    path = tmp_path / "BENCH_perf_smoke.json"
    write_report(report, str(path))
    assert json.loads(path.read_text())["schema"] == SCHEMA_VERSION


def test_gate_matrix_cache_hits_on_perf_workload():
    from repro.gates.gate import matrix_cache_stats, reset_matrix_cache_stats
    from repro.perf.harness import random_two_qubit_circuit

    reset_matrix_cache_stats()
    circuit = random_two_qubit_circuit(6, 50, seed=0)
    for instruction in circuit:
        instruction.gate.matrix
    stats = matrix_cache_stats()
    # Every cx shares the precomputed constant -> hits dominate.
    assert stats["hits"] > stats["misses"]


@pytest.mark.skipif(not _FULL, reason="acceptance-scale run (set REPRO_PERF_FULL=1)")
def test_routing_acceptance_scale_speedup():
    _, routing = bench_route(num_qubits=64, num_gates=2000, seed=42, repeats=3)
    assert routing["bit_identical"] is True
    assert routing["speedup"] >= 5.0


def test_synth_batch_micro_contracts_hold_at_any_scale():
    from repro.perf.harness import bench_synth_batch

    _, section = bench_synth_batch(count=24, seed=13, repeats=1, apply_ops=24)
    # The correctness contracts are scale-independent hard gates; the
    # documented >=3x batched-KAK throughput is checked at acceptance scale.
    assert section["bit_identical"] is True
    assert section["mismatches"] == []
    assert section["composition_independent"] is True
    assert section["kak_max_delta"] <= section["kak_tolerance"]
    assert section["interned_fraction"] > 0.0


@pytest.mark.skipif(not _FULL, reason="acceptance-scale run (set REPRO_PERF_FULL=1)")
def test_synth_batch_acceptance_scale_speedup():
    from repro.perf.harness import bench_synth_batch

    _, section = bench_synth_batch()  # 192 SU(4)s, the full-mode stack
    assert section["bit_identical"] is True
    assert section["speedup"] >= 3.0
