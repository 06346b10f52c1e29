"""Tests for the repro.perf harness and the `repro perf` CLI subcommand."""

import json

import pytest

from repro.perf.harness import (
    SCHEMA_VERSION,
    PerfRecord,
    bench_route,
    circuits_bit_identical,
    random_two_qubit_circuit,
    run_perf,
    write_report,
)

_RECORD_KEYS = {
    "name",
    "kind",
    "repeats",
    "wall_seconds",
    "mean_seconds",
    "gates",
    "gates_per_second",
    "extra",
}


def test_random_circuit_is_deterministic():
    a = random_two_qubit_circuit(6, 40, seed=1)
    b = random_two_qubit_circuit(6, 40, seed=1)
    assert circuits_bit_identical(a, b)
    c = random_two_qubit_circuit(6, 40, seed=2)
    assert not circuits_bit_identical(a, c)


def test_perf_record_throughput():
    record = PerfRecord(
        name="x", kind="route", repeats=1, wall_seconds=0.5, mean_seconds=0.5, gates=100
    )
    assert record.gates_per_second == 200.0
    assert set(record.as_dict()) == _RECORD_KEYS


def test_bench_route_reports_anchored_baseline_small():
    records, routing = bench_route(num_qubits=9, num_gates=60, seed=0, repeats=1)
    assert len(records) == 2
    implementations = {record.extra["implementation"] for record in records}
    assert implementations == {"fast", "reference"}
    assert routing["bit_identical"] is True
    assert routing["speedup"] > 0.0


def test_run_perf_schema_and_file(tmp_path):
    report = run_perf(quick=True, kinds=["synthesize", "simulate"])
    assert report["schema"] == SCHEMA_VERSION
    assert set(report) == {
        "schema",
        "created_unix",
        "quick",
        "seed",
        "host",
        "benchmarks",
        "routing",
        "equivalence",
        "ir",
        "qasm",
        "serve",
        "chaos",
        "synth_batch",
        "fidelity",
        "kernels",
        "cache",
    }
    assert report["routing"] is None  # route kind not selected
    assert report["ir"] is None  # ir kind not selected
    assert report["qasm"] is None  # qasm kind not selected
    assert report["serve"] is None  # serve kind not selected
    assert report["synth_batch"] is None  # synth_batch kind not selected
    assert report["fidelity"] is None  # fidelity kind not selected
    assert report["kernels"]["backend"] in ("py", "native")
    for record in report["benchmarks"]:
        assert set(record) == _RECORD_KEYS
        assert record["wall_seconds"] >= 0.0
        assert record["gates"] > 0
    assert "gate_matrix" in report["cache"]

    path = tmp_path / "BENCH_test.json"
    write_report(report, str(path))
    loaded = json.loads(path.read_text())
    assert loaded["schema"] == SCHEMA_VERSION
    assert loaded["benchmarks"] == report["benchmarks"]


def test_run_perf_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown benchmark kinds"):
        run_perf(kinds=["warp-drive"])


def test_bench_ir_conversion_drop_and_bit_identity():
    from repro.perf.harness import bench_ir

    records, section = bench_ir(scale="tiny", repeats=1, categories=["qft", "tof"])
    assert section["bit_identical"] is True
    # The shared-IR path marshals exactly twice per compile (in and out);
    # the legacy per-pass boundaries pay one round-trip per IR-native pass.
    assert section["conversions_per_compile"] <= 2.0
    assert section["legacy_conversions_per_compile"] >= 2 * section["conversions_per_compile"]
    assert section["dag_builds_per_compile"] <= 1.0
    names = [record.name for record in records]
    assert len(names) == len(set(names))
    assert all(record.kind == "ir" for record in records)


def test_bench_qasm_throughput_and_round_trip_gate():
    from repro.perf.harness import bench_qasm

    records, section = bench_qasm(scale="tiny", repeats=1)
    assert section["bit_identical"] is True
    assert section["mismatches"] == []
    assert section["cases"] > 0
    assert section["gates"] > 0
    assert section["dump_gates_per_second"] > 0
    assert section["load_gates_per_second"] > 0
    assert [record.name for record in records] == ["qasm.dump.tiny", "qasm.load.tiny"]
    assert all(record.kind == "qasm" for record in records)
    assert all(record.gates == section["gates"] for record in records)


def test_bench_synth_batch_contracts_and_records():
    from repro.perf.harness import bench_synth_batch, speedup_ratio

    records, section = bench_synth_batch(count=24, seed=3, repeats=1, apply_ops=24)
    assert section["bit_identical"] is True
    assert section["mismatches"] == []
    assert section["composition_independent"] is True
    assert section["kak_max_delta"] <= section["kak_tolerance"]
    assert 0.0 < section["interned_fraction"] < 1.0
    assert section["unique"] + section["interned"] == section["count"] == 24
    # The stored ratio is the one compare_bench.py re-derives on self-check.
    assert section["speedup"] == speedup_ratio(
        section["scalar_seconds"], section["batch_seconds"]
    )
    assert section["apply_speedup"] == speedup_ratio(
        section["apply_loop_seconds"], section["apply_seq_seconds"]
    )
    names = [record.name for record in records]
    assert len(names) == len(set(names))
    assert all(name.startswith("synth.batch.") for name in names)
    assert all(record.kind == "synth_batch" for record in records)


def test_speedup_ratio_is_the_single_source():
    from repro.perf.harness import speedup_ratio

    assert speedup_ratio(2.0, 1.0) == 2.0
    assert speedup_ratio(1.0, 0.0) == float("inf")


def test_cli_perf_writes_bench_json(tmp_path, capsys):
    from repro.service.cli import main

    output = tmp_path / "BENCH_cli.json"
    code = main(
        [
            "perf",
            "--quick",
            "--only",
            "simulate",
            "--output",
            str(output),
        ]
    )
    assert code == 0
    report = json.loads(output.read_text())
    assert report["schema"] == SCHEMA_VERSION
    assert report["quick"] is True
    kinds = {record["kind"] for record in report["benchmarks"]}
    assert kinds == {"simulate"}
    captured = capsys.readouterr()
    assert "gate-matrix cache" in captured.out
