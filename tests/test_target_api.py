"""Tests for the first-class Target + declarative pipeline API (repro.target)."""

import json

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.compiler.passes.base import PassManager
from repro.compiler.passes.peephole import PeepholeOptimizationPass
from repro.compiler.routing.coupling_map import CouplingMap
from repro.microarch.hamiltonian import CouplingHamiltonian
from repro.target import (
    PASS_REGISTRY,
    PassContext,
    PipelineSpec,
    PropertySet,
    Target,
    named_pipeline,
    pipeline_names,
    resolve_target,
    target_presets,
)
from repro.target.api import compile as target_compile


def _toffoli_workload():
    circuit = QuantumCircuit(4, "tof_chain")
    circuit.x(0)
    circuit.h(3)
    circuit.ccx(0, 1, 2)
    circuit.cx(2, 3)
    circuit.ccx(1, 2, 3)
    circuit.t(3)
    circuit.ccx(0, 1, 2)
    return circuit


def _circuits_identical(first, second):
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


# ---------------------------------------------------------------------------
# Target construction, presets and serialization.
# ---------------------------------------------------------------------------


def test_target_presets_and_derived_names():
    line = Target.xy_line(5)
    assert line.name == "xy-line-5"
    assert line.num_qubits == 5
    assert line.isa == "su4"
    assert Target.all_to_all(3).name == "xy-all-to-all-3"
    assert Target.default() is Target.default()
    assert Target.default().num_qubits is None


def test_target_heavy_hex_topology():
    target = Target.heavy_hex(1, 1)
    lattice = target.coupling_map
    # One hexagonal cell: 6 vertices + 6 edge qubits, max degree 3.
    assert lattice.num_qubits == 12
    assert max(len(entries) for entries in lattice.neighbor_lists()) <= 3
    assert all(lattice.distance(0, q) < np.inf for q in range(lattice.num_qubits))


def test_target_rejects_unknown_isa():
    with pytest.raises(ValueError):
        Target(isa="clifford")


def test_target_dict_round_trip():
    for target in (
        Target.xy_line(4),
        Target.heavy_hex(1, 1),
        Target.all_to_all(3, coupling=CouplingHamiltonian.heisenberg(0.9)),
        Target(coupling=CouplingHamiltonian.xx(2.0), isa="cnot", one_qubit_duration=0.1),
    ):
        rebuilt = Target.from_dict(target.to_dict())
        assert rebuilt.to_dict() == target.to_dict()
        assert rebuilt.name == target.name
        assert rebuilt.coupling.coefficients == target.coupling.coefficients
        if target.coupling_map is None:
            assert rebuilt.coupling_map is None
        else:
            assert rebuilt.coupling_map.edges == target.coupling_map.edges


def test_target_json_round_trip_with_frame_change():
    # A non-canonical-frame Hamiltonian keeps its frame through JSON.
    matrix = np.kron(
        np.array([[1, 1], [1, -1]]) / np.sqrt(2.0), np.eye(2)
    ) @ (0.5 * np.kron([[0, 1], [1, 0]], [[0, 1], [1, 0]])) @ np.kron(
        np.array([[1, 1], [1, -1]]) / np.sqrt(2.0), np.eye(2)
    )
    coupling = CouplingHamiltonian.from_matrix(matrix, label="framed")
    target = Target(coupling=coupling)
    rebuilt = Target.from_json(target.to_json())
    assert np.allclose(rebuilt.coupling.matrix(), coupling.matrix(), atol=1e-12)


def test_target_file_round_trip(tmp_path):
    path = tmp_path / "device.json"
    target = Target.xy_grid(2, 3)
    path.write_text(target.to_json(), encoding="utf-8")
    loaded = Target.from_file(str(path))
    assert loaded.to_dict() == target.to_dict()
    assert resolve_target(str(path)).to_dict() == target.to_dict()


def test_resolve_target_presets():
    assert resolve_target(None) is Target.default()
    assert resolve_target("logical") is Target.default()
    assert resolve_target("xy-line", num_qubits=6).name == "xy-line-6"
    assert resolve_target("xy-line-8").name == "xy-line-8"
    assert resolve_target("heavy-hex", num_qubits=5).num_qubits >= 5
    assert resolve_target("all-to-all-4").coupling_map.name == "all-to-all"
    assert set(target_presets()) >= {"logical", "xy-line", "heavy-hex", "all-to-all"}
    with pytest.raises(ValueError):
        resolve_target("xy-line")  # no size and no circuit to infer it from
    with pytest.raises(ValueError):
        resolve_target("warp-drive", num_qubits=4)
    with pytest.raises(ValueError):
        resolve_target("logical-16")  # 'logical' takes no size suffix


def test_resolve_target_preset_wins_over_same_named_file(tmp_path, monkeypatch):
    # A stray file named like a preset must not hijack preset resolution.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "xy-line").write_text("not json", encoding="utf-8")
    assert resolve_target("xy-line", num_qubits=4).name == "xy-line-4"


def test_duration_model_memoized_per_target_and_coupling_cache():
    target = Target.xy_line(4)
    assert target.duration_model() is target.duration_model()
    assert target.duration_model("cnot") is target.duration_model("cnot")
    # A logical result without its own target is priced on the one cached
    # default device, so its duration model is built once.
    assert Target.default() is Target.default()
    result = target_compile(_toffoli_workload(), spec="reqisc-eff")
    assert result.duration() == result.duration(Target.default())


def test_target_pickles_without_models(tmp_path):
    import pickle

    target = Target.xy_line(4)
    target.duration_model()  # populate the memo with an unpicklable closure
    clone = pickle.loads(pickle.dumps(target))
    assert clone.to_dict() == target.to_dict()
    assert clone.duration_model() is clone.duration_model()


# ---------------------------------------------------------------------------
# PropertySet.
# ---------------------------------------------------------------------------


def test_property_set_mapping_and_typed_accessors():
    props = PropertySet({"isa": "su4"}, custom_extra=7)
    assert props.isa == "su4"
    assert props["custom_extra"] == 7
    props["inserted_swaps"] = 3
    assert props.inserted_swaps == 3
    assert props.final_layout is None
    assert props.mirrored_gate_count is None
    props["mirrored_gate_count"] = 2
    assert props.mirrored_gate_count == 2
    del props["mirrored_gate_count"]
    props.isa = "cnot"
    assert props["isa"] == "cnot"
    assert set(props) == {"isa", "custom_extra", "inserted_swaps"}
    del props["custom_extra"]
    assert len(props) == 2
    assert props.to_dict() == {"isa": "cnot", "inserted_swaps": 3}
    copy = PropertySet.ensure(props)
    assert copy is not props and copy.to_dict() == props.to_dict()
    assert PropertySet.ensure(None).to_dict() == {}


def test_compile_does_not_alias_caller_properties():
    circuit = _toffoli_workload()
    shared = PropertySet()
    routed = target_compile(
        circuit, target=Target.xy_line(4), spec="reqisc-eff", properties=shared
    )
    logical = target_compile(circuit, spec="reqisc-eff", properties=shared)
    assert shared.to_dict() == {}  # caller's set untouched
    assert routed.properties is not logical.properties
    assert routed.routing_overhead is not None
    assert logical.routing_overhead is None  # no leak from the routed run


def test_summary_reports_conversion_count():
    summary = target_compile(_toffoli_workload(), spec="reqisc-eff").summary()
    assert summary["conversions"] > 0


@pytest.mark.parametrize("keyword", ["previous", "memo"])
def test_compile_rejects_removed_memo_arguments(keyword):
    # Incremental recompilation is gone: its keywords fail loudly instead
    # of being silently ignored.
    circuit = _toffoli_workload()
    value = target_compile(circuit, spec="reqisc-eff") if keyword == "previous" else True
    with pytest.raises(TypeError, match=keyword):
        target_compile(circuit, spec="reqisc-eff", **{keyword: value})


def test_compilation_result_pickles_round_trip():
    import pickle

    result = target_compile(_toffoli_workload(), target=Target.xy_line(4), spec="reqisc-eff")
    clone = pickle.loads(pickle.dumps(result))
    assert clone.circuit.instructions == result.circuit.instructions
    assert clone.summary() == result.summary()


# ---------------------------------------------------------------------------
# PassManager record isolation (bug fix).
# ---------------------------------------------------------------------------


def test_pass_manager_returns_fresh_records_per_run():
    manager = PassManager([PeepholeOptimizationPass()])
    circuit = QuantumCircuit(2).cx(0, 1).cx(0, 1)
    _, first_records = manager.run_with_records(circuit)
    manager.run(QuantumCircuit(2).h(0))
    # The first run's records list must not have been mutated by the rerun.
    assert len(first_records) == 1
    assert first_records[0].two_qubit_before == 2
    assert manager.records is not first_records
    assert len(manager.records) == 1


# ---------------------------------------------------------------------------
# PipelineSpec / PassRegistry.
# ---------------------------------------------------------------------------


def test_named_pipelines_cover_every_compiler():
    assert set(pipeline_names()) == {
        "reqisc-full", "reqisc-eff", "reqisc-nc", "reqisc-sabre", "reqisc-noise",
        "qiskit-like", "tket-like", "qiskit-su4", "tket-su4", "bqskit-su4",
    }
    with pytest.raises(KeyError):
        named_pipeline("nope")


def test_register_pipeline_round_trip():
    from repro.target import register_pipeline
    from repro.target.pipeline import _NAMED_PIPELINES

    builder = lambda **kw: named_pipeline("reqisc-eff")  # noqa: E731
    register_pipeline("custom-flow-test", builder)
    try:
        assert "custom-flow-test" in pipeline_names()
        assert named_pipeline("custom-flow-test").name == "reqisc-eff"
        with pytest.raises(KeyError):
            register_pipeline("custom-flow-test", builder)
        register_pipeline("custom-flow-test", builder, overwrite=True)
    finally:
        del _NAMED_PIPELINES["custom-flow-test"]


def test_preset_and_file_targets_are_cached(tmp_path):
    # Suite runs resolve the target once per circuit; equal specs must share
    # one Target instance (and therefore one memoized duration model).
    assert resolve_target("xy-line-7") is resolve_target("xy-line-7")
    path = tmp_path / "dev.json"
    path.write_text(Target.xy_line(3).to_json(), encoding="utf-8")
    assert resolve_target(str(path)) is resolve_target(str(path))


def test_pipeline_spec_json_round_trip():
    for name in ("reqisc-eff", "qiskit-like", "tket-su4"):
        spec = named_pipeline(name)
        rebuilt = PipelineSpec.from_json(spec.to_json())
        assert rebuilt.to_dict() == spec.to_dict()
        assert rebuilt.name == spec.name
        assert rebuilt.isa == spec.isa
        assert [stage.pass_id for stage in rebuilt.stages] == [
            stage.pass_id for stage in spec.stages
        ]


def test_spec_from_dict_compiles_like_the_named_pipeline():
    circuit = _toffoli_workload()
    spec = named_pipeline("reqisc-eff")
    rebuilt = PipelineSpec.from_dict(json.loads(spec.to_json()))
    target = Target.xy_line(4)
    direct = target_compile(circuit, target=target, spec=spec, seed=1)
    via_json = target_compile(circuit, target=target, spec=rebuilt, seed=1)
    assert _circuits_identical(direct.circuit, via_json.circuit)


def test_compile_rejects_target_and_coupling_map_together():
    # There is no ``coupling_map=`` keyword: a topology goes in a Target.
    with pytest.raises(TypeError):
        target_compile(
            _toffoli_workload(),
            spec="reqisc-eff",
            coupling_map=CouplingMap.line(4),
            target=Target.xy_line(4),
        )


def test_pass_registry_rejects_unknown_pass():
    context = PassContext(target=Target.default())
    with pytest.raises(KeyError):
        PASS_REGISTRY.create("warp_pass", context)
    assert "route" in PASS_REGISTRY
    assert "template_synthesis" in PASS_REGISTRY.available()


def test_topology_stages_skipped_on_logical_target():
    circuit = _toffoli_workload()
    result = target_compile(circuit, spec="reqisc-eff")
    assert result.routing_overhead is None
    assert "final_layout" not in result.properties
    routed = target_compile(circuit, target=Target.xy_line(4), spec="reqisc-eff")
    assert routed.routing_overhead is not None
    assert routed.properties.final_layout is not None


# ---------------------------------------------------------------------------
# Durations are priced on the compile target; removed surfaces fail loudly.
# ---------------------------------------------------------------------------


def test_compile_prices_durations_with_the_target_coupling():
    circuit = _toffoli_workload()
    coupling = CouplingHamiltonian.heisenberg(1.0)
    heisenberg = target_compile(circuit, target=Target(coupling=coupling), spec="reqisc-eff")
    xy_result = target_compile(circuit, spec="reqisc-eff")
    assert _circuits_identical(heisenberg.circuit, xy_result.circuit)
    assert heisenberg.summary()["duration"] != pytest.approx(xy_result.summary()["duration"])
    assert heisenberg.duration() == pytest.approx(xy_result.duration(Target(coupling=coupling)))


def test_removed_compile_surfaces_fail_loudly():
    import importlib

    import repro
    import repro.compiler
    import repro.experiments.common
    import repro.target
    import repro.target.api
    from repro.compiler.passes.hierarchical import HierarchicalSynthesisPass
    from repro.service.batch import BatchCompiler

    for module in ("compiler.reqisc", "compiler.baselines", "circuits.dag", "circuits.qasm"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"repro.{module}")
    for name in ("ReQISCCompiler", "CnotBaselineCompiler", "Su4FusionBaselineCompiler"):
        with pytest.raises(AttributeError):
            getattr(repro, name)
        assert not hasattr(repro.compiler, name)
    for name in ("from_device", "for_coupling"):
        assert not hasattr(Target, name)
    # One meaning per pipeline name: every front end calls compile(spec=name),
    # so the registry wrapper and its budget knobs are gone.
    assert not hasattr(repro.experiments.common, "build_compilers")
    for namespace in (repro, repro.target, repro.target.api):
        with pytest.raises(AttributeError):
            getattr(namespace, "PipelineCompiler")
    with pytest.raises(TypeError):
        BatchCompiler(compiler="reqisc-full", compiler_options={"full_synthesis_budget": 2})
    with pytest.raises(TypeError):
        HierarchicalSynthesisPass(max_synthesis_blocks=2)
    # A name has no per-call variants either.
    with pytest.raises(TypeError):
        named_pipeline("reqisc-full", synthesis_tolerance=1e-5)


def test_summary_reports_target_name():
    circuit = _toffoli_workload()
    result = target_compile(circuit, target="heavy-hex", spec="reqisc-eff")
    assert result.summary()["target"].startswith("xy-heavy-hex-")
    assert result.properties["target"] == result.summary()["target"]


def test_duration_takes_a_target_or_none():
    circuit = _toffoli_workload()
    result = target_compile(circuit, spec="reqisc-eff")
    assert result.duration(Target()) == pytest.approx(result.duration())
    heisenberg = Target(coupling=CouplingHamiltonian.heisenberg(1.0))
    assert result.duration(heisenberg) != pytest.approx(result.duration())


# ---------------------------------------------------------------------------
# CLI integration for targets.
# ---------------------------------------------------------------------------


def test_cli_targets_subcommand(capsys):
    from repro.service.cli import main

    assert main(["targets", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "xy-line" in payload["targets"]


def test_cli_suite_with_target_preset(tmp_path, capsys):
    from repro.service.cli import main

    code = main([
        "suite", "--compiler", "reqisc-eff", "--workload", "qft",
        "--scale", "tiny", "--target", "xy-line", "--format", "json",
        "--cache-dir", str(tmp_path / "cache"),
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["target"] == "xy-line"
    assert report["rows"][0]["target"] == "xy-line-4"
    assert report["rows"][0]["routing_overhead"] is not None


def test_cli_rejects_unknown_target(capsys):
    from repro.service.cli import main

    with pytest.raises(SystemExit):
        main([
            "suite", "--compiler", "reqisc-eff", "--workload", "qft",
            "--scale", "tiny", "--target", "warp-drive", "--no-cache",
        ])


def test_cli_rejects_target_with_unroutable_edges(tmp_path):
    from repro.service.cli import main

    payload = resolve_target("xy-line-3").to_dict()
    payload["coupling_map"]["edges"] = [[0, 1], [0, -1]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="distinct qubits"):
        Target.from_file(str(path))
    with pytest.raises(SystemExit, match="invalid --target"):
        main(["compile", "--workload", "qft", "--scale", "tiny", "--target", str(path), "--no-cache"])
