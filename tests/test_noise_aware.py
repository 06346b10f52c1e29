"""Noise-aware, calibration-driven compilation (docs/noise.md).

Covers the :class:`CalibrationData` model (validation, JSON round trip,
seeded determinism), the exact-uniform-reduction property — noise-aware
routing under a *uniform* calibration is bit-identical to distance-only
routing, on both kernel backends — and the portfolio guarantee
(noise-aware never scores worse than distance-only).
"""

import json

import numpy as np
import pytest

from repro.circuits.depgraph import DependencyGraph
from repro.compiler.passes.route import SabreRoutingPass
from repro.compiler.routing.coupling_map import CouplingMap
from repro.compiler.routing.noise import (
    SCALE,
    build_noise_model,
    compare_routing_strategies,
)
from repro.compiler.routing.sabre import SabreRouter
from repro.experiments.common import reference_cnot_circuit
from repro.kernels import backend_info
from repro.microarch.calibration import CalibrationData, CalibrationError, EdgeCalibration
from repro.target.target import Target, resolve_target, target_preset_info
from repro.workloads.suite import benchmark_suite

from circuit_helpers import circuits_bit_identical, random_two_qubit_circuit

NATIVE_AVAILABLE = backend_info()["native_available"]

needs_native = pytest.mark.skipif(
    not NATIVE_AVAILABLE, reason="native extension not built in this checkout"
)

BACKENDS = ["py"] + (["native"] if NATIVE_AVAILABLE else [])

TOPOLOGIES = {
    "line": lambda: CouplingMap.line(8),
    "grid": lambda: CouplingMap.grid_for(9),
    "heavy-hex": lambda: CouplingMap.heavy_hex_for(12),
}


# ---------------------------------------------------------------------------
# CalibrationData: validation and serialization.
# ---------------------------------------------------------------------------


def test_calibration_round_trips_through_json():
    coupling_map = CouplingMap.grid_for(9)
    calibration = CalibrationData.seeded(coupling_map, seed=7)
    payload = json.loads(json.dumps(calibration.to_dict()))
    rebuilt = CalibrationData.from_dict(payload)
    assert rebuilt.to_dict() == calibration.to_dict()
    assert rebuilt.fingerprint() == calibration.fingerprint()
    assert not calibration.is_uniform()
    assert CalibrationData.uniform(coupling_map).is_uniform()


def test_seeded_calibration_is_deterministic():
    coupling_map = CouplingMap.line(6)
    assert (
        CalibrationData.seeded(coupling_map, seed=3).fingerprint()
        == CalibrationData.seeded(coupling_map, seed=3).fingerprint()
    )
    assert (
        CalibrationData.seeded(coupling_map, seed=3).fingerprint()
        != CalibrationData.seeded(coupling_map, seed=4).fingerprint()
    )


def test_negative_error_rate_is_rejected_with_code():
    with pytest.raises(CalibrationError) as excinfo:
        CalibrationData(
            two_qubit=(EdgeCalibration(0, 1, error=-0.01, duration=1.0),),
            one_qubit_error=(0.0, 0.0),
            readout_error=(0.0, 0.0),
        )
    assert excinfo.value.code == "negative-rate"
    assert excinfo.value.detail["edge"] == [0, 1]


def test_missing_and_unknown_edges_are_rejected_with_codes():
    coupling_map = CouplingMap.line(3)  # edges (0,1), (1,2)
    partial = CalibrationData(
        two_qubit=(EdgeCalibration(0, 1, error=1e-3, duration=1.0),),
        one_qubit_error=(0.0,) * 3,
        readout_error=(0.0,) * 3,
    )
    with pytest.raises(CalibrationError) as excinfo:
        partial.validate_against(coupling_map)
    assert excinfo.value.code == "missing-edge"

    extra = CalibrationData(
        two_qubit=(
            EdgeCalibration(0, 1, error=1e-3, duration=1.0),
            EdgeCalibration(1, 2, error=1e-3, duration=1.0),
            EdgeCalibration(0, 2, error=1e-3, duration=1.0),
        ),
        one_qubit_error=(0.0,) * 3,
        readout_error=(0.0,) * 3,
    )
    with pytest.raises(CalibrationError) as excinfo:
        extra.validate_against(coupling_map)
    assert excinfo.value.code == "unknown-edge"


def test_from_dict_rejects_malformed_payloads():
    with pytest.raises(CalibrationError) as excinfo:
        CalibrationData.from_dict({"two_qubit": [{"error": 0.1}]})
    assert excinfo.value.code == "bad-shape"
    with pytest.raises(CalibrationError):
        CalibrationData.from_dict([1, 2, 3])


def test_calibrated_target_round_trips_and_presets_are_flagged():
    target = resolve_target("heavy-hex-cal-12")
    assert target.calibration is not None
    rebuilt = Target.from_dict(json.loads(target.to_json()))
    assert rebuilt.calibration.fingerprint() == target.calibration.fingerprint()
    info = target_preset_info()
    assert info["heavy-hex-cal"]["calibrated"] is True
    assert info["heavy-hex"]["calibrated"] is False
    # Same preset at the same size is the same seeded device.
    assert (
        resolve_target("xy-line-cal-8").calibration.fingerprint()
        == resolve_target("xy-line-cal-8").calibration.fingerprint()
    )


# ---------------------------------------------------------------------------
# Exact uniform reduction: flat calibration == distance-only, bit for bit.
# ---------------------------------------------------------------------------


def test_uniform_model_is_exact_scale_multiple_of_hops():
    coupling_map = CouplingMap.grid_for(9)
    model = build_noise_model(coupling_map, CalibrationData.uniform(coupling_map))
    hops = coupling_map.distance_matrix().astype(np.int64)
    assert np.array_equal(model.distance, hops * SCALE)
    assert not model.swap_penalty.any()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("mirroring", [False, True])
def test_uniform_calibration_routes_bit_identically(
    monkeypatch, backend, topology, mirroring
):
    monkeypatch.setenv("REPRO_KERNELS", backend)
    coupling_map = TOPOLOGIES[topology]()
    model = build_noise_model(coupling_map, CalibrationData.uniform(coupling_map))
    circuit = random_two_qubit_circuit(coupling_map.num_qubits, 120, seed=5)
    plain = SabreRouter(coupling_map, mirroring=mirroring).run(circuit)
    weighted = SabreRouter(coupling_map, mirroring=mirroring, noise_model=model).run(
        circuit
    )
    assert circuits_bit_identical(plain.circuit, weighted.circuit)
    assert plain.final_layout == weighted.final_layout
    assert plain.inserted_swaps == weighted.inserted_swaps
    assert plain.absorbed_swaps == weighted.absorbed_swaps


@needs_native
def test_heterogeneous_routing_backends_agree(monkeypatch):
    """py and native noise-weighted scorers must route bit-identically."""
    coupling_map = CouplingMap.grid_for(9)
    calibration = CalibrationData.seeded(coupling_map, seed=11)
    model = build_noise_model(coupling_map, calibration)
    circuit = random_two_qubit_circuit(coupling_map.num_qubits, 150, seed=2)
    results = {}
    for backend in ("py", "native"):
        monkeypatch.setenv("REPRO_KERNELS", backend)
        results[backend] = SabreRouter(
            coupling_map, mirroring=True, noise_model=model
        ).run(circuit)
    assert circuits_bit_identical(results["py"].circuit, results["native"].circuit)
    assert results["py"].final_layout == results["native"].final_layout


# ---------------------------------------------------------------------------
# The portfolio guarantee.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("preset", ["xy-line-cal-8", "xy-grid-cal-9", "heavy-hex-cal-12"])
def test_portfolio_never_scores_worse_than_distance(preset):
    target = resolve_target(preset)
    circuit = random_two_qubit_circuit(target.coupling_map.num_qubits, 120, seed=9)
    graph = DependencyGraph.from_circuit(circuit)
    comparison = compare_routing_strategies(graph, target, seed=0)
    assert comparison.improvement >= 1.0
    chosen_log = max(comparison.noise_log_fidelity, comparison.distance_log_fidelity)
    assert comparison.improvement == pytest.approx(
        np.exp(chosen_log - comparison.distance_log_fidelity)
    )
    kept = target.calibration.estimated_log_fidelity(comparison.chosen.circuit)
    assert kept == pytest.approx(chosen_log)


@pytest.mark.parametrize("preset", ["xy-line-cal", "xy-grid-cal", "heavy-hex-cal"])
def test_suite_rows_never_worse_and_uniform_matches_distance(preset):
    """Per ``tiny`` suite program on a seeded calibrated device: the portfolio
    keeps fidelity >= distance-only, and a uniform calibration routes
    bit-identically to distance-only."""
    for case in benchmark_suite(scale="tiny"):
        lowered = reference_cnot_circuit(case.circuit)
        graph = DependencyGraph.from_circuit(lowered)
        target = resolve_target(preset, lowered.num_qubits)
        comparison = compare_routing_strategies(graph, target, seed=0, name=case.name)
        assert comparison.improvement >= 1.0, case.name
        uniform = build_noise_model(target.coupling_map, CalibrationData.uniform(target.coupling_map))
        router = SabreRouter(target.coupling_map, noise_model=uniform, mirroring=True, seed=0)
        routed = router.run_graph(graph, name=case.name)
        distance = comparison.distance_result
        assert circuits_bit_identical(routed.circuit, distance.circuit), case.name
        assert routed.final_layout == distance.final_layout, case.name
        assert routed.inserted_swaps == distance.inserted_swaps, case.name
        assert routed.absorbed_swaps == distance.absorbed_swaps, case.name


def test_uniform_portfolio_reports_noise_tie():
    coupling_map = CouplingMap.line(6)
    target = Target(
        coupling=resolve_target("xy-line-6").coupling,
        coupling_map=coupling_map,
        calibration=CalibrationData.uniform(coupling_map),
    )
    circuit = random_two_qubit_circuit(6, 60, seed=1)
    comparison = compare_routing_strategies(
        DependencyGraph.from_circuit(circuit), target, seed=0
    )
    assert comparison.strategy == "noise"  # noise wins ties by construction
    assert comparison.improvement == 1.0
    assert circuits_bit_identical(
        comparison.noise_result.circuit, comparison.distance_result.circuit
    )


def test_compare_routing_strategies_needs_calibration():
    target = resolve_target("xy-line-6")
    circuit = random_two_qubit_circuit(6, 20, seed=0)
    with pytest.raises(ValueError, match="calibrated target"):
        compare_routing_strategies(DependencyGraph.from_circuit(circuit), target)


# ---------------------------------------------------------------------------
# End-to-end pipeline.
# ---------------------------------------------------------------------------


def _toffoli_workload():
    from repro.circuits.circuit import QuantumCircuit

    circuit = QuantumCircuit(4, "tof_chain")
    circuit.h(0)
    circuit.ccx(0, 1, 2)
    circuit.cx(2, 3)
    circuit.ccx(1, 2, 3)
    return circuit


def test_reqisc_noise_pipeline_writes_fidelity_properties():
    from repro.target.api import compile as target_compile

    circuit = _toffoli_workload()
    target = resolve_target("xy-line-cal-4")
    result = target_compile(circuit, target=target, spec="reqisc-noise", seed=0)
    assert result.properties["routing_strategy"] in ("noise", "distance")
    assert result.properties["estimated_log_fidelity"] == pytest.approx(
        max(
            result.properties["noise_log_fidelity"],
            result.properties["distance_log_fidelity"],
        )
    )
    assert result.properties["estimated_log_fidelity"] >= (
        result.properties["distance_log_fidelity"]
    )


def test_noise_aware_pass_requires_calibration():
    with pytest.raises(ValueError, match="calibrated target"):
        SabreRoutingPass(CouplingMap.line(4), noise_aware=True)
