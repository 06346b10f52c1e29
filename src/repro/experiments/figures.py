"""Figure experiments: microarchitecture profiling (Figs 4, 6), topology-aware
routing (Fig 12), calibration (Fig 13), ablation (Fig 14), noisy-simulation
fidelity (Fig 15) and reliability/scalability (Fig 16)."""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.circuits.metrics import cnot_isa_duration_model
from repro.compiler.routing.coupling_map import CouplingMap
from repro.experiments.common import (
    reduction_percent,
    reference_cnot_circuit,
    reference_metrics,
    su4_metrics,
)
from repro.linalg.predicates import unitary_infidelity
from repro.microarch.durations import optimal_duration
from repro.microarch.ea import alpha_beta_residual_map, solve_ea
from repro.microarch.hamiltonian import CouplingHamiltonian
from repro.microarch.scheme import GenAshNScheme
from repro.microarch.durations import su4_duration_model
from repro.simulators.fidelity import hellinger_fidelity
from repro.simulators.noise import duration_scaled_noise_model, simulate_noisy_probabilities
from repro.simulators.statevector import probabilities
from repro.simulators.unitary import permutation_unitary
from repro.target.api import compile as target_compile
from repro.target.target import Target
from repro.workloads.suite import benchmark_suite

__all__ = [
    "fig4_alpha_beta_profile",
    "fig6_pulse_parameters",
    "fig12_routing_overhead",
    "fig13_calibration",
    "fig14_ablation",
    "fig15_fidelity",
    "fig16_reliability",
    "fig17_noise_aware_routing",
]

PI = math.pi
PI_4 = math.pi / 4.0
PI_8 = math.pi / 8.0

_NAMED_GATES = {
    "sqisw": (PI_8, PI_8, 0.0),
    "iswap": (PI_4, PI_4, 0.0),
    "qtsw": (PI / 16, PI / 16, PI / 16),
    "sqsw": (PI_8, PI_8, PI_8),
    "swap": (PI_4, PI_4, PI_4),
    "cv": (PI_8, 0.0, 0.0),
    "cnot": (PI_4, 0.0, 0.0),
    "b": (PI_4, PI_8, 0.0),
    "ecp": (PI_4, PI_8, PI_8),
    "qft2": (PI_4, PI_4, PI_8),
}


def fig4_alpha_beta_profile(resolution: int = 30) -> Dict:
    """Figure 4: (alpha, beta) residual landscape for SWAP under XX coupling."""
    coupling = CouplingHamiltonian.xx(1.0)
    coords = (PI_4, PI_4, PI_4)
    breakdown = optimal_duration(coords, coupling)
    alphas = np.linspace(0.0, 1.0, resolution)
    betas = np.linspace(0.0, 2.0, resolution)
    landscape = alpha_beta_residual_map(
        coords, coupling.coefficients, breakdown.duration, breakdown.subscheme, alphas, betas
    )
    omega1, omega2, delta = solve_ea(
        coords, coupling.coefficients, breakdown.duration, breakdown.subscheme
    )
    return {
        "alphas": alphas,
        "betas": betas,
        "landscape": landscape,
        "tau": breakdown.duration,
        "subscheme": breakdown.subscheme.value,
        "solution": {"omega1": omega1, "omega2": omega2, "delta": delta},
        "num_near_solutions": int(np.sum(landscape < 0.05)),
    }


def fig6_pulse_parameters(couplings: Optional[Sequence[str]] = None) -> List[Dict]:
    """Figure 6: durations, subschemes and drive parameters of named gates."""
    available = {
        "xy": CouplingHamiltonian.xy(1.0),
        "xx": CouplingHamiltonian.xx(1.0),
    }
    names = list(couplings) if couplings else ["xy", "xx"]
    rows: List[Dict] = []
    for coupling_name in names:
        coupling = available[coupling_name]
        scheme = GenAshNScheme(coupling)
        for gate_name, coords in _NAMED_GATES.items():
            program = scheme.compile_gate(coords)
            amp1, amp2 = program.drive_amplitudes
            rows.append(
                {
                    "coupling": coupling_name,
                    "gate": gate_name,
                    "duration": program.tau,
                    "subscheme": program.subscheme.value,
                    "A1": abs(amp1),
                    "A2": abs(amp2),
                    "delta": program.delta,
                    "mirrored": program.mirrored,
                }
            )
    return rows


def fig12_routing_overhead(
    scale: str = "small",
    categories: Optional[Sequence[str]] = None,
    topologies: Sequence[str] = ("chain", "grid"),
) -> List[Dict]:
    """Figure 12: #2Q before/after mapping for the CNOT and SU(4) flows.

    Compares the CNOT baseline routed with plain SABRE against ReQISC-Eff
    routed with plain SABRE and with mirroring-SABRE, on 1D-chain and 2D-grid
    topologies.
    """
    rows: List[Dict] = []
    for case in benchmark_suite(scale=scale, categories=categories):
        num_qubits = case.num_qubits
        cnot_logical = target_compile(case.circuit, spec="tket-like")
        su4_logical = target_compile(case.circuit, spec="reqisc-eff")
        row: Dict = {
            "category": case.category,
            "benchmark": case.name,
            "cnot_logical_2q": cnot_logical.num_two_qubit_gates,
            "su4_logical_2q": su4_logical.num_two_qubit_gates,
        }
        for topology in topologies:
            if topology == "chain":
                coupling_map = CouplingMap.line(num_qubits)
            else:
                coupling_map = CouplingMap.grid_for(num_qubits)
            target = Target(coupling_map=coupling_map)
            cnot_routed = target_compile(case.circuit, target=target, spec="tket-like")
            su4_sabre = target_compile(case.circuit, target=target, spec="reqisc-sabre")
            su4_mirroring = target_compile(case.circuit, target=target, spec="reqisc-eff")
            row[f"{topology}_cnot_routed_2q"] = cnot_routed.num_two_qubit_gates
            row[f"{topology}_su4_sabre_2q"] = su4_sabre.num_two_qubit_gates
            row[f"{topology}_su4_mirroring_2q"] = su4_mirroring.num_two_qubit_gates
            row[f"{topology}_cnot_overhead"] = (
                cnot_routed.num_two_qubit_gates / max(cnot_logical.num_two_qubit_gates, 1)
            )
            row[f"{topology}_su4_overhead"] = (
                su4_mirroring.num_two_qubit_gates / max(su4_logical.num_two_qubit_gates, 1)
            )
        rows.append(row)
    return rows


def fig13_calibration(
    scale: str = "small", categories: Optional[Sequence[str]] = None
) -> List[Dict]:
    """Figure 13: distinct SU(4) counts of ReQISC-Eff vs ReQISC-Full."""
    rows: List[Dict] = []
    for case in benchmark_suite(scale=scale, categories=categories):
        eff = target_compile(case.circuit, spec="reqisc-eff")
        full = target_compile(case.circuit, spec="reqisc-full")
        rows.append(
            {
                "category": case.category,
                "benchmark": case.name,
                "eff_2q": eff.num_two_qubit_gates,
                "eff_distinct": eff.distinct_two_qubit_gates,
                "full_2q": full.num_two_qubit_gates,
                "full_distinct": full.distinct_two_qubit_gates,
            }
        )
    return rows


def fig14_ablation(
    scale: str = "small",
    categories: Optional[Sequence[str]] = None,
    compilers: Optional[Sequence[str]] = None,
) -> List[Dict]:
    """Figure 14: ReQISC-Full vs the SU(4) baseline variants and ReQISC-NC."""
    names = list(compilers) if compilers else [
        "qiskit-su4",
        "tket-su4",
        "bqskit-su4",
        "reqisc-nc",
        "reqisc-full",
    ]
    coupling = CouplingHamiltonian.xy(1.0)
    rows: List[Dict] = []
    for case in benchmark_suite(scale=scale, categories=categories):
        reference = reference_cnot_circuit(case.circuit)
        base = reference_metrics(reference)
        row: Dict = {"category": case.category, "benchmark": case.name, "base_2q": base["num_2q"]}
        for name in names:
            result = target_compile(case.circuit, spec=name)
            metrics = su4_metrics(result.circuit, coupling)
            row[f"{name}_2q_red"] = reduction_percent(base["num_2q"], metrics["num_2q"])
            row[f"{name}_distinct"] = result.distinct_two_qubit_gates
        rows.append(row)
    return rows


def fig15_fidelity(
    scale: str = "tiny",
    categories: Optional[Sequence[str]] = None,
    topologies: Sequence[str] = ("logical", "chain"),
    base_error_rate: float = 1e-3,
    num_trajectories: int = 120,
    max_qubits: int = 6,
    seed: int = 0,
) -> List[Dict]:
    """Figure 15: program fidelity and pulse duration under duration-scaled noise."""
    coupling = CouplingHamiltonian.xy(1.0)
    rows: List[Dict] = []
    for case in benchmark_suite(scale=scale, categories=categories, max_qubits=max_qubits):
        row: Dict = {"category": case.category, "benchmark": case.name}
        for topology in topologies:
            coupling_map = None
            if topology == "chain":
                coupling_map = CouplingMap.line(case.num_qubits)
            elif topology == "grid":
                coupling_map = CouplingMap.grid_for(case.num_qubits)
            target = Target(coupling_map=coupling_map)
            for label, name in (("baseline", "tket-like"), ("reqisc", "reqisc-eff")):
                result = target_compile(case.circuit, target=target, spec=name)
                circuit = result.circuit
                if name.startswith("reqisc"):
                    duration_fn = su4_duration_model(coupling)
                else:
                    duration_fn = cnot_isa_duration_model()
                noise = duration_scaled_noise_model(duration_fn, base_error_rate=base_error_rate)
                noisy = simulate_noisy_probabilities(
                    circuit, noise, num_trajectories=num_trajectories, seed=seed
                )
                ideal = probabilities(circuit.statevector())
                fidelity = hellinger_fidelity(noisy, ideal)
                row[f"{topology}_{label}_fidelity"] = fidelity
                row[f"{topology}_{label}_duration"] = circuit.duration(duration_fn)
        rows.append(row)
    return rows


def fig16_reliability(
    scale: str = "tiny",
    categories: Optional[Sequence[str]] = None,
    compilers: Optional[Sequence[str]] = None,
    max_qubits: int = 8,
) -> List[Dict]:
    """Figure 16: compilation error (circuit infidelity) and compile latency."""
    names = list(compilers) if compilers else ["qiskit-like", "tket-like", "reqisc-eff", "reqisc-full"]
    rows: List[Dict] = []
    for case in benchmark_suite(scale=scale, categories=categories, max_qubits=max_qubits):
        original = case.circuit.to_unitary()
        row: Dict = {"category": case.category, "benchmark": case.name, "num_qubits": case.num_qubits}
        for name in names:
            start = time.perf_counter()
            result = target_compile(case.circuit, spec=name)
            elapsed = time.perf_counter() - start
            permutation = result.final_permutation
            expected = permutation_unitary(permutation) @ original
            error = unitary_infidelity(result.circuit.to_unitary(), expected)
            row[f"{name}_error"] = max(error, 0.0)
            row[f"{name}_seconds"] = elapsed
        rows.append(row)
    return rows


def fig17_noise_aware_routing(
    scale: str = "tiny",
    categories: Optional[Sequence[str]] = None,
    presets: Sequence[str] = ("xy-line-cal", "xy-grid-cal", "heavy-hex-cal"),
    seed: int = 0,
) -> List[Dict]:
    """Estimated-fidelity gain of calibration-aware routing over distance-only.

    Each suite program is lowered to the CNOT ISA and routed on the seeded
    heterogeneous calibrated presets (see ``docs/noise.md``) with both the
    distance-only SABRE scorer and the noise-aware portfolio
    (:func:`~repro.compiler.routing.noise.compare_routing_strategies`); rows
    report both estimated fidelities and their ratio, which is >= 1 by the
    portfolio construction.
    """
    from repro.circuits.depgraph import DependencyGraph
    from repro.compiler.routing.noise import compare_routing_strategies
    from repro.target.target import resolve_target

    rows: List[Dict] = []
    for case in benchmark_suite(scale=scale, categories=categories):
        lowered = reference_cnot_circuit(case.circuit)
        graph = DependencyGraph.from_circuit(lowered)
        for preset in presets:
            target = resolve_target(preset, lowered.num_qubits)
            comparison = compare_routing_strategies(
                graph, target, seed=seed, name=case.name
            )
            rows.append(
                {
                    "category": case.category,
                    "benchmark": case.name,
                    "preset": preset,
                    "qubits": target.coupling_map.num_qubits,
                    "distance_fidelity": float(
                        np.exp(comparison.distance_log_fidelity)
                    ),
                    "noise_fidelity": float(np.exp(comparison.noise_log_fidelity)),
                    "improvement": comparison.improvement,
                    "strategy": comparison.strategy,
                    "distance_swaps": comparison.distance_result.inserted_swaps,
                    "noise_swaps": comparison.noise_result.inserted_swaps,
                }
            )
    return rows
