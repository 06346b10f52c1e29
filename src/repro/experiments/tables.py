"""Table experiments: suite characteristics (Table 1), logical-level
compilation comparison (Table 2), microarchitecture synthesis cost (Table 3)."""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.circuits.metrics import BASELINE_CNOT_DURATION
from repro.experiments.common import (
    reduction_percent,
    reference_cnot_circuit,
    reference_metrics,
    su4_metrics,
)
from repro.linalg.random import random_coupling_coefficients
from repro.microarch.durations import fixed_basis_duration, haar_average_duration
from repro.microarch.hamiltonian import CouplingHamiltonian
from repro.target.api import compile as target_compile
from repro.workloads.suite import benchmark_suite

__all__ = [
    "table1_suite_characteristics",
    "table2_logical_compilation",
    "table3_synthesis_cost",
]

PI_4 = math.pi / 4.0
PI_8 = math.pi / 8.0


def table1_suite_characteristics(
    scale: str = "small", categories: Optional[Sequence[str]] = None
) -> List[Dict]:
    """Table 1: per-category #Qubit, #2Q, Depth2Q and duration of the suite."""
    rows: List[Dict] = []
    for case in benchmark_suite(scale=scale, categories=categories):
        reference = reference_cnot_circuit(case.circuit)
        metrics = reference_metrics(reference)
        rows.append(
            {
                "category": case.category,
                "benchmark": case.name,
                "num_qubits": case.num_qubits,
                "num_2q": metrics["num_2q"],
                "depth_2q": metrics["depth_2q"],
                "duration": metrics["duration"],
            }
        )
    return rows


def table2_logical_compilation(
    scale: str = "small",
    categories: Optional[Sequence[str]] = None,
    compilers: Optional[Sequence[str]] = None,
    coupling: Optional[CouplingHamiltonian] = None,
) -> List[Dict]:
    """Table 2: reduction rates of #2Q, Depth2Q and pulse duration.

    Reductions are relative to the original CNOT-ISA representation of each
    program, exactly as in the paper.  CNOT-ISA compilers are costed with the
    conventional CNOT pulse; SU(4)-ISA compilers with the genAshN durations.
    """
    coupling = coupling or CouplingHamiltonian.xy(1.0)
    names = list(compilers) if compilers else ["qiskit-like", "tket-like", "reqisc-eff", "reqisc-full"]
    rows: List[Dict] = []
    for case in benchmark_suite(scale=scale, categories=categories):
        reference = reference_cnot_circuit(case.circuit)
        base = reference_metrics(reference)
        row: Dict = {
            "category": case.category,
            "benchmark": case.name,
            "base_2q": base["num_2q"],
        }
        for name in names:
            result = target_compile(case.circuit, spec=name)
            if name.startswith("reqisc") or name.endswith("su4"):
                metrics = su4_metrics(result.circuit, coupling)
            else:
                metrics = reference_metrics(result.circuit)
            row[f"{name}_2q_red"] = reduction_percent(base["num_2q"], metrics["num_2q"])
            row[f"{name}_depth_red"] = reduction_percent(base["depth_2q"], metrics["depth_2q"])
            row[f"{name}_dur_red"] = reduction_percent(base["duration"], metrics["duration"])
        rows.append(row)
    return rows


def table3_synthesis_cost(
    num_samples: int = 500, seed: int = 0
) -> List[Dict]:
    """Table 3: single-gate and Haar-average synthesis durations per ISA.

    Haar-average costs for fixed basis gates use the known synthesis counts
    (3 for CNOT/iSWAP, 2.21 for SQiSW, 2 for B); the SU(4) row averages the
    time-optimal duration over Haar-random targets.
    """
    couplings = {
        "xy": CouplingHamiltonian.xy(1.0),
        "xx": CouplingHamiltonian.xx(1.0),
        "random": CouplingHamiltonian.from_coefficients(
            *random_coupling_coefficients(seed, strength=1.0), label="random"
        ),
    }
    bases = {
        "cnot": ((PI_4, 0.0, 0.0), 3.0),
        "iswap": ((PI_4, PI_4, 0.0), 3.0),
        "sqisw": ((PI_8, PI_8, 0.0), 2.21),
        "b": ((PI_4, PI_8, 0.0), 2.0),
    }
    rows: List[Dict] = []
    # Conventional CNOT pulse reference (first row of Table 3).
    rows.append(
        {
            "coupling": "xy",
            "basis": "cnot-conventional",
            "tau_single": BASELINE_CNOT_DURATION,
            "tau_average": 3.0 * BASELINE_CNOT_DURATION,
        }
    )
    for coupling_name, coupling in couplings.items():
        rows.append(
            {
                "coupling": coupling_name,
                "basis": "su4",
                "tau_single": float("nan"),
                "tau_average": haar_average_duration(coupling, num_samples=num_samples, seed=seed),
            }
        )
        for basis_name, (coords, count) in bases.items():
            single, average = fixed_basis_duration(coords, coupling, count)
            rows.append(
                {
                    "coupling": coupling_name,
                    "basis": basis_name,
                    "tau_single": single,
                    "tau_average": average,
                }
            )
    return rows
