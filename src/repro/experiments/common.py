"""Shared utilities for the experiment harness."""

from __future__ import annotations

from typing import Any, Dict, Iterable

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.metrics import (
    circuit_duration,
    cnot_isa_duration_model,
    count_two_qubit_gates,
    two_qubit_depth,
)
from repro.compiler.passes.decompose import decompose_to_cnot
from repro.microarch.durations import su4_duration_model
from repro.microarch.hamiltonian import CouplingHamiltonian

__all__ = [
    "reference_cnot_circuit",
    "reference_metrics",
    "su4_metrics",
    "reduction_percent",
    "format_rows",
]


def reference_cnot_circuit(circuit: QuantumCircuit) -> QuantumCircuit:
    """The original program lowered to the CNOT ISA (no optimization).

    This is the reference every reduction rate in Table 2 / Figure 14 is
    measured against, matching the paper's "original circuit" columns.
    """
    return decompose_to_cnot(circuit)


def reference_metrics(circuit: QuantumCircuit) -> Dict[str, float]:
    """#2Q / Depth2Q / duration of a CNOT-ISA circuit under conventional pulses."""
    return {
        "num_2q": count_two_qubit_gates(circuit),
        "depth_2q": two_qubit_depth(circuit),
        "duration": circuit_duration(circuit, cnot_isa_duration_model()),
    }


def su4_metrics(circuit: QuantumCircuit, coupling: CouplingHamiltonian) -> Dict[str, float]:
    """#2Q / Depth2Q / duration of an SU(4)-ISA circuit under genAshN pulses."""
    return {
        "num_2q": count_two_qubit_gates(circuit),
        "depth_2q": two_qubit_depth(circuit),
        "duration": circuit_duration(circuit, su4_duration_model(coupling)),
    }


def reduction_percent(reference: float, value: float) -> float:
    """Percentage reduction of ``value`` relative to ``reference``."""
    if reference <= 0:
        return 0.0
    return 100.0 * (reference - value) / reference


def format_rows(rows: Iterable[Dict[str, Any]], title: str = "") -> str:
    """Render a list of row dictionaries as an aligned text table."""
    rows = list(rows)
    if not rows:
        return f"{title}\n(no rows)"
    columns = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), *(len(_fmt(row.get(column))) for row in rows))
        for column in columns
    }
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(c).ljust(widths[c]) for c in columns))
    lines.append("  ".join("-" * widths[c] for c in columns))
    for row in rows:
        lines.append("  ".join(_fmt(row.get(c)).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
