"""Shared utilities for the experiment harness."""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

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
from repro.synthesis.approximate import ApproximateSynthesizer
from repro.target.api import PipelineCompiler
from repro.target.pipeline import named_pipeline, pipeline_names
from repro.target.target import Target

__all__ = [
    "reference_cnot_circuit",
    "reference_metrics",
    "su4_metrics",
    "build_compilers",
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


def build_compilers(
    which: Sequence[str],
    full_synthesis_budget: Optional[int] = 2,
    synthesis_tolerance: float = 1e-5,
    seed: int = 0,
    synthesis_cache: Optional[Any] = None,
    target: Union[None, str, Target] = None,
) -> Dict[str, "PipelineCompiler"]:
    """Construct the compilers used across the experiments by name.

    Recognized names: ``qiskit-like``, ``tket-like``, ``qiskit-su4``,
    ``tket-su4``, ``bqskit-su4``, ``reqisc-eff``, ``reqisc-full``,
    ``reqisc-nc`` (Full without DAG compacting) and ``reqisc-sabre``
    (Full/Eff with plain SABRE instead of mirroring-SABRE).

    Each entry is a :class:`~repro.target.api.PipelineCompiler` — a named
    :class:`~repro.target.pipeline.PipelineSpec` bound to the requested
    ``target``.  ``target`` may also be a preset name such as ``"xy-line"``,
    resolved per circuit at compile time; a bare topology compiles on
    ``Target(coupling_map=...)``.

    ``reqisc-full``/``reqisc-nc`` cap hierarchical synthesis: at most
    ``full_synthesis_budget`` (2) blocks at ``synthesis_tolerance`` (1e-5),
    1 restart of 200 iterations.  The CLI, batch engine and daemon build
    here, so their output can differ from ``compile(spec="reqisc-full")``.

    ``synthesis_cache`` (a :class:`~repro.service.cache.SynthesisCache`) is
    forwarded to every ReQISC compiler so suite-level runs share synthesis
    results across programs.
    """
    def fast_synthesizer() -> ApproximateSynthesizer:
        return ApproximateSynthesizer(
            tolerance=synthesis_tolerance, restarts=1, seed=seed, max_iterations=200
        )

    registry: Dict[str, PipelineCompiler] = {}
    for name in which:
        if name in ("reqisc-full", "reqisc-nc"):
            spec = named_pipeline(
                name,
                synthesis_tolerance=synthesis_tolerance,
                synthesizer=fast_synthesizer(),
                max_synthesis_blocks=full_synthesis_budget,
            )
        elif name in pipeline_names():
            spec = named_pipeline(name)
        else:
            raise KeyError(f"unknown compiler name {name!r}")
        cache = synthesis_cache if name.startswith("reqisc") else None
        registry[name] = PipelineCompiler(
            spec=spec, target=target, seed=seed, synthesis_cache=cache
        )
    return registry


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
