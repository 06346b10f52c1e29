"""Independent output checks: semantic equivalence by statevector probes,
and structural invariants for outputs too wide to simulate.

Permutation convention (verified on the Table-1 suite across pipelines and
targets): logical qubit ``q`` of the input is read from output wire
``final_layout[mirror_permutation[q]]``, each map completed to the output
width with the wires it does not name.  Input wires that no input gate touches, and wires added
when a program is widened to the device, start in ``|0>``: the compiler may
use them as clean ancillas (``repro.synthesis.mcx``) and must return them
to ``|0>``.  ``CompilationResult.final_permutation`` is not used because it
ignores routing's ``final_layout``.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from repro.simulators.statevector import apply_gate_sequence

#: Largest accepted infidelity per probe.  1e-8 is too tight: the
#: ``qiskit-like`` pipeline lands ``qft_7`` at 2.2e-8.
TOLERANCE = 1e-6


class OracleError(Exception):
    """A compiled program is not equivalent to its input."""


def output_wires(properties: Mapping, width: int) -> list:
    """``wires[q]`` = output wire that carries logical wire ``q``.

    Each recorded map may cover only the input's qubits; the wires it leaves
    out hold ``|0>`` ancillas, so they are appended in ascending order.
    """

    def padded(name):
        values = [int(v) for v in properties.get(name) or []]
        return values + sorted(set(range(width)) - set(values))

    mirror, final = padded("mirror_permutation"), padded("final_layout")
    wires = [final[mirror[q]] for q in range(width)]
    if sorted(wires) != list(range(width)):
        raise OracleError(f"recorded qubit maps do not compose to a permutation: {wires}")
    return wires


def _run(circuit, width: int, states: np.ndarray) -> np.ndarray:
    operations = [(inst.gate.matrix, inst.qubits) for inst in circuit]
    return apply_gate_sequence(states, operations, width)


def probe_infidelity(
    source,
    compiled,
    properties: Optional[Mapping] = None,
    probes: Optional[int] = None,
    seed: int = 0,
) -> float:
    """Worst ``1 - |<expected|actual>|^2`` over seeded random probe states.

    One random probe already catches a wrong program with overwhelming
    probability; by default wide programs get one, narrow ones three.
    """
    n_in, width = source.num_qubits, compiled.num_qubits
    if width < n_in:
        raise OracleError(f"output has {width} wires for a {n_in}-qubit input")
    if probes is None:
        probes = 3 if width <= 10 else 1
    touched = sorted({q for inst in source for q in inst.qubits})
    rng = np.random.default_rng(seed)
    amplitudes = rng.normal(size=(2 ** len(touched), probes)) + 1j * rng.normal(
        size=(2 ** len(touched), probes)
    )
    amplitudes /= np.linalg.norm(amplitudes, axis=0)

    # Random amplitudes on touched wires, |0> on every other wire.
    logical = np.zeros([2] * width + [probes], dtype=complex)
    logical[tuple(slice(None) if q in touched else 0 for q in range(width))] = (
        amplitudes.reshape([2] * len(touched) + [probes])
    )
    initial = logical.reshape(2**width, probes)

    expected = _run(source, width, initial.copy()).reshape([2] * width + [probes])
    wires = output_wires(properties or {}, width)
    axes = [0] * width
    for qubit, wire in enumerate(wires):
        axes[wire] = qubit
    expected = expected.transpose(axes + [width]).reshape(2**width, probes)
    actual = _run(compiled, width, initial.copy())
    overlaps = np.abs(np.einsum("ij,ij->j", expected.conj(), actual)) ** 2
    return float(1.0 - overlaps.min())


def check_equivalent(source, compiled, properties=None, probes=None, seed: int = 0) -> float:
    """Raise :class:`OracleError` unless ``compiled`` implements ``source``."""
    infidelity = probe_infidelity(source, compiled, properties, probes=probes, seed=seed)
    if not infidelity <= TOLERANCE:
        raise OracleError(
            f"{getattr(source, 'name', 'program')}: probe infidelity {infidelity:.3e} "
            f"exceeds {TOLERANCE:g}"
        )
    return infidelity


def check_structure(compiled, width: int, edges: Sequence) -> None:
    """Raise unless ``compiled`` is in the {Can, U3} ISA with 2Q gates on ``edges``."""
    if compiled.num_qubits != width:
        raise OracleError(f"output width {compiled.num_qubits} != device width {width}")
    allowed = {tuple(sorted(edge)) for edge in edges}
    for position, inst in enumerate(compiled):
        if inst.gate.name not in ("can", "u3"):
            raise OracleError(f"gate {position} is {inst.gate.name!r}, outside {{can, u3}}")
        if len(inst.qubits) == 2 and tuple(sorted(inst.qubits)) not in allowed:
            raise OracleError(f"gate {position} acts on {inst.qubits}, not a coupling edge")

