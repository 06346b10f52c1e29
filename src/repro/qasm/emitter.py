"""OpenQASM 2.0 exporter.

Serializes a :class:`~repro.circuits.circuit.QuantumCircuit` so that
``loads(dumps(circuit))`` reproduces it gate for gate: same gate names,
same qubits, parameters recovered exactly (floats are printed with
``repr``, whose shortest-round-trip form parses back bit-identically).

Layout of the emitted program::

    OPENQASM 2.0;
    include "qelib1.inc";
    // <extension-gate notes>
    opaque can(x,y,z) a,b;          // one decl per non-qelib1 gate used
    // repro.unitary ru0 su4 <hex>  // matrix pragma per distinct UnitaryGate
    opaque ru0 a,b;
    qreg q[N];
    <one line per instruction>

Standard gates with no qelib1 definition (the ``qelib1=False`` rows of
:data:`repro.gates.standard.GATES`: ``can``, ``iswap``, ``b`` ...) are
declared ``opaque`` so external parsers see well-formed QASM; this
project's importer knows them natively.  Every named-gate line is checked
against its ``GATES`` row (arity and parameter count) first, so ``dumps``
never writes a line its own ``loads`` refuses.
``mcx`` gates are emitted as per-arity ``mcx_<k>`` symbols (k controls,
target last), each with its own opaque declaration; the importer maps
them back onto ``mcx_gate(k)``.  :class:`~repro.gates.gate.UnitaryGate`
instructions are emitted as opaque applications whose exact matrix bytes
ride in a ``// repro.unitary`` pragma, giving fused SU(4)/SU(8) blocks a
bit-exact round trip.
"""

from __future__ import annotations

import math
import os
from string import ascii_lowercase
from typing import IO, Dict, List, Tuple, Union

from repro.circuits.circuit import QuantumCircuit
from repro.gates.gate import Gate, UnitaryGate
from repro.gates.standard import GATES
from repro.qasm.errors import QasmError

__all__ = ["dumps", "dump"]

#: Standard gates that ``qelib1.inc`` defines: no declaration is emitted for
#: these.  Every other gate ``dumps`` writes is declared ``opaque``.
_QELIB1_NAMES = frozenset(name for name, spec in GATES.items() if spec.qelib1)

#: ``(arity, number of parameters)`` of each named gate ``dumps`` prints as a
#: plain line; ``mcx`` is handled on its own.
_SHAPES: Dict[str, Tuple[int, int]] = {
    name: (spec.arity, len(spec.params)) for name, spec in GATES.items()
}

#: Human-readable definitions for the extension comment block.
_EXTENSION_NOTES: Dict[str, str] = {
    "can": "can(x,y,z) = exp(-i (x XX + y YY + z ZZ)); the ReQISC SU(4) primitive",
    "sqisw": "sqisw = sqrt(iSWAP)",
    "b": "b = Can(pi/4, pi/8, 0) (the Berkeley gate)",
    "cv": "cv = controlled-sqrt(X); cvdg is its adjoint",
    "cvdg": "cvdg = adjoint of cv",
    "ryy": "ryy(theta) = exp(-i theta YY / 2)",
    "iswap": "iswap = the iSWAP gate",
    "ccz": "ccz = doubly-controlled Z",
    "mcx": "mcx_<k> = multi-controlled X with k controls (controls first, target last)",
}


def _format_param(value: float) -> str:
    """Shortest exact decimal form of ``value`` (parses back bit-identical)."""
    if not math.isfinite(value):
        raise QasmError(f"cannot serialize non-finite gate parameter {value!r}")
    text = repr(float(value))
    # repr() of negative values starts with '-'; the importer's unary minus
    # reconstructs the same float, so no special casing is needed.
    return text


def _mcx_controls(gate: Gate) -> int:
    """Control count of an ``mcx_gate(k)``, the one gate outside ``GATES``.

    Raises :class:`QasmError` for any other gate whose name or shape
    (arity, parameter count) has no ``GATES`` row, since ``loads`` would
    refuse the line.
    """
    controls = gate.num_qubits - 1
    if gate.name == "mcx":
        if controls < 1 or gate.params != (float(controls),):
            raise QasmError(
                f"mcx on {gate.num_qubits} qubit(s) with parameters {gate.params} "
                "is not an mcx_gate(k)"
            )
        return controls
    shape = _SHAPES.get(gate.name)
    if shape is None:
        raise QasmError(f"gate {gate.name!r} has no QASM serialization")
    raise QasmError(
        f"gate {gate.name!r} acts on {shape[0]} qubit(s) with {shape[1]} parameter(s), "
        f"got {gate.num_qubits} qubit(s) and {len(gate.params)} parameter(s)"
    )


def _pragma_symbol(index: int) -> str:
    return f"ru{index}"


def dumps(circuit: QuantumCircuit) -> str:
    """Serialize ``circuit`` to OpenQASM 2.0 text."""
    used_names = set()
    mcx_arities = set()  # control counts, one opaque decl per arity used
    # Distinct unitary blocks, keyed by (label, exact matrix bytes).
    unitary_symbols: Dict[Tuple[str, bytes], str] = {}
    unitary_order: List[Tuple[str, UnitaryGate]] = []

    body: List[str] = []
    operands: Dict[Tuple[int, ...], str] = {}  # qubit tuple -> "q[a],q[b]"
    for instruction in circuit:
        gate = instruction.gate
        qubits = operands.get(instruction.qubits)
        if qubits is None:
            qubits = operands[instruction.qubits] = ",".join(f"q[{q}]" for q in instruction.qubits)
        if isinstance(gate, UnitaryGate):
            if not gate.name or not all(33 <= ord(ch) <= 126 for ch in gate.name):
                raise QasmError(
                    f"unitary label {gate.name!r} is not serializable "
                    "(printable, whitespace-free labels only)"
                )
            key = (gate.name, gate.matrix.tobytes())
            symbol = unitary_symbols.get(key)
            if symbol is None:
                symbol = _pragma_symbol(len(unitary_symbols))
                unitary_symbols[key] = symbol
                unitary_order.append((symbol, gate))
            body.append(f"{symbol} {qubits};")
            continue
        name, params = gate.name, gate.params
        used_names.add(name)
        if _SHAPES.get(name) != (gate.num_qubits, len(params)):
            controls = _mcx_controls(gate)
            mcx_arities.add(controls)
            body.append(f"mcx_{controls} {qubits};")
        elif params:
            body.append(f"{name}({','.join(map(_format_param, params))}) {qubits};")
        else:
            body.append(f"{name} {qubits};")

    header: List[str] = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    extension_names = sorted(used_names - _QELIB1_NAMES)
    for name in extension_names:
        note = _EXTENSION_NOTES.get(name)
        if note:
            header.append(f"// {note}")
    for name in extension_names:
        spec = GATES.get(name)
        if spec is not None:  # mcx_<k> is declared per arity below
            params = f"({','.join(spec.params)})" if spec.params else ""
            formals = ",".join(ascii_lowercase[: spec.arity])
            header.append(f"opaque {name}{params} {formals};")
    for controls in sorted(mcx_arities):
        formals = ",".join(f"q{i}" for i in range(controls + 1))
        header.append(f"opaque mcx_{controls} {formals};")
    for symbol, gate in unitary_order:
        payload = gate.matrix.tobytes().hex()
        formals = ",".join(f"q{i}" for i in range(gate.num_qubits))
        header.append(f"// repro.unitary {symbol} {gate.name} {payload}")
        header.append(f"opaque {symbol} {formals};")
    header.append(f"qreg q[{circuit.num_qubits}];")
    return "\n".join(header + body) + "\n"


def dump(circuit: QuantumCircuit, file: Union[str, "os.PathLike[str]", IO[str]]) -> None:
    """Write ``circuit`` as OpenQASM 2.0 to a path or text file object."""
    text = dumps(circuit)
    if hasattr(file, "write"):
        file.write(text)  # type: ignore[union-attr]
        return
    with open(os.fspath(file), "w", encoding="utf-8") as handle:
        handle.write(text)
