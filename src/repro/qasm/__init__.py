"""OpenQASM 2.0 interchange: dependency-free import/export.

This package makes external circuit corpora (MQT Bench, QASMBench,
Qiskit-exported programs) first-class inputs of the stack and lets any
compiled circuit leave it in a widely readable format:

* :func:`dumps` / :func:`dump` — serialize a
  :class:`~repro.circuits.circuit.QuantumCircuit` to OpenQASM 2.0 text /
  a file.  Deterministic, and exact: ``loads(dumps(c))`` is gate-for-gate
  identical to ``c`` (names, qubits, parameter floats).
* :func:`loads` / :func:`load` — parse OpenQASM 2.0 text / a file into a
  circuit.  :func:`parse` returns the full
  :class:`~repro.qasm.parser.QasmProgram` including the
  ``creg``/``measure``/``barrier`` passthrough record.  Two tiers read
  the text: a one-regex reader takes straight-line programs (one
  ``qreg``, built-in or ``mcx_<k>`` gates, literal parameters, indexed
  qubits: what :func:`dumps` writes) and returns the parser's exact
  result; everything else goes to a hand-written tokenizer and
  recursive-descent parser, so errors always come from the parser.
  CR LF, CR and LF each end one line.  ``max_qubits`` refuses a ``qreg``
  past the cap at its declaration (:class:`QubitCapError`), and gate
  macros may expand to at most a fixed number of instructions.
* :class:`QasmError` — structured parse/serialization error with 1-based
  ``line``/``column`` (a :class:`ValueError` subclass).

See ``docs/qasm.md`` for the supported subset and the gate mapping table.
"""

from __future__ import annotations

import os
from typing import IO, Optional, Union

from repro.circuits.circuit import QuantumCircuit
from repro.qasm.emitter import dump, dumps
from repro.qasm.errors import QasmError, QubitCapError
from repro.qasm.parser import QasmProgram, parse

__all__ = ["QasmError", "QasmProgram", "QubitCapError", "dump", "dumps", "load", "loads", "parse"]


def loads(text: str, name: str = "qasm", max_qubits: Optional[int] = None) -> QuantumCircuit:
    """Parse OpenQASM 2.0 ``text`` into a :class:`QuantumCircuit`.

    ``measure``/``barrier`` statements are validated and dropped (use
    :func:`parse` to inspect them); everything unsupported raises
    :class:`QasmError` with the source line/column.  With ``max_qubits``,
    a ``qreg`` past that many qubits raises :class:`QubitCapError` at its
    declaration.
    """
    return parse(text, name=name, max_qubits=max_qubits).circuit


def load(file: Union[str, "os.PathLike[str]", IO[str]], name: str = None) -> QuantumCircuit:
    """Parse an OpenQASM 2.0 file (path or text file object) into a circuit.

    The circuit is named after the file stem unless ``name`` is given;
    parse errors carry the filename.
    """
    if hasattr(file, "read"):
        text = file.read()
        filename = getattr(file, "name", None)
    else:
        filename = os.fspath(file)
        with open(filename, "r", encoding="utf-8") as handle:
            text = handle.read()
    if name is None:
        stem = os.path.splitext(os.path.basename(filename))[0] if filename else ""
        name = stem or "qasm"
    try:
        return loads(text, name=name)
    except QasmError as exc:
        if filename and exc.filename is None:
            raise exc.with_filename(filename) from None
        raise
