"""Deterministic content fingerprints for IR regions and whole programs.

This generalizes the exact-bytes keying scheme of
:func:`repro.service.cache.circuit_fingerprint` into a reusable
content-addressing layer for incremental recompilation:

* every :class:`~repro.gates.gate.Gate` has a canonical byte string — name,
  arity and either the exact parameter bytes (named gates resolve their
  matrix purely from ``(name, params)``) or the exact matrix bytes
  (:class:`~repro.gates.gate.UnitaryGate`);
* an :class:`~repro.circuits.instruction.Instruction` adds its wire tuple;
* a *region* (any instruction sequence) hashes its members in program order
  with length prefixes, optionally relabelling wires by first appearance so
  structurally identical regions on different physical qubits share a key;
* a *program* (a :class:`~repro.circuits.circuit.QuantumCircuit` or a
  :class:`~repro.ir.CircuitIR`) adds its qubit count.

Fingerprints are position-free and id-free — they hash gate content and
wire connectivity in program order, never node ids — so they are invariant
under the IR's node-id renumbering (``adopt``/``rewrite`` reload, interleaved
insert/remove churn) and, being SHA-256 over deterministic bytes, stable
across processes and machines.

Caching: gate bytes are interned on the gate object (gates are immutable and
widely shared through the matrix intern pools), instruction bytes on the
instruction, and whole-IR digests on the IR keyed by its mutation counter
(:attr:`~repro.ir.CircuitIR.version`) — the dirty-tracking hook that makes
re-fingerprinting an unchanged program O(1).
"""

from __future__ import annotations

import hashlib
import json
import struct
from typing import Iterable, Optional, Union

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.instruction import Instruction
from repro.gates.gate import Gate, UnitaryGate
from repro.ir import CircuitIR

__all__ = [
    "gate_content",
    "instruction_content",
    "gate_region_key",
    "region_fingerprint",
    "program_fingerprint",
    "target_fingerprint",
]

_LEN = struct.Struct("<I")


def gate_content(gate: Gate) -> bytes:
    """Canonical content bytes of a gate (cached on the gate object).

    Named gates are identified by ``(name, arity, exact param bytes)`` —
    their matrix is a pure function of that triple through the builder
    registry.  Explicit-matrix gates (:class:`UnitaryGate`) are identified by
    their exact matrix bytes, mirroring
    :func:`repro.service.cache.circuit_fingerprint`.
    """
    cached = getattr(gate, "_content", None)
    if cached is None:
        name = gate.name.encode("utf-8")
        if isinstance(gate, UnitaryGate):
            body = np.ascontiguousarray(gate.matrix, dtype=np.complex128).tobytes()
            tag = b"U"
        else:
            body = np.asarray(gate.params, dtype=np.float64).tobytes()
            tag = b"G"
        cached = b"".join(
            (tag, _LEN.pack(len(name)), name, _LEN.pack(gate.num_qubits), body)
        )
        try:
            gate._content = cached
        except AttributeError:  # foreign Gate subclass without the slot
            pass
    return cached


def instruction_content(instruction: Instruction) -> bytes:
    """Content bytes of one instruction: gate content plus its wire tuple."""
    cached = getattr(instruction, "_content", None)
    if cached is None:
        qubits = instruction.qubits
        cached = gate_content(instruction.gate) + struct.pack(
            f"<{len(qubits)}i", *qubits
        )
        object.__setattr__(instruction, "_content", cached)
    return cached


def gate_region_key(gate: Gate, *context: str) -> str:
    """Region key of a single-gate region (e.g. one fused SU(4) block)."""
    digest = hashlib.sha256(gate_content(gate))
    for tag in context:
        digest.update(b"\x00")
        digest.update(tag.encode("utf-8"))
    return digest.hexdigest()


def region_fingerprint(
    instructions: Iterable[Instruction],
    *context: str,
    localize: bool = False,
) -> str:
    """Fingerprint of an instruction sequence (a subgraph in program order).

    With ``localize`` wires are relabelled by first appearance, so two
    regions that are identical up to a qubit relabelling share a key (used
    for per-block memo entries stored on local wires).
    """
    digest = hashlib.sha256()
    if localize:
        mapping: dict = {}
        for instruction in instructions:
            local = []
            for qubit in instruction.qubits:
                index = mapping.get(qubit)
                if index is None:
                    index = mapping[qubit] = len(mapping)
                local.append(index)
            payload = gate_content(instruction.gate) + struct.pack(
                f"<{len(local)}i", *local
            )
            digest.update(_LEN.pack(len(payload)))
            digest.update(payload)
    else:
        for instruction in instructions:
            payload = instruction_content(instruction)
            digest.update(_LEN.pack(len(payload)))
            digest.update(payload)
    for tag in context:
        digest.update(b"\x00")
        digest.update(tag.encode("utf-8"))
    return digest.hexdigest()


def _ir_base_digest(ir: CircuitIR) -> bytes:
    """Whole-IR content digest, cached against the IR's mutation counter."""
    version = ir.version
    cached = ir._content_digest
    if cached is not None and cached[0] == version:
        return cached[1]
    digest = hashlib.sha256()
    for instruction in ir.instructions():
        payload = instruction_content(instruction)
        digest.update(_LEN.pack(len(payload)))
        digest.update(payload)
    value = digest.digest()
    ir._content_digest = (version, value)
    return value


def program_fingerprint(
    program: Union[QuantumCircuit, CircuitIR], *context: str
) -> str:
    """Fingerprint of a whole program in either representation.

    Identical instruction sequences yield identical keys whether held as a
    flat circuit or as an IR; the circuit name is deliberately excluded
    (memoized rewrites are name-independent, matching the template cache).
    """
    digest = hashlib.sha256()
    digest.update(_LEN.pack(program.num_qubits))
    if isinstance(program, CircuitIR):
        digest.update(_ir_base_digest(program))
    else:
        # Same nested-digest form as the IR path, so the two
        # representations of one instruction sequence share a key.
        inner = hashlib.sha256()
        for instruction in program.instructions:
            payload = instruction_content(instruction)
            inner.update(_LEN.pack(len(payload)))
            inner.update(payload)
        digest.update(inner.digest())
    for tag in context:
        digest.update(b"\x00")
        digest.update(tag.encode("utf-8"))
    return digest.hexdigest()


def target_fingerprint(target: Optional[object]) -> str:
    """Content hash of a :class:`~repro.target.target.Target` (or ``None``).

    Hashes the JSON serialization, so two targets with the same device
    payload share memo entries regardless of object identity.
    """
    if target is None:
        return "target:none"
    cached = getattr(target, "_incr_fingerprint", None)
    if cached is None:
        payload = json.dumps(target.to_dict(), sort_keys=True, default=str)
        cached = "target:" + hashlib.sha256(payload.encode("utf-8")).hexdigest()
        try:
            object.__setattr__(target, "_incr_fingerprint", cached)
        except (AttributeError, TypeError):  # slotted/foreign target objects
            pass
    return cached
