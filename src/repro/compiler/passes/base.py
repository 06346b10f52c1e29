"""Pass infrastructure: every transformation is a :class:`CompilerPass` and
pipelines are :class:`PassManager` instances (mirroring the staged design of
Figure 2: program-aware, program-agnostic, hardware-aware).

Representation contract
-----------------------
Every pass declares which program representation it ``consumes`` and
``produces``: ``"circuit"`` (a flat :class:`QuantumCircuit`) or ``"ir"`` (the
shared mutable :class:`repro.ir.CircuitIR`).  The :class:`PassManager`
converts between the two **at most once per representation change** — a run
of consecutive IR passes threads one ``CircuitIR`` object through all of
them, so a full ReQISC pipeline performs exactly two circuit<->IR
conversions (in and out) instead of re-marshalling a flat gate list at every
pass boundary.

The historical circuit-in/circuit-out signature keeps working in both
directions: a legacy pass that only implements :meth:`CompilerPass.run` is a
``consumes = "circuit"`` pass, and an IR-native pass can still be called
through :meth:`run` — the base class adapts by wrapping the circuit into a
throwaway ``CircuitIR``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, MutableMapping, Optional, Tuple, Union

from repro.circuits.circuit import QuantumCircuit
from repro.ir import CircuitIR

__all__ = ["CompilerPass", "PassManager", "PassRecord"]

#: A program travelling through the pipeline, in either representation.
Program = Union[QuantumCircuit, CircuitIR]


class CompilerPass:
    """Base class for circuit transformations.

    Subclasses implement :meth:`run` (flat-circuit passes) or :meth:`run_ir`
    (IR-native passes, with ``consumes``/``produces`` set to ``"ir"``) and
    may read/write the shared ``properties`` mapping (e.g. the qubit
    permutation produced by gate mirroring, or the layout produced by
    routing).
    """

    #: Human-readable pass name (defaults to the class name).
    name: str = ""
    #: Representation the pass reads: ``"circuit"`` or ``"ir"``.
    consumes: str = "circuit"
    #: Representation the pass returns: ``"circuit"`` or ``"ir"``.
    produces: str = "circuit"
    def run(self, circuit: QuantumCircuit, properties: Dict[str, Any]) -> QuantumCircuit:
        """Transform ``circuit`` and return the new circuit.

        For IR-native passes this is the compatibility adapter: the circuit
        is wrapped into a fresh :class:`~repro.ir.CircuitIR`, transformed via
        :meth:`run_ir` and flattened back.
        """
        if self.consumes == "ir":
            transformed = self.run_ir(CircuitIR.from_circuit(circuit), properties)
            return transformed.to_circuit()
        raise NotImplementedError

    def run_ir(self, ir: CircuitIR, properties: Dict[str, Any]) -> CircuitIR:
        """Transform the shared IR in place and return it (IR-native passes)."""
        raise NotImplementedError(
            f"{type(self).__name__} is a circuit-level pass; call run() "
            "or let the PassManager convert the representation"
        )

    def __repr__(self) -> str:
        return self.name or type(self).__name__


@dataclass
class PassRecord:
    """Bookkeeping entry for one executed pass."""

    name: str
    seconds: float
    gates_before: int
    gates_after: int
    two_qubit_before: int
    two_qubit_after: int
    depth_before: int = 0
    depth_after: int = 0
    #: Property-set keys this pass wrote (added or changed), sorted — a
    #: deterministic snapshot, identical between sequential and batch runs.
    properties_written: List[str] = field(default_factory=list)


def _coerce(program: Program, wants: str) -> Program:
    """Convert ``program`` to the ``wants`` representation (no-op when equal)."""
    if wants == "ir":
        if isinstance(program, CircuitIR):
            return program
        return CircuitIR.from_circuit(program)
    if isinstance(program, CircuitIR):
        return program.to_circuit()
    return program


def _measure(program: Program) -> Tuple[int, int, int]:
    """(gates, two-qubit gates, depth) of either representation."""
    if isinstance(program, CircuitIR):
        return len(program), program.two_qubit_count(), program.depth()
    return len(program), program.count_two_qubit_gates(), program.depth()


def _written_keys(before: Mapping[str, Any], after: Mapping[str, Any]) -> List[str]:
    """Sorted keys added, changed or deleted between two property snapshots."""
    written = []
    for key, value in after.items():
        if key not in before:
            written.append(key)
            continue
        previous = before[key]
        if previous is value:
            continue
        try:
            unchanged = bool(previous == value)
        except Exception:
            unchanged = False
        if not unchanged:
            written.append(key)
    written.extend(key for key in before if key not in after)
    return sorted(set(written))


@dataclass
class PassManager:
    """Run a sequence of passes, recording per-pass statistics."""

    passes: List[CompilerPass] = field(default_factory=list)
    records: List[PassRecord] = field(default_factory=list)

    def append(self, compiler_pass: CompilerPass) -> "PassManager":
        """Add a pass to the end of the pipeline."""
        self.passes.append(compiler_pass)
        return self

    def run(
        self,
        circuit: Program,
        properties: Optional[MutableMapping[str, Any]] = None,
    ) -> QuantumCircuit:
        """Execute the pipeline on ``circuit`` (a circuit or a ``CircuitIR``).

        ``properties`` is shared by every pass; pass it in to retrieve
        pass-produced metadata (final layout, qubit permutation, ...).  Any
        mutable mapping works; omitting it creates a fresh
        :class:`~repro.target.properties.PropertySet`.

        ``self.records`` is a *view of the last run*: each call builds a
        fresh records list (see :meth:`run_with_records`), so a manager
        reused across compilations or threads never mixes histories.
        """
        compiled, _ = self.run_with_records(circuit, properties)
        return compiled

    def run_with_records(
        self,
        circuit: Program,
        properties: Optional[MutableMapping[str, Any]] = None,
    ) -> Tuple[QuantumCircuit, List[PassRecord]]:
        """Like :meth:`run`, but also return this run's own records list.

        The returned list is freshly allocated per call — callers that keep
        it are immune to the manager being rerun concurrently or later.
        """
        if properties is None:
            from repro.target.properties import PropertySet

            properties = PropertySet()
        records: List[PassRecord] = []
        current: Program = circuit
        for compiler_pass in self.passes:
            wants = getattr(compiler_pass, "consumes", "circuit")
            current = _coerce(current, wants)
            gates_before, two_qubit_before, depth_before = _measure(current)
            snapshot = dict(properties.items())
            start = time.perf_counter()
            if wants == "ir":
                current = compiler_pass.run_ir(current, properties)
            else:
                current = compiler_pass.run(current, properties)
            seconds = time.perf_counter() - start
            gates_after, two_qubit_after, depth_after = _measure(current)
            records.append(
                PassRecord(
                    name=repr(compiler_pass),
                    seconds=seconds,
                    gates_before=gates_before,
                    gates_after=gates_after,
                    two_qubit_before=two_qubit_before,
                    two_qubit_after=two_qubit_after,
                    depth_before=depth_before,
                    depth_after=depth_after,
                    properties_written=_written_keys(snapshot, properties),
                )
            )
        compiled = _coerce(current, "circuit")
        self.records = records
        return compiled, records
