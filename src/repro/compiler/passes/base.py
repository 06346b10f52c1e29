"""Pass infrastructure: every transformation is a :class:`CompilerPass` and
pipelines are :class:`PassManager` instances (mirroring the staged design of
Figure 2: program-aware, program-agnostic, hardware-aware).

Every pass has one method, :meth:`CompilerPass.run`, which mutates the shared
:class:`repro.ir.CircuitIR` in place.  The :class:`PassManager` converts the
input circuit to an IR once on entry (a pre-built ``CircuitIR`` goes straight
in), threads that one object through every pass, and flattens it back to a
circuit once on exit: a compile performs exactly two circuit<->IR
conversions, whatever the pipeline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, MutableMapping, Optional, Tuple, Union

from repro.circuits.circuit import QuantumCircuit
from repro.ir import CircuitIR

__all__ = ["CompilerPass", "PassManager", "PassRecord"]


class CompilerPass:
    """Base class for program transformations.

    Subclasses implement :meth:`run` and may read/write the shared
    ``properties`` mapping (e.g. the qubit permutation produced by gate
    mirroring, or the layout produced by routing).
    """

    #: Human-readable pass name (defaults to the class name).
    name: str = ""

    def run(self, ir: CircuitIR, properties: Dict[str, Any]) -> None:
        """Transform ``ir`` in place."""
        raise NotImplementedError

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


def _measure(ir: CircuitIR) -> Tuple[int, int, int]:
    """(gates, two-qubit gates, depth) of the program."""
    return len(ir), ir.two_qubit_count(), ir.depth()


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
        circuit: Union[QuantumCircuit, CircuitIR],
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
        circuit: Union[QuantumCircuit, CircuitIR],
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
        ir = circuit if isinstance(circuit, CircuitIR) else CircuitIR.from_circuit(circuit)
        for compiler_pass in self.passes:
            gates_before, two_qubit_before, depth_before = _measure(ir)
            snapshot = dict(properties.items())
            start = time.perf_counter()
            compiler_pass.run(ir, properties)
            seconds = time.perf_counter() - start
            gates_after, two_qubit_after, depth_after = _measure(ir)
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
        compiled = ir.to_circuit()
        self.records = records
        return compiled, records
