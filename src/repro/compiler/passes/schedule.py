"""ASAP scheduling against the target's duration model.

Compilation so far emits an *ordered* gate list; real hardware executes a
*timed* pulse program.  :func:`asap_schedule` assigns every instruction the
earliest start time consistent with its qubit dependencies (as-soon-as-
possible list scheduling over per-qubit ready times), and
:class:`SchedulingPass` wraps that as a pipeline stage: the circuit passes
through unchanged and the property set gains the full schedule plus the
critical-path makespan.

Durations come from the target's per-ISA duration model
(:meth:`~repro.target.target.Target.duration_model`); when the target
carries a :class:`~repro.microarch.calibration.CalibrationData` and a 2Q
instruction sits on a calibrated physical edge, the *measured* edge duration
takes precedence over the analytic model (the routed circuit acts on
physical wires, so edge lookups are meaningful).  See ``docs/noise.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.instruction import Instruction
from repro.compiler.passes.base import CompilerPass
from repro.ir import CircuitIR

__all__ = ["GateSlot", "Schedule", "SchedulingPass", "asap_schedule"]


@dataclass(frozen=True)
class GateSlot:
    """Start/duration assignment of one instruction."""

    #: Position of the instruction in the circuit's gate list.
    index: int
    qubits: Tuple[int, ...]
    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class Schedule:
    """ASAP schedule of a circuit: per-gate slots plus the makespan."""

    slots: Tuple[GateSlot, ...]
    #: Critical-path completion time (max slot end; 0.0 for an empty circuit).
    makespan: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "makespan": self.makespan,
            "slots": [
                {
                    "index": slot.index,
                    "qubits": list(slot.qubits),
                    "start": slot.start,
                    "duration": slot.duration,
                }
                for slot in self.slots
            ],
        }


def asap_schedule(
    circuit: Union[QuantumCircuit, CircuitIR],
    duration_of: Callable[[Instruction], float],
) -> Schedule:
    """Earliest-start schedule of ``circuit`` under ``duration_of``.

    Instructions are visited in program order; each starts at the max ready
    time of its qubits and advances those ready times to its end.  Program
    order is a linear extension of the dependency DAG, so every start time
    respects all data dependencies and no two slots overlap on a qubit.
    """
    ready: Dict[int, float] = {}
    slots: List[GateSlot] = []
    makespan = 0.0
    for index, instruction in enumerate(circuit):
        qubits = tuple(instruction.qubits)
        start = max((ready.get(q, 0.0) for q in qubits), default=0.0)
        duration = float(duration_of(instruction))
        if duration < 0.0:
            raise ValueError(
                f"negative duration {duration!r} for instruction {index}"
            )
        end = start + duration
        for q in qubits:
            ready[q] = end
        if end > makespan:
            makespan = end
        slots.append(GateSlot(index=index, qubits=qubits, start=start, duration=duration))
    return Schedule(slots=tuple(slots), makespan=makespan)


def _calibrated_duration_model(
    target, isa: Optional[str]
) -> Callable[[Instruction], float]:
    """Target duration model with calibrated 2Q edge durations layered on top.

    Edge durations are expressed in units of the baseline CNOT pulse length
    (see :meth:`CalibrationData.seeded`), so they are scaled by the target's
    ``cnot_duration`` before replacing the analytic 2Q cost.
    """
    base = target.duration_model(isa)
    calibration = getattr(target, "calibration", None)
    if calibration is None:
        return base
    unit = target.cnot_duration

    def duration_of(instruction: Instruction) -> float:
        qubits = instruction.qubits
        if len(qubits) == 2 and calibration.has_edge(qubits[0], qubits[1]):
            return calibration.edge(qubits[0], qubits[1]).duration * unit
        return base(instruction)

    return duration_of


class SchedulingPass(CompilerPass):
    """Attach an ASAP schedule + makespan to the property set.

    The program itself is untouched (identity on gates), so the pass can be
    appended to any pipeline without disturbing downstream stages.
    """

    name = "schedule"

    def __init__(self, target, isa: Optional[str] = None) -> None:
        self.target = target
        self.isa = isa

    def run(self, ir: CircuitIR, properties: Dict[str, Any]) -> None:
        duration_of = _calibrated_duration_model(self.target, self.isa)
        schedule = asap_schedule(ir, duration_of)
        properties["schedule"] = schedule
        properties["makespan"] = schedule.makespan
