"""ASAP scheduling invariants (repro.compiler.passes.schedule).

The schedule must be a valid execution of the program: no two slots overlap
on a qubit, every start time respects the data dependencies implied by
program order, and the makespan is the latest slot end.  The pass variant
additionally layers calibrated 2Q edge durations over the target's analytic
duration model.
"""

from collections import defaultdict

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.compiler.passes.schedule import SchedulingPass, asap_schedule
from repro.target.api import compile as target_compile
from repro.target.target import resolve_target

from circuit_helpers import circuits_bit_identical, random_two_qubit_circuit, run_pass


def _assert_valid_schedule(circuit, schedule):
    assert len(schedule.slots) == len(circuit)
    # No overlap on any qubit: slots touching a qubit, sorted by start, must
    # tile without intersection.
    per_qubit = defaultdict(list)
    for slot in schedule.slots:
        for q in slot.qubits:
            per_qubit[q].append(slot)
    for q, slots in per_qubit.items():
        slots.sort(key=lambda slot: slot.start)
        for earlier, later in zip(slots, slots[1:]):
            assert later.start >= earlier.end - 1e-12, (q, earlier, later)
    # Dependencies: a slot must start at or after every earlier slot it
    # shares a qubit with (program order is a linear extension of the DAG).
    last_end = {}
    for slot in schedule.slots:
        for q in slot.qubits:
            if q in last_end:
                assert slot.start >= last_end[q] - 1e-12
            last_end[q] = slot.end
    expected_makespan = max((slot.end for slot in schedule.slots), default=0.0)
    assert schedule.makespan == pytest.approx(expected_makespan)


def test_asap_schedule_invariants_on_random_circuit():
    circuit = random_two_qubit_circuit(8, 200, seed=3)
    schedule = asap_schedule(circuit, lambda instruction: float(len(instruction.qubits)))
    _assert_valid_schedule(circuit, schedule)
    assert schedule.makespan > 0.0


def test_asap_schedule_parallel_gates_start_together():
    circuit = QuantumCircuit(4)
    circuit.cx(0, 1)
    circuit.cx(2, 3)  # disjoint qubits: same start time
    circuit.cx(1, 2)  # depends on both
    schedule = asap_schedule(circuit, lambda _: 2.0)
    assert schedule.slots[0].start == 0.0
    assert schedule.slots[1].start == 0.0
    assert schedule.slots[2].start == 2.0
    assert schedule.makespan == 4.0


def test_asap_schedule_empty_circuit_and_negative_duration():
    empty = asap_schedule(QuantumCircuit(2), lambda _: 1.0)
    assert empty.slots == ()
    assert empty.makespan == 0.0
    bad = QuantumCircuit(2).cx(0, 1)
    with pytest.raises(ValueError, match="negative duration"):
        asap_schedule(bad, lambda _: -1.0)


def test_schedule_to_dict_round_trip_shape():
    circuit = QuantumCircuit(2).h(0).cx(0, 1)
    schedule = asap_schedule(circuit, lambda _: 1.0)
    payload = schedule.to_dict()
    assert payload["makespan"] == schedule.makespan
    assert [slot["index"] for slot in payload["slots"]] == [0, 1]


def test_scheduling_pass_writes_properties_and_keeps_circuit():
    target = resolve_target("xy-line-4")
    schedule_pass = SchedulingPass(target)
    circuit = random_two_qubit_circuit(4, 40, seed=1)
    properties = {}
    out = run_pass(schedule_pass, circuit, properties)
    assert circuits_bit_identical(out, circuit)  # identity on gates
    _assert_valid_schedule(circuit, properties["schedule"])
    assert properties["makespan"] == properties["schedule"].makespan


def test_calibrated_edge_durations_override_analytic_model():
    target = resolve_target("xy-line-cal-4")
    plain = resolve_target("xy-line-4")
    circuit = QuantumCircuit(4)
    circuit.cx(0, 1)
    circuit.cx(1, 2)
    calibrated = SchedulingPass(target)
    analytic = SchedulingPass(plain)
    cal_props, plain_props = {}, {}
    run_pass(calibrated, circuit, cal_props)
    run_pass(analytic, circuit, plain_props)
    # The seeded calibration's heterogeneous edge durations must show up:
    # slot durations follow edge(q0, q1).duration * cnot_duration, not the
    # uniform analytic value.
    durations = [slot.duration for slot in cal_props["schedule"].slots]
    expected = [
        target.calibration.edge(0, 1).duration * target.cnot_duration,
        target.calibration.edge(1, 2).duration * target.cnot_duration,
    ]
    assert durations == pytest.approx(expected)
    assert durations != pytest.approx(
        [slot.duration for slot in plain_props["schedule"].slots]
    )


def test_schedule_stage_in_pipeline():
    """The registered 'schedule' pass factory runs end to end in a pipeline."""
    from repro.target import PipelineSpec, named_pipeline

    base = named_pipeline("reqisc-eff")
    spec_dict = base.to_dict()
    spec_dict["name"] = "reqisc-eff-scheduled"
    spec_dict["stages"].append({"pass": "schedule", "config": {}})
    spec = PipelineSpec.from_dict(spec_dict)
    circuit = QuantumCircuit(3)
    circuit.h(0)
    circuit.ccx(0, 1, 2)
    result = target_compile(
        circuit, target=resolve_target("xy-line-cal-3"), spec=spec, seed=0
    )
    schedule = result.properties["schedule"]
    _assert_valid_schedule(result.circuit, schedule)
    assert result.properties["makespan"] == schedule.makespan
