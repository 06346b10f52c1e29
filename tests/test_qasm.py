"""Tests for the :mod:`repro.qasm` OpenQASM 2 interchange layer.

The load-bearing invariant (gated in CI alongside the BENCH bit-identity
checks): ``from_qasm(to_qasm(c))`` is gate-for-gate identical — names,
qubits, exact parameter floats — for every circuit in the benchmark suite
at every scale, and compiling the imported twin is bit-identical to
compiling the original.
"""

import io
import math
import sys

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.gates.gate import Gate
from repro.linalg.random import haar_random_unitary
from repro.qasm import QasmError, dump, dumps, load, loads, parse
from repro.workloads.suite import benchmark_suite

from circuit_helpers import circuits_bit_identical

# ---------------------------------------------------------------------------
# Corpus round-trip identity (the acceptance-criterion property test).
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scale", ["tiny", "small", "medium"])
def test_round_trip_identity_over_benchmark_suite(scale):
    for case in benchmark_suite(scale=scale):
        text = dumps(case.circuit)
        back = loads(text)
        assert back.num_qubits == case.circuit.num_qubits, case.name
        assert back.instructions == case.circuit.instructions, (
            f"{case.name} at scale={scale} did not round-trip gate-for-gate"
        )


@pytest.mark.parametrize("scale", ["tiny", "small", "medium"])
def test_round_trip_parameters_within_tolerance(scale):
    # Exact equality is asserted above; this spells out the documented
    # 1e-12 contract independently of float-repr behavior.
    for case in benchmark_suite(scale=scale):
        back = loads(dumps(case.circuit))
        for original, parsed in zip(case.circuit, back):
            assert parsed.gate.name == original.gate.name
            assert parsed.qubits == original.qubits
            assert len(parsed.gate.params) == len(original.gate.params)
            for a, b in zip(original.gate.params, parsed.gate.params):
                assert abs(a - b) <= 1e-12


def test_dumps_is_deterministic_and_idempotent():
    case = benchmark_suite(scale="tiny", categories=["qft"])[0]
    text = dumps(case.circuit)
    assert text == dumps(case.circuit)
    assert text == dumps(loads(text))


@pytest.mark.parametrize("compiler", ["reqisc-eff", "qiskit-like"])
def test_compiling_imported_twin_is_bit_identical(compiler):
    from repro.target.api import compile as target_compile

    for case in benchmark_suite(scale="tiny", categories=["qft", "tof"]):
        twin = loads(dumps(case.circuit))
        original_result = target_compile(case.circuit, spec=compiler, seed=0)
        twin_result = target_compile(twin, spec=compiler, seed=0)
        assert circuits_bit_identical(original_result.circuit, twin_result.circuit), (
            f"{case.name}: compiled QASM twin differs from compiled original"
        )


def test_compiled_output_round_trips():
    # `--emit qasm` serializes compiled circuits; the SU(4) ISA output
    # (can/u3) must survive the round trip too.
    from repro.target.api import compile as target_compile

    case = benchmark_suite(scale="tiny", categories=["qft"])[0]
    compiled = target_compile(case.circuit, spec="reqisc-eff", seed=0).circuit
    assert loads(dumps(compiled)).instructions == compiled.instructions


# ---------------------------------------------------------------------------
# Emitter details.
# ---------------------------------------------------------------------------


def test_unitary_gate_round_trips_bit_exact():
    circuit = QuantumCircuit(3)
    matrix = haar_random_unitary(4, 11)
    circuit.h(0)
    circuit.unitary(matrix, [2, 0], label="su4")
    circuit.unitary(matrix, [1, 2], label="su4")  # same block reused
    circuit.unitary(haar_random_unitary(2, 3), [1], label="blk")
    text = dumps(circuit)
    # One pragma per distinct (label, matrix) pair.
    assert text.count("// repro.unitary") == 2
    back = loads(text)
    assert back.instructions == circuit.instructions
    assert np.array_equal(back[1].gate.matrix, matrix)


def test_mcx_emitted_as_declared_per_arity_symbols():
    circuit = QuantumCircuit(5)
    circuit.mcx([0, 1, 2, 3], 4)
    circuit.mcx([1], 0)
    text = dumps(circuit)
    # Every emitted symbol is declared, so external parsers see well-formed
    # OpenQASM 2; the importer maps mcx_<k> back onto mcx_gate(k).
    assert "opaque mcx_4 q0,q1,q2,q3,q4;" in text
    assert "opaque mcx_1 q0,q1;" in text
    assert "mcx_4 q[0],q[1],q[2],q[3],q[4];" in text
    assert "mcx_1 q[1],q[0];" in text
    back = loads(text)
    assert back.instructions == circuit.instructions
    assert back[0].gate.params == (4.0,)


def test_bare_variadic_mcx_still_imports():
    circuit = loads("qreg q[4];\nmcx q[0],q[1],q[2],q[3];")
    assert circuit[0].gate.name == "mcx"
    assert circuit[0].gate.params == (3.0,)


def test_every_emitted_symbol_is_declared_or_qelib1():
    # The interop contract behind the opaque declarations: an external
    # OpenQASM 2 parser must find a declaration for every applied gate.
    import re

    from repro.qasm.emitter import _QELIB1_NAMES

    circuit = QuantumCircuit(5)
    circuit.mcx([0, 1, 2], 3).can(0.1, 0.2, 0.3, 0, 1).iswap(1, 2).h(0).ccz(0, 1, 2)
    declared = set()
    applied = []
    for line in dumps(circuit).splitlines():
        if line.startswith("opaque "):
            declared.add(line.split()[1].split("(")[0])
        elif line and not line.startswith(("//", "OPENQASM", "include", "qreg")):
            applied.append(re.match(r"[A-Za-z_][A-Za-z0-9_]*", line).group(0))
    for name in applied:
        assert name in declared or name in _QELIB1_NAMES, name


def test_extension_gates_get_opaque_declarations():
    circuit = QuantumCircuit(2)
    circuit.can(0.1, 0.2, 0.3, 0, 1).iswap(0, 1).b(0, 1)
    text = dumps(circuit)
    assert "opaque can(x,y,z) a,b;" in text
    assert "opaque iswap a,b;" in text
    assert "opaque b a,b;" in text
    assert loads(text).instructions == circuit.instructions


def test_dump_and_load_files(tmp_path):
    circuit = QuantumCircuit(2, name="ignored")
    circuit.h(0).cx(0, 1)
    path = tmp_path / "bell_pair.qasm"
    dump(circuit, path)
    back = load(path)
    assert back.name == "bell_pair"  # named after the file stem
    assert back.instructions == circuit.instructions
    # File-like objects work too.
    buffer = io.StringIO()
    dump(circuit, buffer)
    assert loads(buffer.getvalue()).instructions == circuit.instructions


def test_dumps_rejects_unserializable_gate():
    from repro.gates.gate import Gate

    circuit = QuantumCircuit(2)
    circuit.append(Gate("sqisw", 2), [0, 1])  # serializable
    circuit.sqisw(0, 1)
    assert loads(dumps(circuit)).instructions == circuit.instructions
    weird = QuantumCircuit(1)
    weird.append(Gate("mystery", 1, (), matrix=np.eye(2)), [0])
    with pytest.raises(QasmError, match="no QASM serialization"):
        dumps(weird)


@pytest.mark.parametrize(
    "gate",
    [
        ("rx", 1, ()),
        ("x", 2, ()),
        ("can", 2, (0.1,)),
        ("cx", 2, (0.3,)),
        ("ccx", 2, ()),
        ("mcx", 3, ()),
        ("mcx", 1, (0.0,)),
    ],
    ids=lambda gate: f"{gate[0]}-{gate[1]}q-{len(gate[2])}p",
)
def test_dumps_rejects_gate_shapes_loads_would_refuse(gate):
    name, arity, params = gate
    circuit = QuantumCircuit(3)
    circuit.append(Gate(name, arity, params), list(range(arity)))
    with pytest.raises(QasmError):
        dumps(circuit)


def _all_gates_circuit():
    """One application of every ``GATES`` row, plus an ``mcx``."""
    from repro.gates.standard import GATES

    circuit = QuantumCircuit(4)
    for index, (name, spec) in enumerate(GATES.items()):
        params = [0.125 * (k + 1) for k in range(len(spec.params))]
        circuit.append(Gate(name, spec.arity, params), [(index + k) % 4 for k in range(spec.arity)])
    circuit.mcx([0, 1, 2], 3)
    return circuit


#: ``dumps`` header of :func:`_all_gates_circuit`: the extension-gate notes
#: and ``opaque`` declarations external parsers rely on.
_ALL_GATES_HEADER = """\
OPENQASM 2.0;
include "qelib1.inc";
// b = Can(pi/4, pi/8, 0) (the Berkeley gate)
// can(x,y,z) = exp(-i (x XX + y YY + z ZZ)); the ReQISC SU(4) primitive
// ccz = doubly-controlled Z
// cv = controlled-sqrt(X); cvdg is its adjoint
// cvdg = adjoint of cv
// iswap = the iSWAP gate
// mcx_<k> = multi-controlled X with k controls (controls first, target last)
// ryy(theta) = exp(-i theta YY / 2)
// sqisw = sqrt(iSWAP)
opaque b a,b;
opaque can(x,y,z) a,b;
opaque ccz a,b,c;
opaque cv a,b;
opaque cvdg a,b;
opaque iswap a,b;
opaque ryy(theta) a,b;
opaque sqisw a,b;
opaque mcx_3 q0,q1,q2,q3;
qreg q[4];
"""


def test_all_gates_header_is_stable_and_round_trips():
    circuit = _all_gates_circuit()
    text = dumps(circuit)
    assert text.startswith(_ALL_GATES_HEADER)
    assert len(text.splitlines()) == len(_ALL_GATES_HEADER.splitlines()) + len(circuit)
    back = loads(text)
    assert circuits_bit_identical(back, circuit)


# ---------------------------------------------------------------------------
# Importer: language coverage.
# ---------------------------------------------------------------------------


def test_parameter_expressions():
    text = """
    OPENQASM 2.0;
    qreg q[1];
    rz(pi/2) q[0];
    rz(-pi/4) q[0];
    rz(2*pi/3) q[0];
    rz(3 - 1.5e0) q[0];
    rz(2^3) q[0];
    rz(-2^2) q[0];
    rz(sin(pi/6)) q[0];
    rz(sqrt(4)) q[0];
    rz(ln(exp(1))) q[0];
    rz((1 + 2) * 3) q[0];
    """
    params = [instr.gate.params[0] for instr in loads(text)]
    assert params[0] == pytest.approx(math.pi / 2, abs=1e-15)
    assert params[1] == pytest.approx(-math.pi / 4, abs=1e-15)
    assert params[2] == pytest.approx(2 * math.pi / 3, abs=1e-15)
    assert params[3] == pytest.approx(1.5)
    assert params[4] == pytest.approx(8.0)
    assert params[5] == pytest.approx(-4.0)  # unary minus binds looser than ^
    assert params[6] == pytest.approx(0.5)
    assert params[7] == pytest.approx(2.0)
    assert params[8] == pytest.approx(1.0)
    assert params[9] == pytest.approx(9.0)


def test_register_broadcast():
    text = """
    qreg q[3];
    qreg r[3];
    h q;
    cx q, r;
    cx q[1], r;
    """
    circuit = loads(text)
    ops = [(i.gate.name, i.qubits) for i in circuit]
    assert ops[:3] == [("h", (0,)), ("h", (1,)), ("h", (2,))]
    assert ops[3:6] == [("cx", (0, 3)), ("cx", (1, 4)), ("cx", (2, 5))]
    assert ops[6:] == [("cx", (1, 3)), ("cx", (1, 4)), ("cx", (1, 5))]


def test_gate_macros_inline_with_parameters():
    text = """
    OPENQASM 2.0;
    gate rot(theta, phi) a { rz(theta) a; rx(phi/2) a; }
    gate double(t) a, b { rot(t, 2*t) a; rot(-t, t) b; }
    qreg q[2];
    double(pi) q[0], q[1];
    """
    circuit = loads(text)
    ops = [(i.gate.name, i.qubits, i.gate.params[0]) for i in circuit]
    assert ops == [
        ("rz", (0,), pytest.approx(math.pi)),
        ("rx", (0,), pytest.approx(math.pi)),
        ("rz", (1,), pytest.approx(-math.pi)),
        ("rx", (1,), pytest.approx(math.pi / 2)),
    ]


def test_qelib1_style_inline_definitions_resolve_natively():
    # Files that textually paste qelib1.inc define standard gates as
    # macros; the built-in semantics win so such files stay round-trip
    # exact (the body is parsed and validated, then discarded).
    text = """
    qreg q[2];
    gate majority a,b,c { cx c,b; cx c,a; ccx a,b,c; }
    gate h a { u2(0, pi) a; }
    h q[0];
    cx q[0], q[1];
    """
    circuit = loads(text)
    assert [i.gate.name for i in circuit] == ["h", "cx"]
    assert circuit[0].gate.params == ()


def test_aliases_map_to_native_gates():
    text = """
    qreg q[4];
    u1(0.5) q[0];
    cu1(0.25) q[0], q[1];
    u(0.1, 0.2, 0.3) q[0];
    u2(0.4, 0.5) q[1];
    c3x q[0], q[1], q[2], q[3];
    """
    circuit = loads(text)
    names = [i.gate.name for i in circuit]
    assert names == ["p", "cp", "u3", "u3", "mcx"]
    assert circuit[3].gate.params == (math.pi / 2, 0.4, 0.5)
    assert circuit[4].gate.params == (3.0,)


def test_measure_barrier_creg_passthrough():
    program = parse(
        """
        qreg q[2];
        creg c[2];
        h q[0];
        barrier q[0], q[1];
        measure q -> c;
        measure q[1] -> c[0];
        """
    )
    assert [i.gate.name for i in program.circuit] == ["h"]
    assert program.cregs == {"c": 2}
    assert program.barriers == [(0, 1)]
    assert program.measurements == [(0, "c", 0), (1, "c", 1), (1, "c", 0)]


def test_multiple_qregs_flatten_in_declaration_order():
    circuit = loads("qreg a[2];\nqreg b[3];\nx a[1];\nx b[0];\n")
    assert circuit.num_qubits == 5
    assert [i.qubits for i in circuit] == [(1,), (2,)]


def test_opaque_declaration_without_application_is_fine():
    circuit = loads("opaque magic a,b;\nqreg q[1];\nh q[0];")
    assert len(circuit) == 1


# ---------------------------------------------------------------------------
# Importer: error reporting (line/column contract).
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, line, column, fragment",
    [
        ("qreg q[2];\nfoo q[0];", 2, 1, "unknown gate"),
        ("qreg q[1];\nh q[3];", 2, 3, "out of range"),
        ("OPENQASM 3.0;\nqreg q[1];", 1, 10, "unsupported OpenQASM version"),
        ("qreg q[2];\nrx q[0];", 2, 1, "takes 1 parameter"),
        ("qreg q[2];\nrx(0.1, 0.2) q[0];", 2, 1, "takes 1 parameter"),
        ("qreg q[2];\ncx q[0];", 2, 1, "acts on 2 qubit"),
        ("qreg q[2];\ncx q[0],q[0];", 2, 1, "duplicate qubits"),
        ("qreg q[1];\nreset q[0];", 2, 1, "not supported"),
        ("qreg q[1];\ncreg c[1];\nif (c == 1) x q[0];", 3, 1, "not supported"),
        ("qreg q[1];\nh q[0]", 2, 7, "expected ';'"),
        ("qreg q[2];\nh p[0];", 2, 3, "unknown quantum register"),
        ("qreg q[1];\nmeasure q[0] -> c[0];", 2, 17, "unknown classical register"),
        ("qreg q[2];\nrx(pi/0) q[0];", 2, 6, "division by zero"),
        ("qreg q[2];\nrx(theta) q[0];", 2, 4, "undefined parameter"),
        ("qreg q[2];\nrx(sqrt(-1)) q[0];", 2, 4, "invalid parameter expression"),
        ("qreg q[1];\n$ q[0];", 2, 1, "illegal character"),
        ("qreg q[2];\nqreg q[2];", 2, 6, "already declared"),
        ("gate g a { h b; }\nqreg q[1];", 1, 14, "unknown qubit argument"),
        ("gate g(x) a { rz(y) a; }\nqreg q[1];", 1, 18, "undefined parameter"),
        ("gate g a { zz a; }\nqreg q[1];", 1, 12, "unknown gate"),
        ("creg c[1];", None, None, "declares no qubit register"),
        ("qreg q[3];\nqreg r[2];\ncx q, r;", 3, 1, "mismatched register sizes"),
    ],
)
def test_errors_carry_line_and_column(text, line, column, fragment):
    with pytest.raises(QasmError) as excinfo:
        loads(text)
    error = excinfo.value
    assert fragment in str(error)
    assert error.line == line
    assert error.column == column


def test_qasm_error_is_a_value_error_with_position_in_message():
    with pytest.raises(ValueError, match=r"line 2, column 1"):
        loads("qreg q[1];\nwat q[0];")


def test_load_attaches_filename_to_errors(tmp_path):
    path = tmp_path / "broken.qasm"
    path.write_text("qreg q[1];\nnope q[0];\n")
    with pytest.raises(QasmError) as excinfo:
        load(path)
    assert excinfo.value.filename == str(path)
    assert str(path) in str(excinfo.value)
    assert excinfo.value.line == 2


def test_opaque_application_without_unitary_raises():
    text = "opaque magic a,b;\nqreg q[2];\nmagic q[0],q[1];"
    with pytest.raises(QasmError, match="has no known unitary"):
        loads(text)


def test_comments_mentioning_the_pragma_stay_inert():
    # QASM comments are inert: prose that merely mentions the pragma name
    # must not be parsed as one.
    for comment in (
        "// repro.unitary pragmas carry exact matrix bytes",
        "// repro.unitary is a pragma",
        "// repro.unitary ru0 su4 nothex",
        "// repro.unitaryish blah 00",  # prefix needs a token boundary
    ):
        circuit = loads(f"{comment}\nqreg q[1];\nh q[0];")
        assert len(circuit) == 1


def test_truncated_unitary_pragma_raises():
    # Machine-shaped pragma whose payload is hex but not whole complex128
    # entries: almost certainly a corrupted emitted file — clear QasmError,
    # not a raw numpy buffer error.
    text = "// repro.unitary ru0 su4 abcd\nqreg q[1];\nh q[0];"
    with pytest.raises(QasmError, match="complex128"):
        loads(text)


def test_exotic_expression_errors_are_qasm_errors():
    # ** raising (0^-1) must surface as QasmError, not ZeroDivisionError.
    with pytest.raises(QasmError, match="invalid parameter expression"):
        loads("qreg q[1];\nrx(0^-1) q[0];")
    # A non-finite mcx control count is not an OverflowError/ValueError.
    for literal in ("1e999", "1e999-1e999"):
        with pytest.raises(QasmError, match="expects 1 controls"):
            loads(f"qreg q[2];\nmcx({literal}) q[0],q[1];")


@pytest.mark.parametrize(
    "text",
    [
        "qreg q[" + "1" * 5000 + "];",
        "qreg q[2];\nh q[" + "0" * 5000 + "];",
        "qreg q[3];\nmcx_" + "1" * 5000 + " q[0],q[1];",
    ],
    ids=["register-size", "index", "mcx-controls"],
)
@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="int() has no digit limit here"
)
def test_numbers_past_the_int_digit_limit_are_qasm_errors(text):
    with pytest.raises(QasmError, match="5000 digits is too long"):
        loads(text)


def test_leading_dot_reals_lex():
    circuit = loads("qreg q[1];\nrx(.5e1) q[0];\nrx(.25) q[0];")
    assert circuit[0].gate.params == (5.0,)
    assert circuit[1].gate.params == (0.25,)


def test_recursive_macros_are_impossible():
    # Declaration-before-use: a macro body can only call gates that already
    # resolve, so self-reference is reported as an unknown gate.
    text = "gate g a { g a; }\nqreg q[1];"
    with pytest.raises(QasmError, match="unknown gate 'g'"):
        loads(text)


# ---------------------------------------------------------------------------
# Convenience entry points.
# ---------------------------------------------------------------------------


def test_quantum_circuit_to_from_qasm_methods(tmp_path):
    circuit = QuantumCircuit(2)
    circuit.h(0).cx(0, 1).rz(0.25, 1)
    text = circuit.to_qasm()
    back = QuantumCircuit.from_qasm(text)
    assert back.instructions == circuit.instructions
    path = tmp_path / "pair.qasm"
    path.write_text(text)
    from_file = QuantumCircuit.from_qasm_file(path)
    assert from_file.instructions == circuit.instructions
    assert from_file.name == "pair"


def test_example_fixtures_parse_and_compile():
    import glob
    import os

    from repro.target.api import compile as target_compile

    fixtures = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "examples", "*.qasm")))
    assert len(fixtures) >= 2, "examples/*.qasm fixtures are part of the CI smoke contract"
    for fixture in fixtures:
        circuit = load(fixture)
        assert len(circuit) > 0
        compiled = target_compile(circuit, spec="reqisc-eff", seed=0)
        assert loads(dumps(compiled.circuit)).instructions == compiled.circuit.instructions


def test_complex_valued_power_expression_is_qasm_error():
    # (-2)^0.5 is complex in Python; it must surface as QasmError with a
    # position, not a downstream TypeError.
    with pytest.raises(QasmError, match="complex value"):
        loads("qreg q[1];\nrx((0-2)^0.5) q[0];")


def test_dumps_formats_parameters_that_are_not_plain_floats():
    circuit = QuantumCircuit(1)
    circuit.rz(0.25, 0).rz(0.5, 0)
    circuit.instructions[0].gate.params = (np.float64(0.1),)  # a float subclass
    circuit.instructions[1].gate.params = (3,)  # an int, converted as before
    assert dumps(circuit).splitlines()[-2:] == ["rz(0.1) q[0];", "rz(3.0) q[0];"]
    for bad in (math.inf, -math.inf, math.nan):
        circuit.instructions[1].gate.params = (bad,)
        with pytest.raises(QasmError, match="non-finite"):
            dumps(circuit)
