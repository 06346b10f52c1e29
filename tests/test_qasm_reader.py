"""Tests for the two tiers of :func:`repro.qasm.parse`.

``parse`` first offers the text to the straight-line reader and falls back
to the recursive-descent parser when the reader returns ``None``.  The
contract: on every text the reader accepts, it builds the program the
parser would (names, qubits, registers, the exact bits of every
parameter); every error still comes from the parser, with its message,
line and column; and ``dumps()`` output, the daemon's common input, takes
the reader.  Also here: line breaks (CR LF, CR, LF) and the intake caps
(``max_qubits`` at the ``qreg``, the gate-macro expansion bound).
"""

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.qasm import QasmError, QubitCapError, dumps, loads, parse
from repro.qasm.parser import _BUILTINS, _MAX_MACRO_GATES, _Parser, _read_straight_line
from repro.workloads.suite import benchmark_suite


def _summary(program):
    return (
        [
            (inst.gate.name, inst.qubits, [param.hex() for param in inst.gate.params])
            for inst in program.circuit
        ],
        program.circuit.num_qubits,
        program.qregs,
        program.cregs,
        program.measurements,
        program.barriers,
    )


def _outcome(read, text):
    """What ``read(text)`` gives: the program summary or the error's position."""
    try:
        return _summary(read(text))
    except QasmError as exc:
        return ("error", exc.message, exc.line, exc.column)


def _parser(text):
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Generated straight-line programs: the reader takes them, bit-identically.
# ---------------------------------------------------------------------------

_SHAPES = sorted((name, n_params, arity) for name, (n_params, arity, _) in _BUILTINS.items())
_SHAPES += [(f"mcx_{k}", 0, k + 1) for k in (1, 2, 3)]

_LITERALS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(
        ["-0.0", "0", "-0", "1e-05", ".5", "5.", "+1.5", "-.25e+2", "1E3", "007", "3.", "2.5e-300"]
    ),
)
_HEADER_LINES = [
    'include "qelib1.inc";',
    "opaque can(x,y,z) a,b;",
    "opaque mcx_3 q0,q1,q2,q3;",
    "opaque iswap a , b ;",
    "opaque foo() a;",
    "// a comment; with (symbols) [1]",
    "//",
]
_SPACE = st.sampled_from(["", " ", "\t"])


@st.composite
def straight_line_programs(draw):
    size = draw(st.integers(1, 6))
    register = draw(st.sampled_from(["q", "reg", "q0", "Q_1"]))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = []
    if draw(st.booleans()):
        lines.append("OPENQASM 2.0;")
    lines += draw(st.lists(st.sampled_from(_HEADER_LINES), max_size=3))
    lines.append(f"qreg {register}[{size}];")
    shapes = [shape for shape in _SHAPES if shape[2] <= size]
    for _ in range(draw(st.integers(0, 10))):
        name, n_params, arity = draw(st.sampled_from(shapes))
        qubits = draw(st.permutations(range(size)))[:arity]
        sp = draw(_SPACE)
        args = f"{sp},{sp}".join(f"{register}[{sp}{q}{sp}]" for q in qubits)
        if n_params:
            literals = draw(st.lists(_LITERALS, min_size=n_params, max_size=n_params))
            statement = f"{name}{sp}({sp}{f'{sp},{sp}'.join(literals)}{sp}){sp}{args}{sp};"
        else:
            statement = f"{name}{draw(st.sampled_from([' ', chr(9), '  ']))}{args};"
        if draw(st.booleans()):
            statement += draw(st.sampled_from([" // trailing", "\t//x;y"]))
        lines.append(statement)
    return eol.join(lines) + draw(st.sampled_from(["", eol, eol + eol]))


@settings(max_examples=200, deadline=None)
@given(straight_line_programs())
def test_reader_builds_the_parsers_program(text):
    assert _read_straight_line(text, "qasm") is not None
    assert _outcome(parse, text) == _outcome(_parser, text)


def test_reader_takes_negative_zero_and_short_literals_bit_exactly():
    text = "qreg q[1];\nu3(-0.0, .5, 5.) q[0];\nrz(1e-05) q[0];\n"
    program = _read_straight_line(text, "qasm")
    assert program is not None
    params = [inst.gate.params for inst in program.circuit]
    assert [[p.hex() for p in ps] for ps in params] == [
        [(-0.0).hex(), (0.5).hex(), (5.0).hex()],
        [(1e-05).hex()],
    ]
    assert _summary(program) == _summary(_parser(text))


# ---------------------------------------------------------------------------
# Mutated dumps() output: same program or same error on both paths.
# ---------------------------------------------------------------------------


def _mutation_base():
    circuit = QuantumCircuit(4, "mutants")
    circuit.h(0)
    circuit.u3(-1.25, 0.5, 3.0e-7, 1)
    circuit.rz(-0.0, 2)
    circuit.cx(0, 3)
    circuit.can(0.1, -0.2, 0.3, 1, 2)
    circuit.ryy(2.5, 0, 1)
    circuit.mcx([0, 1], 2)
    circuit.ccx(3, 2, 1)
    return dumps(circuit)


_BASE = _mutation_base()
_INSERTS = list(";()[],-.eE\r\n") + ["a", "q", "x", " ", "/"]


@settings(max_examples=400, deadline=None)
@given(
    position=st.integers(0, len(_BASE)),
    kind=st.sampled_from(["delete", "insert", "replace"]),
    char=st.sampled_from(_INSERTS),
)
def test_single_character_mutations_agree_on_both_paths(position, kind, char):
    if kind == "delete":
        text = _BASE[:position] + _BASE[position + 1 :]
    elif kind == "insert":
        text = _BASE[:position] + char + _BASE[position:]
    else:
        text = _BASE[:position] + char + _BASE[position + 1 :]
    # Anything but a QasmError escapes _outcome and fails the test.
    assert _outcome(parse, text) == _outcome(_parser, text)


def test_dumps_output_of_every_suite_program_takes_the_reader():
    for scale in ("small", "medium"):
        for case in benchmark_suite(scale=scale):
            text = dumps(case.circuit)
            program = _read_straight_line(text, case.name)
            assert program is not None, f"{case.name} ({scale}) fell back to the parser"
            assert _summary(program) == _summary(_parser(text))


@pytest.mark.parametrize(
    "text",
    [
        "qreg q[2];\ncreg c[2];\nh q[0];\n",
        "qreg q[2];\nh q[0];\nmeasure q[0] -> c[0];\n",
        "qreg q[2];\nbarrier q[0],q[1];\n",
        "qreg q[2];\ngate g a { h a; }\ng q[0];\n",
        "qreg q[1];\nrz(pi/2) q[0];\n",
        "qreg q[2];\nh q;\n",
        "qreg q[1];\nqreg r[1];\ncx q[0],r[0];\n",
        "qreg q[1];\nfoo q[0];\n",
        "qreg q[1];\nrz(0.1,0.2) q[0];\n",
        "qreg q[1];\nrz q[0];\n",
        "qreg q[2];\ncx q[0];\n",
        "qreg q[2];\nh q[2];\n",
        "qreg q[2];\ncx q[1],q[1];\n",
        "qreg q[1];\nrz(1e999) q[0];\n",
        "qreg q[0];\n",
        "qreg q[1];\nrz(--1) q[0];\n",
        "qreg q[1];\nrz(1.5.5) q[0];\n",
        "qreg q[1];\nrz(1e) q[0];\n",
        "qreg q[1];\nhq[0];\n",
        "qreg q[1];\nh q[0]\n",
        "qreg q[1];\nmcx q[0];\n",
        "qreg q[2];\nmcx_1 q[0];\n",
        "qreg q[1];\nh q[0]; @\n",
        "OPENQASM 3.0;\nqreg q[1];\n",
        "h q[0];\nqreg q[1];\n",
        "// repro.unitary note\nqreg q[1];\nh q[0];\n",
        "qreg q[1];\nh\fq[0];\n",
        "qreg q[1];\nh q[١];\n",
    ],
)
def test_reader_declines_what_it_does_not_own(text):
    assert _read_straight_line(text, "qasm") is None
    assert _outcome(parse, text) == _outcome(_parser, text)


@pytest.mark.parametrize(
    "text",
    [
        "//" * 40 + "\nfoo q[0];\n",
        "// a //" * 20000 + "\nfoo q[0];\n",
        'include "a";' * 20000 + "x",
        "qreg q[1];\nh" + " " * 100000 + "x",
        "qreg q[1];\nrz(" + "1," * 50000 + "x",
        "qreg q[2];\ncx q[0]" + ", q[1]" * 30000 + "x",
    ],
    ids=["slashes", "comment-of-comments", "includes", "spaces", "literals", "arguments"],
)
def test_reader_declines_adversarial_text_in_linear_time(text):
    start = time.monotonic()
    assert _read_straight_line(text, "qasm") is None
    assert time.monotonic() - start < 0.5
    with pytest.raises(QasmError):
        parse(text)


# ---------------------------------------------------------------------------
# Line breaks: CR LF, CR and LF each end one line.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("read", [loads, lambda text: _Parser(text).parse().circuit])
def test_a_comment_ends_at_a_lone_cr(read):
    text = "OPENQASM 2.0;\rqreg q[2];\rh q[0];\r// note\rcx q[0],q[1];\r"
    assert [inst.gate.name for inst in read(text)] == ["h", "cx"]
    first = "// note\rOPENQASM 2.0;\rqreg q[2];\rh q[0];\r"
    assert [inst.gate.name for inst in read(first)] == ["h"]


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
def test_error_lines_count_every_kind_of_line_break(eol):
    text = eol.join(["OPENQASM 2.0;", "qreg q[1];", "// note", "  foo q[0];"])
    with pytest.raises(QasmError) as excinfo:
        loads(text)
    assert (excinfo.value.line, excinfo.value.column) == (4, 3)
    assert "unknown gate 'foo'" in excinfo.value.message


def test_unitary_pragmas_are_found_on_the_lexers_lines():
    # U+0085 breaks a line for str.splitlines() but not for the lexer, so
    # the pragma-shaped text after it is part of an ordinary comment.
    text = "// note\x85// repro.unitary ru0 su4 00\nqreg q[1];\nh q[0];\n"
    assert [inst.gate.name for inst in loads(text)] == ["h"]
    broken = "qreg q[1];\r// repro.unitary ru0 su4 00\rh q[0];\r"
    with pytest.raises(QasmError) as excinfo:
        loads(broken)
    assert excinfo.value.line == 2 and "payload is 1 bytes" in excinfo.value.message


# ---------------------------------------------------------------------------
# Intake caps.
# ---------------------------------------------------------------------------


def test_max_qubits_refuses_the_qreg_before_any_gate():
    start = time.monotonic()
    with pytest.raises(QubitCapError) as excinfo:
        parse("qreg q[100000000]; h q;", max_qubits=64)
    assert time.monotonic() - start < 0.1
    error = excinfo.value
    assert isinstance(error, QasmError)
    assert (error.num_qubits, error.max_qubits) == (100000000, 64)
    assert (error.line, error.column) == (1, 8)
    # Registers add up; the one that crosses the cap is refused.
    with pytest.raises(QubitCapError) as excinfo:
        loads("qreg a[40];\nqreg b[30];\nh a[0];\n", max_qubits=64)
    assert (excinfo.value.num_qubits, excinfo.value.line) == (70, 2)
    # At the cap, on either path, the program is read.
    assert loads("qreg q[64];\nh q[63];\n", max_qubits=64).num_qubits == 64
    assert loads("qreg q[64];\nh q;\n", max_qubits=64).num_qubits == 64
    assert loads("qreg q[100];\nh q[0];\n").num_qubits == 100


def _doubling_macros(levels):
    lines = ["OPENQASM 2.0;", "qreg q[1];", "gate g0 a { h a; }"]
    lines += [f"gate g{k} a {{ g{k - 1} a; g{k - 1} a; }}" for k in range(1, levels + 1)]
    lines.append(f"g{levels} q[0];")
    return "\n".join(lines) + "\n"


def test_macro_expansion_is_bounded_before_it_expands():
    assert len(loads(_doubling_macros(4))) == 16
    start = time.monotonic()
    with pytest.raises(QasmError) as excinfo:
        loads(_doubling_macros(40))
    assert time.monotonic() - start < 0.5
    assert f"more than {_MAX_MACRO_GATES} instructions" in excinfo.value.message
    assert excinfo.value.line == 44
    # The bound counts every application of the program, broadcasts included.
    text = _doubling_macros(19).replace("qreg q[1];", "qreg q[2];").replace("q[0];\n", "q;\n")
    with pytest.raises(QasmError, match="more than"):
        loads(text)
