"""Recursive-descent importer for OpenQASM 2.0.

The grammar covered is the practical OpenQASM 2 subset used by benchmark
corpora (MQT Bench, QASMBench, Qiskit exports) and by this project's own
emitter:

* ``OPENQASM 2.0;`` header (optional) and ``include`` statements (the
  include file is not read; the qelib1 gate set is built in);
* ``qreg``/``creg`` declarations — multiple quantum registers are
  flattened onto one contiguous qubit index space in declaration order;
* gate applications over the built-in gate table (the qelib1 standard
  gates plus this project's extensions — see ``docs/qasm.md``), with full
  register broadcasting (``h q;``, ``cx q, r;``);
* parameter expressions: literals, ``pi``, ``+ - * / ^``, unary minus,
  parentheses and the qelib functions ``sin cos tan exp ln sqrt``;
* ``gate`` macro definitions, inlined at application time (definitions
  whose name collides with a built-in gate are parsed and ignored — the
  built-in semantics win, which keeps files that textually inline
  ``qelib1.inc`` round-trip exact);
* ``barrier`` and ``measure`` passthrough: both are validated and
  recorded on the returned :class:`QasmProgram` but do not appear in the
  circuit (the circuit IR is measurement-free);
* ``opaque`` declarations; applying an opaque gate with no known unitary
  raises :class:`QasmError` unless a ``// repro.unitary`` pragma supplies
  its matrix, in which case it becomes a
  :class:`~repro.gates.gate.UnitaryGate` (bit-exact round-trip for fused
  blocks).

Everything else (``reset``, ``if``) raises a :class:`QasmError` carrying
the 1-based source line/column.

:func:`parse` first offers the text to :func:`_read_straight_line`, a
one-regex reader for the straight-line subset :func:`~repro.qasm.dumps`
writes (one ``qreg``, literal parameters, indexed qubits).  It returns the
same program the parser would, or ``None`` for anything else, and then the
parser runs; every error therefore comes from the parser.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.instruction import Instruction
from repro.gates import standard
from repro.gates.gate import Gate, UnitaryGate
from repro.qasm.errors import QasmError, QubitCapError
from repro.qasm.lexer import Token, tokenize

__all__ = ["QasmProgram", "parse", "UNITARY_PRAGMA"]

#: Line prefix of the matrix pragma written by the emitter for
#: :class:`UnitaryGate` instructions (see ``repro.qasm.emitter``).
UNITARY_PRAGMA = "// repro.unitary"

_MAX_MACRO_DEPTH = 64
#: Instructions that all gate-macro applications of one program may expand
#: to; an application that would pass it is refused before it expands.
_MAX_MACRO_GATES = 1_000_000


# ---------------------------------------------------------------------------
# Built-in gate table: every standard gate (``standard.GATES``) under its own
# name, plus qelib1's aliases.  Each entry maps a QASM mnemonic to
# (num_params, arity, build), where ``build(params)`` returns the gate.
# ---------------------------------------------------------------------------

_PI_2 = math.pi / 2.0

_BUILTINS: Dict[str, Tuple[int, int, Callable[[Sequence[float]], Gate]]] = {
    name: (len(spec.params), spec.arity, partial(Gate, name, spec.arity))
    for name, spec in standard.GATES.items()
}
_BUILTINS.update(
    (alias, _BUILTINS[name])
    for alias, name in (("u1", "p"), ("u", "u3"), ("U", "u3"), ("CX", "cx"), ("cu1", "cp"))
)
_BUILTINS["u2"] = (2, 1, lambda params: standard.u3_gate(_PI_2, *params))

#: Multi-controlled X aliases with fixed control counts (qelib1 extras).
_MCX_ALIASES = {"c3x": 3, "c4x": 4}

#: Per-arity multi-controlled X symbols emitted by this project's exporter
#: (``mcx_3`` = 3 controls + 1 target), declared ``opaque`` in the header.
_MCX_NAME = re.compile(r"mcx_([1-9][0-9]*)")

_FUNCTIONS: Dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
}

# ---------------------------------------------------------------------------
# Public result type.
# ---------------------------------------------------------------------------


@dataclass
class QasmProgram:
    """A parsed OpenQASM 2 program.

    ``circuit`` holds the gate content on the flattened qubit space;
    ``qregs``/``cregs`` record the declared registers in order (name ->
    size); ``measurements`` are the ``measure`` statements as
    ``(qubit, creg_name, creg_index)`` triples and ``barriers`` the
    qubit tuples of each ``barrier`` statement — both validated and
    passed through without entering the circuit.
    """

    circuit: QuantumCircuit
    qregs: Dict[str, int] = field(default_factory=dict)
    cregs: Dict[str, int] = field(default_factory=dict)
    measurements: List[Tuple[int, str, int]] = field(default_factory=list)
    barriers: List[Tuple[int, ...]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Macro bookkeeping.
# ---------------------------------------------------------------------------


@dataclass
class _MacroStmt:
    """One body statement of a ``gate`` definition (barriers are dropped)."""

    name: str
    param_exprs: List[Any]
    qarg_names: List[str]
    line: int
    column: int


@dataclass
class _GateMacro:
    name: str
    params: List[str]
    qargs: List[str]
    body: List[_MacroStmt]
    size: int  # instructions one application expands to


#: Machine shape of a pragma line: ``// repro.unitary <symbol> <label> <hex>``.
#: Comments that merely *mention* the pragma (prose, wrong field count,
#: non-hex payload) must stay inert like any other QASM comment.
_PRAGMA_SHAPE = re.compile(
    r"([A-Za-z_][A-Za-z0-9_]*)\s+(\S+)\s+((?:[0-9a-fA-F]{2})+)"
)
_LINE_BREAK = re.compile(r"\r\n|\r|\n")


def _scan_unitary_pragmas(text: str) -> Dict[str, UnitaryGate]:
    """Extract ``// repro.unitary <sym> <label> <hex>`` pragma comments."""
    import numpy as np

    unitaries: Dict[str, UnitaryGate] = {}
    # Lines break where the lexer breaks them: at CR LF, CR or LF only.
    for lineno, raw in enumerate(_LINE_BREAK.split(text), start=1):
        line = raw.strip()
        rest = line[len(UNITARY_PRAGMA):]
        # Token boundary: '// repro.unitaryish ...' is an ordinary comment.
        if not line.startswith(UNITARY_PRAGMA) or not rest[:1].isspace():
            continue
        match = _PRAGMA_SHAPE.fullmatch(rest.strip())
        if match is None:
            continue  # an ordinary comment mentioning the pragma
        symbol, label, payload = match.groups()
        raw_bytes = bytes.fromhex(payload)
        if len(raw_bytes) == 0 or len(raw_bytes) % 16:  # complex128 entries
            raise QasmError(
                f"repro.unitary pragma payload is {len(raw_bytes)} bytes, "
                "not a whole number of complex128 entries",
                lineno,
                1,
            )
        flat = np.frombuffer(raw_bytes, dtype=complex)
        dim = math.isqrt(flat.size)
        if dim * dim != flat.size or dim < 2 or dim & (dim - 1):
            raise QasmError(
                f"repro.unitary pragma matrix has {flat.size} entries, "
                "not a power-of-two square",
                lineno,
                1,
            )
        unitaries[symbol] = UnitaryGate(flat.reshape(dim, dim), label=label)
    return unitaries


# ---------------------------------------------------------------------------
# The parser.
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, name: str = "qasm", max_qubits: Optional[int] = None) -> None:
        self.tokens = tokenize(text)
        self.pos = 0
        self.name = name
        self.max_qubits = max_qubits
        self.macro_gates = 0  # instructions expanded from gate macros so far
        self.qregs: Dict[str, Tuple[int, int]] = {}  # name -> (offset, size)
        self.cregs: Dict[str, int] = {}
        self.macros: Dict[str, _GateMacro] = {}
        self.opaques: Dict[str, Tuple[int, int]] = {}  # name -> (n_params, arity)
        self.unitaries = _scan_unitary_pragmas(text)
        self.num_qubits = 0
        self.instructions: List[Instruction] = []
        self.measurements: List[Tuple[int, str, int]] = []
        self.barriers: List[Tuple[int, ...]] = []

    # -- token plumbing -----------------------------------------------------
    def _peek(self) -> Token:
        return self.tokens[self.pos]

    def _next(self) -> Token:
        token = self.tokens[self.pos]
        if token.type != "eof":
            self.pos += 1
        return token

    def _error(self, message: str, token: Optional[Token] = None) -> "QasmError":
        token = token or self._peek()
        return QasmError(message, token.line, token.column)

    def _expect(self, type_: str, value: Optional[str] = None) -> Token:
        token = self._peek()
        if token.type != type_ or (value is not None and token.value != value):
            want = value if value is not None else type_
            got = token.value if token.type != "eof" else "end of input"
            raise self._error(f"expected {want!r}, found {got!r}", token)
        return self._next()

    def _expect_symbol(self, value: str) -> Token:
        return self._expect("symbol", value)

    # -- driver -------------------------------------------------------------
    def parse(self) -> QasmProgram:
        if self._peek().type == "id" and self._peek().value == "OPENQASM":
            self._parse_version()
        while self._peek().type != "eof":
            self._parse_statement()
        if not self.qregs:
            raise QasmError("QASM program declares no qubit register")
        circuit = QuantumCircuit(self.num_qubits, name=self.name)
        circuit.instructions.extend(self.instructions)
        return QasmProgram(
            circuit=circuit,
            qregs={name: size for name, (_, size) in self.qregs.items()},
            cregs=dict(self.cregs),
            measurements=self.measurements,
            barriers=self.barriers,
        )

    def _parse_version(self) -> None:
        self._expect("id", "OPENQASM")
        token = self._next()
        if token.type not in ("real", "nat") or float(token.value) != 2.0:
            raise self._error(
                f"unsupported OpenQASM version {token.value!r} (only 2.0 is supported)",
                token,
            )
        self._expect_symbol(";")

    def _parse_statement(self) -> None:
        token = self._peek()
        if token.type != "id":
            raise self._error(f"expected a statement, found {token.value!r}", token)
        keyword = token.value
        if keyword == "include":
            self._next()
            self._expect("string")
            self._expect_symbol(";")
        elif keyword in ("qreg", "creg"):
            self._parse_register(keyword)
        elif keyword == "gate":
            self._parse_gate_definition()
        elif keyword == "opaque":
            self._parse_opaque()
        elif keyword == "barrier":
            self._parse_barrier()
        elif keyword == "measure":
            self._parse_measure()
        elif keyword == "reset":
            raise self._error("reset statements are not supported (measurement-free IR)", token)
        elif keyword == "if":
            raise self._error("classically controlled operations (if) are not supported", token)
        elif keyword == "OPENQASM":
            raise self._error("OPENQASM header must be the first statement", token)
        else:
            self._parse_application()

    # -- declarations -------------------------------------------------------
    def _parse_register(self, kind: str) -> None:
        self._expect("id", kind)
        name_token = self._expect("id")
        name = name_token.value
        if name in self.qregs or name in self.cregs:
            raise self._error(f"register {name!r} is already declared", name_token)
        self._expect_symbol("[")
        size_token = self._expect("nat")
        size = _to_int(size_token.value, size_token)
        if size < 1:
            raise self._error("register size must be at least 1", size_token)
        if kind == "qreg" and self.max_qubits is not None:
            total = self.num_qubits + size
            if total > self.max_qubits:
                raise QubitCapError(
                    f"qreg {name!r} brings the program to {total} qubits, "
                    f"over max_qubits={self.max_qubits}",
                    size_token.line,
                    size_token.column,
                    total,
                    self.max_qubits,
                )
        self._expect_symbol("]")
        self._expect_symbol(";")
        if kind == "qreg":
            self.qregs[name] = (self.num_qubits, size)
            self.num_qubits += size
        else:
            self.cregs[name] = size

    def _parse_idlist(self) -> List[Token]:
        names = [self._expect("id")]
        while self._peek().type == "symbol" and self._peek().value == ",":
            self._next()
            names.append(self._expect("id"))
        return names

    def _parse_gate_definition(self) -> None:
        self._expect("id", "gate")
        name_token = self._expect("id")
        name = name_token.value
        params: List[str] = []
        if self._peek().type == "symbol" and self._peek().value == "(":
            self._next()
            if not (self._peek().type == "symbol" and self._peek().value == ")"):
                params = [token.value for token in self._parse_idlist()]
            self._expect_symbol(")")
        qargs = [token.value for token in self._parse_idlist()]
        if len(set(qargs)) != len(qargs):
            raise self._error(f"duplicate qubit argument in gate {name!r}", name_token)
        self._expect_symbol("{")
        body: List[_MacroStmt] = []
        formals = set(qargs)
        bound = set(params)
        while not (self._peek().type == "symbol" and self._peek().value == "}"):
            token = self._peek()
            if token.type != "id":
                raise self._error(f"expected a gate body statement, found {token.value!r}", token)
            if token.value == "barrier":
                self._next()
                for arg in self._parse_idlist():
                    if arg.value not in formals:
                        raise self._error(
                            f"unknown qubit argument {arg.value!r} in gate body", arg
                        )
                self._expect_symbol(";")
                continue
            stmt = self._parse_macro_statement(formals, bound)
            body.append(stmt)
        self._expect_symbol("}")
        shadowed = name in _BUILTINS or name in _MCX_ALIASES or name == "mcx"
        if not shadowed:
            if name in self.macros:
                raise self._error(f"gate {name!r} is already defined", name_token)
            size = sum(
                self.macros[stmt.name].size if stmt.name in self.macros else 1 for stmt in body
            )
            self.macros[name] = _GateMacro(name, params, qargs, body, size)

    def _parse_macro_statement(self, formals: set, bound_params: set) -> _MacroStmt:
        name_token = self._expect("id")
        name = name_token.value
        param_exprs: List[Any] = []
        if self._peek().type == "symbol" and self._peek().value == "(":
            self._next()
            if not (self._peek().type == "symbol" and self._peek().value == ")"):
                param_exprs.append(self._parse_expression())
                while self._peek().type == "symbol" and self._peek().value == ",":
                    self._next()
                    param_exprs.append(self._parse_expression())
            self._expect_symbol(")")
        qarg_tokens = self._parse_idlist()
        self._expect_symbol(";")
        for expr in param_exprs:
            for free_name, free_token in _free_identifiers(expr):
                if free_name not in bound_params:
                    raise QasmError(
                        f"undefined parameter {free_name!r} in gate body",
                        free_token.line,
                        free_token.column,
                    )
        qarg_names = []
        for token in qarg_tokens:
            if token.value not in formals:
                raise self._error(f"unknown qubit argument {token.value!r} in gate body", token)
            qarg_names.append(token.value)
        # Declaration-before-use: the callee must already be resolvable, which
        # also makes recursive (cyclic) macro definitions impossible.
        if not self._resolvable(name):
            raise self._error(f"unknown gate {name!r} in gate body", name_token)
        return _MacroStmt(
            name=name,
            param_exprs=param_exprs,
            qarg_names=qarg_names,
            line=name_token.line,
            column=name_token.column,
        )

    def _resolvable(self, name: str) -> bool:
        return (
            name in self.macros
            or name in _BUILTINS
            or name in _MCX_ALIASES
            or name == "mcx"
            or _MCX_NAME.fullmatch(name) is not None
            or name in self.unitaries
            or name in self.opaques
        )

    def _parse_opaque(self) -> None:
        self._expect("id", "opaque")
        name_token = self._expect("id")
        params: List[Token] = []
        if self._peek().type == "symbol" and self._peek().value == "(":
            self._next()
            if not (self._peek().type == "symbol" and self._peek().value == ")"):
                params = self._parse_idlist()
            self._expect_symbol(")")
        qargs = self._parse_idlist()
        self._expect_symbol(";")
        name = name_token.value
        if (
            name not in _BUILTINS
            and name not in _MCX_ALIASES
            and name != "mcx"
            and _MCX_NAME.fullmatch(name) is None
        ):
            self.opaques.setdefault(name, (len(params), len(qargs)))

    # -- passthrough statements --------------------------------------------
    def _parse_barrier(self) -> None:
        self._expect("id", "barrier")
        args = self._parse_arguments()
        self._expect_symbol(";")
        qubits: List[int] = []
        for reg_token, index in args:
            qubits.extend(self._resolve_qubits(reg_token, index))
        self.barriers.append(tuple(qubits))

    def _parse_measure(self) -> None:
        self._expect("id", "measure")
        q_token, q_index = self._parse_argument()
        self._expect_symbol("->")
        c_token, c_index = self._parse_argument()
        self._expect_symbol(";")
        qubits = self._resolve_qubits(q_token, q_index)
        creg = c_token.value
        if creg not in self.cregs:
            raise self._error(f"unknown classical register {creg!r}", c_token)
        size = self.cregs[creg]
        if c_index is None:
            bits = list(range(size))
        else:
            if c_index >= size:
                raise self._error(
                    f"index {c_index} out of range for register {creg!r} of size {size}",
                    c_token,
                )
            bits = [c_index]
        if len(qubits) != len(bits):
            raise self._error(
                f"measure width mismatch: {len(qubits)} qubit(s) -> {len(bits)} bit(s)",
                q_token,
            )
        self.measurements.extend(
            (qubit, creg, bit) for qubit, bit in zip(qubits, bits)
        )

    # -- gate applications ---------------------------------------------------
    def _parse_argument(self) -> Tuple[Token, Optional[int]]:
        token = self._expect("id")
        index: Optional[int] = None
        if self._peek().type == "symbol" and self._peek().value == "[":
            self._next()
            index_token = self._expect("nat")
            index = _to_int(index_token.value, index_token)
            self._expect_symbol("]")
        return token, index

    def _parse_arguments(self) -> List[Tuple[Token, Optional[int]]]:
        args = [self._parse_argument()]
        while self._peek().type == "symbol" and self._peek().value == ",":
            self._next()
            args.append(self._parse_argument())
        return args

    def _resolve_qubits(self, token: Token, index: Optional[int]) -> List[int]:
        name = token.value
        if name not in self.qregs:
            raise self._error(f"unknown quantum register {name!r}", token)
        offset, size = self.qregs[name]
        if index is None:
            return list(range(offset, offset + size))
        if index >= size:
            raise self._error(
                f"index {index} out of range for register {name!r} of size {size}", token
            )
        return [offset + index]

    def _parse_application(self) -> None:
        name_token = self._expect("id")
        name = name_token.value
        params: List[float] = []
        if self._peek().type == "symbol" and self._peek().value == "(":
            self._next()
            if not (self._peek().type == "symbol" and self._peek().value == ")"):
                params.append(self._evaluate_top(self._parse_expression()))
                while self._peek().type == "symbol" and self._peek().value == ",":
                    self._next()
                    params.append(self._evaluate_top(self._parse_expression()))
            self._expect_symbol(")")
        args = self._parse_arguments()
        self._expect_symbol(";")

        # Register broadcasting: full-register args must agree on size n and
        # the statement expands to n instructions; indexed args are repeated.
        resolved = [
            (self._resolve_qubits(token, index), index is None and self.qregs[token.value][1] > 1)
            for token, index in args
        ]
        widths = {len(qubits) for qubits, broadcast in resolved if broadcast}
        if len(widths) > 1:
            raise self._error(
                f"mismatched register sizes in broadcast: {sorted(widths)}", name_token
            )
        repeat = widths.pop() if widths else 1
        macro = self.macros.get(name)
        if macro is not None:
            self.macro_gates += repeat * macro.size
            if self.macro_gates > _MAX_MACRO_GATES:
                raise self._error(
                    f"gate macros expand to more than {_MAX_MACRO_GATES} instructions",
                    name_token,
                )
        for step in range(repeat):
            qubits = [
                qubit_list[step] if len(qubit_list) > 1 else qubit_list[0]
                for qubit_list, _ in resolved
            ]
            self._emit(name, params, qubits, name_token, depth=0)

    def _evaluate_top(self, expr: Any) -> float:
        return _evaluate(expr, {})

    def _emit(
        self,
        name: str,
        params: Sequence[float],
        qubits: Sequence[int],
        token: Token,
        depth: int,
    ) -> None:
        if depth > _MAX_MACRO_DEPTH:
            raise self._error(f"gate expansion deeper than {_MAX_MACRO_DEPTH} levels", token)
        macro = self.macros.get(name)
        if macro is not None:
            if len(params) != len(macro.params):
                raise self._error(
                    f"gate {name!r} takes {len(macro.params)} parameter(s), "
                    f"got {len(params)}",
                    token,
                )
            if len(qubits) != len(macro.qargs):
                raise self._error(
                    f"gate {name!r} acts on {len(macro.qargs)} qubit(s), got {len(qubits)}",
                    token,
                )
            env = dict(zip(macro.params, params))
            qubit_map = dict(zip(macro.qargs, qubits))
            for stmt in macro.body:
                values = [_evaluate(expr, env) for expr in stmt.param_exprs]
                body_token = Token("id", stmt.name, stmt.line, stmt.column)
                body_qubits = [qubit_map[qarg] for qarg in stmt.qarg_names]
                self._emit(stmt.name, values, body_qubits, body_token, depth + 1)
            return
        if name in _BUILTINS:
            n_params, arity, constructor = _BUILTINS[name]
            self._check_shape(name, token, len(params), n_params, len(qubits), arity)
            self._append(constructor(params), qubits, token)
            return
        controls = _MCX_ALIASES.get(name)
        if controls is None:
            match = _MCX_NAME.fullmatch(name)
            if match:
                controls = _to_int(match.group(1), token)
        if name == "mcx":
            controls = len(qubits) - 1
            if params:
                # An explicit control count is accepted but must agree.
                if (
                    len(params) != 1
                    or not math.isfinite(params[0])
                    or int(round(params[0])) != controls
                ):
                    raise self._error(
                        f"mcx on {len(qubits)} qubits expects {controls} controls, "
                        f"got parameter(s) {tuple(params)}",
                        token,
                    )
            if controls < 1:
                raise self._error("mcx needs at least one control and one target", token)
        if controls is not None:
            if name != "mcx" and params:
                raise self._error(f"gate {name!r} takes no parameters", token)
            if len(qubits) != controls + 1:
                raise self._error(
                    f"gate {name!r} acts on {controls + 1} qubit(s), got {len(qubits)}",
                    token,
                )
            self._append(standard.mcx_gate(controls), qubits, token)
            return
        if name in self.unitaries:
            gate = self.unitaries[name]
            self._check_shape(name, token, len(params), 0, len(qubits), gate.num_qubits)
            self._append(gate, qubits, token)
            return
        if name in self.opaques:
            raise self._error(
                f"opaque gate {name!r} has no known unitary and cannot be imported",
                token,
            )
        raise self._error(f"unknown gate {name!r}", token)

    def _check_shape(
        self,
        name: str,
        token: Token,
        got_params: int,
        want_params: int,
        got_qubits: int,
        want_qubits: int,
    ) -> None:
        if got_params != want_params:
            raise self._error(
                f"gate {name!r} takes {want_params} parameter(s), got {got_params}", token
            )
        if got_qubits != want_qubits:
            raise self._error(
                f"gate {name!r} acts on {want_qubits} qubit(s), got {got_qubits}", token
            )

    def _append(self, gate: Gate, qubits: Sequence[int], token: Token) -> None:
        for param in gate.params:
            if not math.isfinite(param):
                raise self._error(f"non-finite gate parameter {param!r}", token)
        try:
            instruction = Instruction(gate, tuple(qubits))
        except ValueError as exc:
            raise self._error(str(exc), token) from None
        self.instructions.append(instruction)

    # -- parameter expressions ----------------------------------------------
    # AST nodes are tuples tagged with the source token:
    #   ("num", value, token) | ("param", name, token)
    #   ("neg", expr, token)  | ("call", fn_name, expr, token)
    #   ("binop", op, left, right, token)
    def _parse_expression(self) -> Any:
        expr = self._parse_term()
        while self._peek().type == "symbol" and self._peek().value in ("+", "-"):
            op_token = self._next()
            right = self._parse_term()
            expr = ("binop", op_token.value, expr, right, op_token)
        return expr

    def _parse_term(self) -> Any:
        expr = self._parse_factor()
        while self._peek().type == "symbol" and self._peek().value in ("*", "/"):
            op_token = self._next()
            right = self._parse_factor()
            expr = ("binop", op_token.value, expr, right, op_token)
        return expr

    def _parse_factor(self) -> Any:
        token = self._peek()
        if token.type == "symbol" and token.value in ("-", "+"):
            self._next()
            inner = self._parse_factor()
            return inner if token.value == "+" else ("neg", inner, token)
        return self._parse_power()

    def _parse_power(self) -> Any:
        base = self._parse_atom()
        if self._peek().type == "symbol" and self._peek().value == "^":
            op_token = self._next()
            exponent = self._parse_factor()  # right-associative
            return ("binop", "^", base, exponent, op_token)
        return base

    def _parse_atom(self) -> Any:
        token = self._next()
        if token.type in ("real", "nat"):
            return ("num", float(token.value), token)
        if token.type == "symbol" and token.value == "(":
            expr = self._parse_expression()
            self._expect_symbol(")")
            return expr
        if token.type == "id":
            if token.value == "pi":
                return ("num", math.pi, token)
            if token.value in _FUNCTIONS:
                self._expect_symbol("(")
                inner = self._parse_expression()
                self._expect_symbol(")")
                return ("call", token.value, inner, token)
            return ("param", token.value, token)
        raise self._error(
            f"expected a parameter expression, found {token.value or 'end of input'!r}",
            token,
        )


def _to_int(digits: str, token: Token) -> int:
    """``int(digits)``, or a :class:`QasmError` past ``int``'s digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise QasmError(
            f"number of {len(digits)} digits is too long", token.line, token.column
        ) from None


def _free_identifiers(expr: Any):
    """Yield ``(name, token)`` for every unbound identifier in an AST."""
    tag = expr[0]
    if tag == "param":
        yield expr[1], expr[2]
    elif tag == "neg":
        yield from _free_identifiers(expr[1])
    elif tag == "call":
        yield from _free_identifiers(expr[2])
    elif tag == "binop":
        yield from _free_identifiers(expr[2])
        yield from _free_identifiers(expr[3])


def _evaluate(expr: Any, env: Dict[str, float]) -> float:
    tag, token = expr[0], expr[-1]
    try:
        if tag == "num":
            return expr[1]
        if tag == "param":
            name = expr[1]
            if name not in env:
                raise QasmError(f"undefined parameter {name!r}", token.line, token.column)
            return env[name]
        if tag == "neg":
            return -_evaluate(expr[1], env)
        if tag == "call":
            return _FUNCTIONS[expr[1]](_evaluate(expr[2], env))
        op, left, right = expr[1], expr[2], expr[3]
        a = _evaluate(left, env)
        b = _evaluate(right, env)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0.0:
                raise QasmError("division by zero in parameter expression", token.line, token.column)
            return a / b
        result = a ** b
        if isinstance(result, complex):  # negative base, fractional exponent
            raise QasmError(
                "parameter expression has a complex value", token.line, token.column
            )
        return result
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        if isinstance(exc, QasmError):
            raise
        raise QasmError(
            f"invalid parameter expression: {exc}", token.line, token.column
        ) from None


# ---------------------------------------------------------------------------
# The straight-line reader: the subset dumps() writes, in one regex pass.
# ---------------------------------------------------------------------------

_WS = r"[ \t]*"
_ID = r"[A-Za-z_][A-Za-z0-9_]*(?![A-Za-z0-9_])"
_IDLIST = rf"{_ID}(?:{_WS},{_WS}{_ID})*"
#: What may follow a statement: whitespace, line breaks and comments.  A
#: comment must run to its line break, so a line of ``////...`` has one
#: reading, not one per way of splitting it (exponential backtracking).
_SKIP = r"[ \t\r\n]*(?://[^\r\n]*(?![^\r\n])[ \t\r\n]*)*"

#: Optional version, ``include``/``opaque`` lines, then the one ``qreg``.
_HEADER = re.compile(
    rf"{_SKIP}(?:OPENQASM[ \t]+2\.0{_WS};{_SKIP})?"
    rf"(?:(?:include{_WS}\"[^\"\r\n]*\"|opaque[ \t]+{_ID}{_WS}"
    rf"(?:\({_WS}(?:{_IDLIST}{_WS})?\){_WS})?{_IDLIST}){_WS};{_SKIP})*"
    rf"qreg[ \t]+({_ID}){_WS}\[{_WS}([0-9]+){_WS}\]{_WS};{_SKIP}"
)
_INDEX = re.compile(r"\[[ \t]*([0-9]+)")


def _application_pattern(register: str) -> "re.Pattern[str]":
    """``name[(literals)] reg[i][, reg[j] ...];`` over the one register.

    The parameter text is only screened for the characters of signed
    decimal and exponent literals; ``float`` then refuses any piece that is
    not one, since on these characters its grammar is the lexer's.
    """
    arg = rf"{re.escape(register)}{_WS}\[{_WS}[0-9]+{_WS}\]"
    return re.compile(
        rf"([A-Za-z_][A-Za-z0-9_]*)(?:{_WS}\(([0-9.eE+\-, \t]*)\){_WS}|[ \t]+)"
        rf"({arg}(?:{_WS},{_WS}{arg})*){_WS};{_SKIP}"
    )


def _read_straight_line(
    text: str, name: str, max_qubits: Optional[int] = None
) -> Optional[QasmProgram]:
    """Read ``text`` if it is straight-line QASM, else return ``None``.

    Accepted: the version line, ``include``, ``opaque`` and comment lines,
    exactly one ``qreg``, then applications of built-in or ``mcx_<k>``
    gates with literal parameters and indexed qubits.  Anything else,
    including every program the parser would reject, returns ``None`` so
    that :class:`_Parser` reads it (and raises its error).  Each statement
    is matched where the last one ended; the match never searches ahead.
    The gates come from the parser's constructors and ``float`` of a
    literal is the parser's value, so an accepted program is identical.
    """
    if "repro.unitary" in text:
        return None  # matrix pragmas are the parser's
    header = _HEADER.match(text)
    if header is None:
        return None
    instructions: List[Instruction] = []
    append = instructions.append
    indices = _INDEX.findall
    shapes = dict(_BUILTINS)  # plus each mcx_<k> met
    try:
        register, size = header.group(1), int(header.group(2))
        if size < 1 or (max_qubits is not None and size > max_qubits):
            return None
        statement = _application_pattern(register).match
        pos, end = header.end(), len(text)
        while pos < end:
            match = statement(text, pos)
            if match is None:
                return None
            gate_name, literals, args = match.groups()
            pos = match.end()
            shape = shapes.get(gate_name)
            if shape is None:
                mcx = _MCX_NAME.fullmatch(gate_name)
                if mcx is None:
                    return None
                controls = int(mcx.group(1))
                shape = shapes[gate_name] = (0, controls + 1, lambda _, k=controls: standard.mcx_gate(k))
            n_params, arity, constructor = shape
            qubits = tuple(map(int, indices(args)))
            if len(qubits) != arity or max(qubits) >= size or len(set(qubits)) != arity:
                return None
            if literals:
                params = tuple(map(float, literals.split(",")))
                if len(params) != n_params or not all(map(math.isfinite, params)):
                    return None
            elif n_params:
                return None
            else:
                params = ()
            append(Instruction.unchecked(constructor(params), qubits))
    except ValueError:  # not a literal, or digits past int()'s limit
        return None
    circuit = QuantumCircuit(size, name=name)
    circuit.instructions.extend(instructions)
    return QasmProgram(circuit=circuit, qregs={register: size})


def parse(text: str, name: str = "qasm", max_qubits: Optional[int] = None) -> QasmProgram:
    """Parse OpenQASM 2.0 ``text`` into a :class:`QasmProgram`.

    With ``max_qubits``, a ``qreg`` that takes the program past that many
    qubits raises :class:`~repro.qasm.errors.QubitCapError` (a
    :class:`QasmError`) at its declaration, before any gate is read.
    """
    program = _read_straight_line(text, name, max_qubits)
    if program is None:
        program = _Parser(text, name=name, max_qubits=max_qubits).parse()
    return program
