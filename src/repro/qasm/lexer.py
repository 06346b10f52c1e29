"""Hand-written tokenizer for OpenQASM 2.0.

Produces a flat token stream with 1-based line/column positions so the
parser can raise :class:`~repro.qasm.errors.QasmError` pointing at the
offending source location.  CR LF, a lone CR and a lone LF each end one
line, and a comment (``// ...``) runs to whichever comes first; comments are
dropped here.  The ``// repro.unitary`` matrix pragmas emitted for
:class:`UnitaryGate` instructions are extracted from the raw text by the
parser before lexing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.qasm.errors import QasmError

__all__ = ["Token", "tokenize"]

#: Multi-character symbol tokens (checked before single characters).
_TWO_CHAR = ("->", "==")

#: Single-character symbol tokens.
_ONE_CHAR = set("()[]{},;+-*/^<>=")

_DIGITS = set("0123456789")
_ID_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_ID_CONT = _ID_START | _DIGITS


@dataclass(frozen=True)
class Token:
    """One lexical token.

    ``type`` is one of ``"id"``, ``"nat"`` (natural number), ``"real"``,
    ``"string"``, ``"symbol"`` or ``"eof"``; ``value`` holds the source
    text (without quotes for strings).  ``line``/``column`` are 1-based.
    """

    type: str
    value: str
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.type}, {self.value!r}, {self.line}:{self.column})"


def _scan_number(text: str, pos: int) -> Tuple[str, int]:
    """Scan a number starting at ``pos``; return (kind, end) with kind in
    {"nat", "real"}."""
    n = len(text)
    end = pos
    while end < n and text[end] in _DIGITS:
        end += 1
    is_real = False
    if end < n and text[end] == ".":
        is_real = True
        end += 1
        while end < n and text[end] in _DIGITS:
            end += 1
    if end < n and text[end] in "eE":
        probe = end + 1
        if probe < n and text[probe] in "+-":
            probe += 1
        if probe < n and text[probe] in _DIGITS:
            is_real = True
            end = probe
            while end < n and text[end] in _DIGITS:
                end += 1
    return ("real" if is_real else "nat"), end


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text``; raises :class:`QasmError` on an illegal character."""
    return list(_tokens(text))


def _tokens(text: str) -> Iterator[Token]:
    line = 1
    line_start = 0  # offset of the first character of the current line
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch in "\r\n":
            line += 1
            pos += 2 if text.startswith("\r\n", pos) else 1
            line_start = pos
            continue
        if ch in " \t":
            pos += 1
            continue
        column = pos - line_start + 1
        if ch == "/" and pos + 1 < n and text[pos + 1] == "/":
            while pos < n and text[pos] not in "\r\n":
                pos += 1
            continue
        two = text[pos : pos + 2]
        if two in _TWO_CHAR:
            yield Token("symbol", two, line, column)
            pos += 2
            continue
        if ch in _DIGITS or (ch == "." and pos + 1 < n and text[pos + 1] in _DIGITS):
            # A leading '.' takes _scan_number's fraction path directly (its
            # integer loop matches zero digits), so one scanner covers both.
            kind, end = _scan_number(text, pos)
            yield Token(kind, text[pos:end], line, column)
            pos = end
            continue
        if ch in _ID_START:
            end = pos + 1
            while end < n and text[end] in _ID_CONT:
                end += 1
            yield Token("id", text[pos:end], line, column)
            pos = end
            continue
        if ch == '"':
            end = pos + 1
            while end < n and text[end] not in '"\r\n':
                end += 1
            if end >= n or text[end] != '"':
                raise QasmError("unterminated string literal", line, column)
            yield Token("string", text[pos + 1 : end], line, column)
            pos = end + 1
            continue
        if ch in _ONE_CHAR:
            yield Token("symbol", ch, line, column)
            pos += 1
            continue
        raise QasmError(f"illegal character {ch!r}", line, column)
    yield Token("eof", "", line, (pos - line_start) + 1)
