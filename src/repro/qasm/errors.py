"""The :class:`QasmError` exception.

Subclasses :class:`ValueError`, so callers that catch ``ValueError`` keep
working, while new code can catch ``QasmError`` and read the structured
``line``/``column`` attributes.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["QasmError", "QubitCapError"]


class QasmError(ValueError):
    """An OpenQASM 2 parse, validation or serialization error.

    ``line`` and ``column`` are 1-based source positions (``None`` for
    errors with no location, e.g. serialization failures); ``filename``
    is attached by :func:`repro.qasm.load` when parsing from a file.
    """

    def __init__(
        self,
        message: str,
        line: Optional[int] = None,
        column: Optional[int] = None,
        filename: Optional[str] = None,
    ) -> None:
        self.message = message
        self.line = line
        self.column = column
        self.filename = filename
        super().__init__(self._format())

    def _format(self) -> str:
        prefix = self.filename or ""
        if self.line is not None:
            prefix += f"{':' if prefix else 'line '}{self.line}"
            if self.column is not None:
                prefix += f":{self.column}" if self.filename else f", column {self.column}"
        return f"{prefix}: {self.message}" if prefix else self.message

    def with_filename(self, filename: str) -> "QasmError":
        """Copy of this error carrying the source ``filename``."""
        return QasmError(self.message, self.line, self.column, filename)


class QubitCapError(QasmError):
    """A ``qreg`` took the program past the ``max_qubits`` a parse was given.

    Raised at the declaration, before any gate is read; ``num_qubits`` is
    the qubit count the program had reached there.
    """

    def __init__(self, message: str, line: int, column: int, num_qubits: int, max_qubits: int):
        super().__init__(message, line, column)
        self.num_qubits = num_qubits
        self.max_qubits = max_qubits
