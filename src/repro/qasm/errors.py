"""The :class:`QasmError` exception.

Subclasses :class:`ValueError`, so callers that catch ``ValueError`` keep
working, while new code can catch ``QasmError`` and read the structured
``line``/``column`` attributes.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["QasmError"]


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
