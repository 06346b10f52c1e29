"""The Regulus compiler: SU(4)-native compilation framework of ReQISC.

Compilation runs through the declarative API in :mod:`repro.target`
(``Target`` + ``PipelineSpec`` + ``compile``); this package holds the passes,
the router and the :class:`CompilationResult` they produce.
"""

from repro.compiler.result import CompilationResult

__all__ = ["CompilationResult"]
