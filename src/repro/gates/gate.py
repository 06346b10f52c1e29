"""Core gate abstractions.

A :class:`Gate` is an immutable description of a quantum operation: a name,
the number of qubits it acts on, an optional tuple of real parameters and a
unitary matrix.  Named gates obtain their matrix from the builder registry in
:mod:`repro.gates.standard`; fused blocks produced by the compiler carry an
explicit matrix (:class:`UnitaryGate`).

Matrix interning
----------------
Building a gate matrix is pure in ``(name, params)``, and the same gates
recur millions of times across a benchmark suite (every ``cx``, every
``swap`` inserted by routing, repeated rotation angles inside one circuit).
``Gate.matrix`` therefore resolves through a module-level intern pool:

* non-parametric gates live in :data:`_CONSTANT_MATRICES`, prebuilt for the
  whole standard library at import time and kept forever;
* parametrized gates are cached in a bounded FIFO pool keyed by
  ``(name, params)``.

Every interned (and every explicit) matrix is frozen
(``writeable=False``), so a cached array can never be corrupted in place by
a pass or simulator — callers that need a scratch copy must ``.copy()``.
:func:`matrix_cache_stats` exposes hit/miss counters for the benchmark,
both in aggregate and per gate family (per name), so the batch collectors in
:mod:`repro.kernels` can report what fraction of their inputs were interned
and the FIFO pool bound can be sized against real workloads.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Gate",
    "UnitaryGate",
    "register_matrix_builder",
    "matrix_cache_stats",
    "reset_matrix_cache_stats",
]

#: Registry mapping gate names to functions ``params -> unitary matrix``.
_MATRIX_BUILDERS: Dict[str, Callable[..., np.ndarray]] = {}

#: Interned matrices of non-parametric gates (never evicted).
_CONSTANT_MATRICES: Dict[str, np.ndarray] = {}

#: Bounded FIFO intern pool for parametrized gate matrices.
_PARAM_MATRICES: Dict[Tuple[str, Tuple[float, ...]], np.ndarray] = {}
_PARAM_POOL_CAPACITY = 4096

_CACHE_HITS = 0
_CACHE_MISSES = 0

#: Per-gate-family (per gate name) hit/miss counters.
_FAMILY_HITS: Dict[str, int] = {}
_FAMILY_MISSES: Dict[str, int] = {}


def register_matrix_builder(name: str, builder: Callable[..., np.ndarray]) -> None:
    """Register the matrix builder for a named gate.

    Re-registering a name drops any interned matrices built by the previous
    builder.
    """
    _MATRIX_BUILDERS[name] = builder
    _CONSTANT_MATRICES.pop(name, None)
    for key in [key for key in _PARAM_MATRICES if key[0] == name]:
        del _PARAM_MATRICES[key]


def matrix_cache_stats() -> Dict[str, Any]:
    """Intern-pool counters: hits, misses, current sizes and per-family rates.

    ``families`` maps each gate name that resolved a matrix since the last
    reset to its own ``{"hits", "misses", "hit_rate"}`` record, so callers
    (the benchmark, the batch collectors) can see *which* gate families
    benefit from interning rather than one aggregate number.
    """
    families: Dict[str, Dict[str, Any]] = {}
    for name in sorted(_FAMILY_HITS.keys() | _FAMILY_MISSES.keys()):
        hits = _FAMILY_HITS.get(name, 0)
        misses = _FAMILY_MISSES.get(name, 0)
        families[name] = {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        }
    return {
        "hits": _CACHE_HITS,
        "misses": _CACHE_MISSES,
        "constant_entries": len(_CONSTANT_MATRICES),
        "parametrized_entries": len(_PARAM_MATRICES),
        "families": families,
    }


def reset_matrix_cache_stats() -> None:
    """Zero the hit/miss counters (the benchmark brackets runs with this)."""
    global _CACHE_HITS, _CACHE_MISSES
    _CACHE_HITS = 0
    _CACHE_MISSES = 0
    _FAMILY_HITS.clear()
    _FAMILY_MISSES.clear()


def _freeze(matrix: np.ndarray) -> np.ndarray:
    """Return ``matrix`` as a read-only complex array (copy iff writable)."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.flags.writeable:
        matrix = matrix.copy()
        matrix.setflags(write=False)
    return matrix


def _interned_matrix(name: str, params: Tuple[float, ...]) -> np.ndarray:
    """Resolve the read-only interned matrix for ``(name, params)``."""
    global _CACHE_HITS, _CACHE_MISSES
    if not params:
        cached = _CONSTANT_MATRICES.get(name)
        if cached is not None:
            _CACHE_HITS += 1
            _FAMILY_HITS[name] = _FAMILY_HITS.get(name, 0) + 1
            return cached
    else:
        cached = _PARAM_MATRICES.get((name, params))
        if cached is not None:
            _CACHE_HITS += 1
            _FAMILY_HITS[name] = _FAMILY_HITS.get(name, 0) + 1
            return cached
    try:
        builder = _MATRIX_BUILDERS[name]
    except KeyError:
        raise KeyError(f"no matrix builder registered for gate {name!r}") from None
    _CACHE_MISSES += 1
    _FAMILY_MISSES[name] = _FAMILY_MISSES.get(name, 0) + 1
    matrix = _freeze(builder(*params))
    if not params:
        _CONSTANT_MATRICES[name] = matrix
    else:
        if len(_PARAM_MATRICES) >= _PARAM_POOL_CAPACITY:
            del _PARAM_MATRICES[next(iter(_PARAM_MATRICES))]
        _PARAM_MATRICES[(name, params)] = matrix
    return matrix


class Gate:
    """An immutable named quantum gate.

    Parameters
    ----------
    name:
        Lower-case gate mnemonic (``"cx"``, ``"u3"``, ``"can"``, ...).
    num_qubits:
        Arity of the gate.
    params:
        Real parameters (rotation angles, canonical coordinates, ...).
    """

    __slots__ = ("name", "num_qubits", "params", "_matrix")

    def __init__(
        self,
        name: str,
        num_qubits: int,
        params: Sequence[float] = (),
        matrix: Optional[np.ndarray] = None,
    ) -> None:
        self.name = name
        self.num_qubits = int(num_qubits)
        self.params: Tuple[float, ...] = tuple(map(float, params))
        self._matrix = None if matrix is None else _freeze(matrix)

    # -- matrix ------------------------------------------------------------
    @property
    def matrix(self) -> np.ndarray:
        """Unitary matrix of the gate (``2^n x 2^n``, read-only, interned)."""
        if self._matrix is None:
            self._matrix = _interned_matrix(self.name, self.params)
        return self._matrix

    # -- helpers -----------------------------------------------------------
    @property
    def is_two_qubit(self) -> bool:
        """True for gates acting on exactly two qubits."""
        return self.num_qubits == 2

    @property
    def is_parametrized(self) -> bool:
        """True when the gate carries continuous parameters."""
        return bool(self.params)

    def dagger(self) -> "Gate":
        """Return the adjoint gate as an explicit-matrix gate."""
        return UnitaryGate(self.matrix.conj().T, label=f"{self.name}_dg")

    def with_params(self, params: Sequence[float]) -> "Gate":
        """Return a copy of this gate with different parameters."""
        return Gate(self.name, self.num_qubits, params)

    def copy(self) -> "Gate":
        """Shallow copy (gates are immutable, so this shares the matrix)."""
        return Gate(self.name, self.num_qubits, self.params, self._matrix)

    # -- equality / repr ----------------------------------------------------
    def approx_equal(self, other: "Gate", atol: float = 1e-9) -> bool:
        """Structural equality: same name, arity and parameters within atol."""
        return (
            self.name == other.name
            and self.num_qubits == other.num_qubits
            and len(self.params) == len(other.params)
            and all(abs(a - b) <= atol for a, b in zip(self.params, other.params))
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gate):
            return NotImplemented
        return self.approx_equal(other, atol=0.0)

    def __hash__(self) -> int:
        return hash((self.name, self.num_qubits, self.params))

    def __repr__(self) -> str:
        if self.params:
            params = ", ".join(f"{p:.6g}" for p in self.params)
            return f"{self.name}({params})"
        return self.name


class UnitaryGate(Gate):
    """A gate defined directly by its unitary matrix.

    Used for fused SU(4)/SU(8) blocks produced by the compiler passes and for
    synthesized templates.  The ``label`` keeps a human-readable provenance
    tag (e.g. ``"su4"`` or ``"block"``).  The stored matrix is frozen at
    construction (copied if the caller's array was writable), so later
    mutation of the source array cannot corrupt the gate.
    """

    def __init__(self, matrix: np.ndarray, label: str = "unitary") -> None:
        matrix = np.asarray(matrix, dtype=complex)
        dim = matrix.shape[0]
        if matrix.shape != (dim, dim) or dim < 1 or dim & (dim - 1):
            raise ValueError(f"matrix shape {matrix.shape} is not a power-of-two square")
        super().__init__(label, dim.bit_length() - 1, (), matrix)

    def __repr__(self) -> str:
        return f"{self.name}[{self.num_qubits}q]"

    def __hash__(self) -> int:
        return hash((self.name, self.num_qubits, self.matrix.tobytes()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gate):
            return NotImplemented
        return (
            self.name == other.name
            and self.num_qubits == other.num_qubits
            and np.array_equal(self.matrix, other.matrix)
        )
