"""Optional native-speed kernels behind a pure-Python fallback.

This package hosts the compiler's hot numeric kernels in a form the rest of
the stack selects transparently (the CXLMemUring co-design pattern: an
optimized fast path layered behind an unchanged software interface with a
portable fallback):

* **SABRE routing loop** — the whole step loop of
  :class:`~repro.compiler.routing.sabre.SabreRouter` (front upkeep,
  lookahead set, candidate scoring, SWAP selection with mirroring
  absorption, decay) as one call per routing run into a small C extension
  (:mod:`repro.kernels._sabre_loop`, built opportunistically at install
  time): :func:`sabre_route_native`.  The fallback is the router's own
  Python loop, which scores candidates with
  :mod:`repro.kernels.sabre_score`; both loops return the same event
  stream, bit for bit.
* **Batched SU(4)/KAK numerics** — :func:`kak_decompose_batch` in
  :mod:`repro.kernels.kak_batch`, decomposing N interned 4x4 matrices per
  vectorized linalg call.
* **Batched gate application** — ``apply_gate_sequence`` lives with the
  simulator (:mod:`repro.simulators.statevector`) but is part of the same
  kernel layer: one cached-permutation transpose per gate instead of two.

Backend selection
-----------------
The ``REPRO_KERNELS`` environment variable picks the SABRE loop backend:

* ``auto`` (default, also when unset): the native extension when it imports
  and provides ``route``, otherwise the pure-Python fallback — a source
  install without a C compiler silently degrades to ``py``.
* ``py``: force the pure-Python fallback even when the extension exists
  (CI pins one job to this so the fallback never rots).
* ``native``: require the extension; raise ``RuntimeError`` if unavailable.

The variable is re-read on every selection (each routing run), so tests
can flip backends with a plain ``monkeypatch.setenv``.  Use
:func:`backend_info` for introspection.
"""

from __future__ import annotations

import importlib
import os
from typing import Any, Dict, Optional

from repro.kernels.kak_batch import (
    batch_stats,
    kak_decompose_batch,
    reset_batch_stats,
)
from repro.kernels.sabre_score import make_sabre_scorer, score_stall_py

__all__ = [
    "backend_info",
    "batch_stats",
    "kak_decompose_batch",
    "make_sabre_scorer",
    "reset_batch_stats",
    "sabre_route_native",
    "score_stall_py",
    "select_backend",
]

_ENV_VAR = "REPRO_KERNELS"
_VALID_REQUESTS = ("auto", "py", "native")
_NATIVE_NAME = "repro.kernels._sabre_loop"

#: Cached import of the native extension: unset / (module, None) / (None, err).
_NATIVE: Optional[tuple] = None


def _native_module():
    """Import (once) and return the native extension; raise if unavailable."""
    global _NATIVE
    if _NATIVE is None:
        try:
            module = importlib.import_module(_NATIVE_NAME)
        except ImportError as exc:  # pragma: no cover - depends on the build
            _NATIVE = (None, str(exc))
        else:
            # An extension built from older sources lacks the loop entry
            # point; treat it as missing rather than failing mid-compile.
            if hasattr(module, "route"):
                _NATIVE = (module, None)
            else:
                _NATIVE = (None, f"{_NATIVE_NAME} has no 'route'; it is stale")
    module, error = _NATIVE
    if module is None:
        raise RuntimeError(
            f"the repro.kernels native extension is not available ({error}); "
            "build it with 'python setup.py build_ext --inplace' or set "
            f"{_ENV_VAR}=py"
        )
    return module


def _native_available() -> bool:
    try:
        _native_module()
    except RuntimeError:
        return False
    return True


def select_backend(override: Optional[str] = None) -> str:
    """Resolve the active SABRE loop backend name (``"py"`` or ``"native"``).

    ``override`` takes precedence over the ``REPRO_KERNELS`` environment
    variable; ``"native"`` raises ``RuntimeError`` when the extension cannot
    be imported, ``"auto"`` degrades to ``"py"``.
    """
    requested = override if override is not None else os.environ.get(_ENV_VAR, "auto")
    requested = requested.strip().lower() or "auto"
    if requested not in _VALID_REQUESTS:
        raise ValueError(
            f"invalid {_ENV_VAR} value {requested!r}; expected one of {_VALID_REQUESTS}"
        )
    if requested == "py":
        return "py"
    if requested == "native":
        _native_module()  # raises with the import error when missing
        return "native"
    return "native" if _native_available() else "py"


def backend_info() -> Dict[str, Any]:
    """Introspection of the kernel layer for tooling and the benchmark."""
    requested = os.environ.get(_ENV_VAR, "auto").strip().lower() or "auto"
    available = _native_available()
    module, error = _NATIVE if _NATIVE is not None else (None, None)
    try:
        backend = select_backend()
    except (RuntimeError, ValueError):
        backend = "py"
    return {
        "requested": requested,
        "backend": backend,
        "native_available": available,
        "native_module": getattr(module, "__file__", None),
        "native_error": error,
    }


def sabre_route_native(*args):
    """Run the whole SABRE step loop natively (see ``_sabre_loop.c``).

    Returns the router's event stream ``(events, wires, absorptions,
    final_layout, inserted, absorbed)``; raises ``RuntimeError`` when the
    extension is unavailable.
    """
    return _native_module().route(*args)
