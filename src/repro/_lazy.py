"""Shared lazy-export machinery for package ``__init__`` modules.

``repro``, ``repro.target`` and ``repro.service`` expose their public API
through a ``{name: "module:attribute"}`` table resolved on first attribute
access, so importing the package stays cheap and submodules never cycle
through the package ``__init__``.  A value of ``"module:"`` (empty
attribute) exports the module object itself.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, Iterable, List, Tuple


def lazy_exports(
    module_name: str,
    exports: Dict[str, str],
    module_globals: Dict[str, Any],
    extra: Iterable[str] = (),
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """Build the ``(__getattr__, __dir__)`` pair for a lazy package init.

    ``__dir__`` lists only the public API — the export names plus ``extra``
    (eagerly-defined public names such as ``__version__``) — so tab
    completion never surfaces package internals.
    """

    def __getattr__(name: str) -> Any:
        try:
            location = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {module_name!r} has no attribute {name!r}"
            ) from None
        submodule, _, attribute = location.partition(":")
        loaded = import_module(submodule)
        value = loaded if not attribute else getattr(loaded, attribute)
        module_globals[name] = value
        return value

    public = sorted(set(exports) | set(extra))

    def __dir__() -> List[str]:
        return public

    return __getattr__, __dir__
